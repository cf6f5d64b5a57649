// Package mem implements the sparse 64-bit data memory shared by the
// functional emulator and the timing simulator.
//
// Memory is word-granular (64-bit words at 8-byte-aligned byte addresses)
// and paged so that large, scattered working sets stay cheap. Reads of
// unmapped or misaligned-beyond-word addresses return zero: the timing
// simulator executes wrong-path loads for real, and a total (never
// faulting) memory keeps wrong paths harmless, exactly like SimpleScalar's
// speculative memory mode.
//
// Pages are copy-on-write. Clone copies only the page table, so the two
// memories share every page until one of them writes it; the writer then
// copies that page first. A page reachable from two memories is never
// written in place. Ownership is a generation stamp kept beside each page
// pointer in the page table (not inside the 4 KiB array, which would push
// every page into a larger allocation size class): a memory owns a page
// iff the page's stamp equals the memory's generation, and Clone hands
// both sides fresh generations, so neither owns anything it shares.
package mem

import (
	"maps"
	"sync/atomic"
)

const (
	pageBytes = 1 << 12 // 4 KiB pages
	pageWords = pageBytes / 8
	pageShift = 12
	wordShift = 3
)

type page = [pageWords]uint64

// pageRef is one page-table entry: the page and the generation of the
// memory that may write it in place.
type pageRef struct {
	p   *page
	gen uint64
}

// generations issues the process-unique generation stamps Clone and
// Freeze hand out. Zero is never issued, so a fresh memory (generation
// 0) owns exactly the pages it created itself.
var generations atomic.Uint64

// Memory is a sparse, paged 64-bit word memory. The zero value is an
// empty memory ready to use.
type Memory struct {
	pages map[uint64]pageRef
	// gen is atomic only so that concurrent Clones of a memory nobody
	// is writing stay race-free; Clone replaces it, Write64 compares it.
	gen    atomic.Uint64
	frozen bool
}

// New returns an empty memory.
func New() *Memory { return &Memory{pages: make(map[uint64]pageRef)} }

// Freeze makes m a read-only image: any later Write64 panics, and
// Clone no longer touches m at all, so any number of goroutines may
// Clone (and read) a frozen memory concurrently. Workload images are
// frozen once generated.
func (m *Memory) Freeze() {
	m.gen.Store(generations.Add(1)) // own nothing: every write takes the checked path
	m.frozen = true
}

func wordIndex(addr uint64) uint64 { return (addr >> wordShift) & (pageWords - 1) }

// Read64 returns the word containing byte address addr (the address is
// truncated down to 8-byte alignment). Unmapped addresses read as zero.
func (m *Memory) Read64(addr uint64) uint64 {
	p := m.pages[addr>>pageShift].p
	if p == nil {
		return 0
	}
	return p[wordIndex(addr)]
}

// Write64 stores val in the word containing byte address addr.
func (m *Memory) Write64(addr, val uint64) {
	key := addr >> pageShift
	r := m.pages[key]
	if r.p == nil || r.gen != m.gen.Load() {
		r.p = m.own(key, r.p)
	}
	r.p[wordIndex(addr)] = val
}

// own makes the page at key writable by m: a fresh zero page when shared
// is nil, otherwise a private copy of the shared page.
func (m *Memory) own(key uint64, shared *page) *page {
	if m.frozen {
		panic("mem: write to a frozen memory image")
	}
	np := new(page)
	if shared != nil {
		*np = *shared
	}
	m.install(key, np)
	return np
}

// install maps key to p, owned by m.
func (m *Memory) install(key uint64, p *page) {
	if m.pages == nil {
		m.pages = make(map[uint64]pageRef)
	}
	m.pages[key] = pageRef{p: p, gen: m.gen.Load()}
}

// PagesAllocated returns the number of 4 KiB pages currently mapped.
// Pages shared with a clone count in both memories.
func (m *Memory) PagesAllocated() int { return len(m.pages) }

// Clone returns an independent copy of the memory in time proportional
// to its page count, not its contents: the copy shares every page with
// m until either side writes it. Used to give each run its own image of
// a workload's initial memory. Cloning an unfrozen memory revokes m's
// ownership of its pages, so m's next write to each page copies it.
func (m *Memory) Clone() *Memory {
	c := &Memory{pages: maps.Clone(m.pages)}
	if c.pages == nil {
		c.pages = make(map[uint64]pageRef)
	}
	c.gen.Store(generations.Add(1))
	if !m.frozen {
		m.gen.Store(generations.Add(1))
	}
	return c
}

// Checksum returns an order-independent FNV-style digest of all mapped,
// non-zero words. Two memories with identical contents (ignoring zero
// words, mapped or not) produce the same checksum; it is used by the
// architectural-equivalence tests.
func (m *Memory) Checksum() uint64 {
	var sum uint64
	for k, r := range m.pages {
		base := k << pageShift
		for i, w := range r.p {
			if w == 0 {
				continue
			}
			addr := base + uint64(i)<<wordShift
			x := addr*0x9e3779b97f4a7c15 + w
			x ^= x >> 30
			x *= 0xbf58476d1ce4e5b9
			x ^= x >> 27
			x *= 0x94d049bb133111eb
			x ^= x >> 31
			sum += x
		}
	}
	return sum
}
