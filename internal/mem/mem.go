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
// written in place, by Write64 or by WriteWords, the bulk writer images
// are filled with. Ownership is a generation stamp kept beside each
// page pointer in the page table (not inside the 4 KiB array, which
// would push every page into a larger allocation size class): a memory
// owns a page iff the page's stamp equals the memory's generation, and
// Clone hands both sides fresh generations, so neither owns anything it
// shares.
//
// The page table is a map, but the hot path does not hash: each memory
// keeps a small direct-mapped software TLB of (key, page, stamp) entries
// in front of it. A read that hits the TLB never consults the map; a
// write takes the TLB's page only when the entry's stamp equals the
// memory's current generation, so after a Clone or Freeze every write
// goes back through the ownership check. The map stays authoritative:
// installing a page refreshes its TLB entry, and a clone starts with an
// empty TLB.
//
// A memory that has never been cloned or frozen (generation 0: an image
// still being built) takes its fresh pages from multi-page slabs that
// grow with it to slabPages pages. Pages copied or created at run time,
// after a Clone, stay single allocations, so a run's first write to a
// page costs one page, not a slab.
//
// Concurrency: a Memory is not safe for concurrent use, with two
// exceptions. A frozen memory may be read and cloned by any number of
// goroutines at once, because it never fills its TLB; and a memory
// nobody is writing or reading may be cloned concurrently.
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

	// tlbBits sizes the TLB at 64 entries (1.5 KiB, which every Clone
	// allocates and zeroes along with its page table).
	tlbBits = 6
	// slabPages is the most pages an image under construction takes
	// per allocation (128 KiB).
	slabPages = 32
)

type page = [pageWords]uint64

// pageRef is one page-table entry: the page and the generation of the
// memory that may write it in place.
type pageRef struct {
	p   *page
	gen uint64
}

// tlbEntry caches the page-table entry for key. An entry with a nil
// page is empty.
type tlbEntry struct {
	key uint64
	pageRef
}

// tlbSlot picks key's TLB entry by a multiplicative hash of the key:
// stream bases sit a power-of-two number of pages apart, so the low key
// bits alone would put every stream in the same entry.
func tlbSlot(key uint64) uint64 { return key * 0x9e3779b97f4a7c15 >> (64 - tlbBits) }

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
	tlb    [1 << tlbBits]tlbEntry
	// slab holds the unused pages of the current slab while gen is 0.
	slab []page
}

// New returns an empty memory.
func New() *Memory { return &Memory{pages: make(map[uint64]pageRef)} }

// Freeze makes m a read-only image: any later write panics, and
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
	key := addr >> pageShift
	if e := &m.tlb[tlbSlot(key)]; e.key == key && e.p != nil {
		return e.p[wordIndex(addr)]
	}
	return m.readMiss(key, addr)
}

// readMiss serves a read the TLB missed from the page table, filling
// the TLB unless m is frozen (frozen memories are read concurrently).
func (m *Memory) readMiss(key, addr uint64) uint64 {
	r := m.pages[key]
	if r.p == nil {
		return 0
	}
	if !m.frozen {
		m.tlb[tlbSlot(key)] = tlbEntry{key, r}
	}
	return r.p[wordIndex(addr)]
}

// Write64 stores val in the word containing byte address addr.
func (m *Memory) Write64(addr, val uint64) {
	key := addr >> pageShift
	e := &m.tlb[tlbSlot(key)]
	if e.key != key || e.p == nil || e.gen != m.gen.Load() {
		m.writeMiss(key)
	}
	e.p[wordIndex(addr)] = val
}

// WriteWords stores words at consecutive words, the first in the word
// containing byte address addr. It is len(words) Write64 calls that
// look each page up once: a page m does not own is copied first, and a
// frozen memory panics.
func (m *Memory) WriteWords(addr uint64, words []uint64) {
	for len(words) > 0 {
		key := addr >> pageShift
		e := &m.tlb[tlbSlot(key)]
		if e.key != key || e.p == nil || e.gen != m.gen.Load() {
			m.writeMiss(key)
		}
		words = words[copy(e.p[wordIndex(addr):], words):]
		addr = (key + 1) << pageShift
	}
}

// writeMiss leaves the TLB entry for key holding a page m owns, taking
// ownership first if needed.
func (m *Memory) writeMiss(key uint64) {
	r := m.pages[key]
	if r.p == nil || r.gen != m.gen.Load() {
		m.own(key, r.p)
		return
	}
	m.tlb[tlbSlot(key)] = tlbEntry{key, r}
}

// own makes the page at key writable by m: a fresh zero page when shared
// is nil, otherwise a private copy of the shared page.
func (m *Memory) own(key uint64, shared *page) *page {
	if m.frozen {
		panic("mem: write to a frozen memory image")
	}
	np := m.newPage()
	if shared != nil {
		*np = *shared
	}
	m.install(key, np)
	return np
}

// newPage returns a zero page: carved from a slab while m is still
// being built (generation 0), a single allocation otherwise. Slabs
// double with the image up to slabPages, so a small image wastes no
// more than it uses.
func (m *Memory) newPage() *page {
	if m.gen.Load() != 0 {
		return new(page)
	}
	if len(m.slab) == 0 {
		m.slab = make([]page, min(max(len(m.pages), 1), slabPages))
	}
	p := &m.slab[0]
	m.slab = m.slab[1:]
	return p
}

// install maps key to p, owned by m, and refreshes key's TLB entry.
func (m *Memory) install(key uint64, p *page) {
	if m.pages == nil {
		m.pages = make(map[uint64]pageRef)
	}
	r := pageRef{p: p, gen: m.gen.Load()}
	m.pages[key] = r
	m.tlb[tlbSlot(key)] = tlbEntry{key, r}
}

// PagesAllocated returns the number of 4 KiB pages currently mapped.
// Pages shared with a clone count in both memories.
func (m *Memory) PagesAllocated() int { return len(m.pages) }

// Clone returns an independent copy of the memory in time proportional
// to its page count, not its contents: the copy shares every page with
// m until either side writes it. Used to give each run its own image of
// a workload's initial memory. Cloning an unfrozen memory revokes m's
// ownership of its pages, so m's next write to each page copies it.
//
// The clone starts with an empty TLB. m's TLB stays valid for reads;
// its entries carry m's old generation, so writes miss until they have
// copied their page.
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
