package mem

import (
	"encoding/binary"
	"sort"

	"civect/internal/ckpt"
)

// Checkpoint serialization: a memory image is stored as sparse word
// deltas against a base image (the workload's pristine initial memory),
// so a checkpoint taken deep into a run costs space proportional to the
// words the program has actually changed, not the whole working set. A
// nil base encodes against the empty image, i.e. the full sparse
// contents. Pages are emitted in sorted key order and words in ascending
// index order, so the encoding of a given (memory, base) pair is unique —
// the determinism invariant every civect byte format keeps.

// rawPageThreshold is the diff count above which a page is stored raw:
// each diff costs 12 bytes against 8 per raw word, so past half the page
// the raw form is both smaller and cheaper to apply.
const rawPageThreshold = pageWords / 2

// zeroPage is the contents of an unmapped page. It is never written.
var zeroPage page

// SaveDelta encodes m as sparse deltas over base. A page m still shares
// with base (the same page pointer, never written since the clone) has no
// deltas by construction and is skipped without a scan, so the cost is
// proportional to the pages m has written, not to the image.
func (m *Memory) SaveDelta(e *ckpt.Codec, base *Memory) {
	e.Tag("mem")

	keys := make([]uint64, 0, len(m.pages))
	for k, r := range m.pages {
		if base != nil && base.pages[k].p == r.p {
			continue
		}
		keys = append(keys, k)
	}
	if base != nil {
		// A page present only in base reads as zero in m but not in base,
		// so it still needs a delta.
		for k := range base.pages {
			if _, ok := m.pages[k]; !ok {
				keys = append(keys, k)
			}
		}
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })

	// Two passes keep the page count a plain prefix field: count first,
	// then emit. The diff scan is cheap relative to the encode.
	type pageDiff struct {
		key  uint64
		idxs []int
		page *page
	}
	diffs := make([]pageDiff, 0, len(keys))
	for _, k := range keys {
		pg := m.pages[k].p
		if pg == nil {
			pg = &zeroPage
		}
		var bpage *page
		if base != nil {
			bpage = base.pages[k].p
		}
		if bpage == nil {
			bpage = &zeroPage
		}
		var idxs []int
		for i := range pg {
			if pg[i] != bpage[i] {
				idxs = append(idxs, i)
			}
		}
		if len(idxs) > 0 {
			diffs = append(diffs, pageDiff{key: k, idxs: idxs, page: pg})
		}
	}

	n := len(diffs)
	e.Int(&n)
	for _, pd := range diffs {
		e.U64(&pd.key)
		if len(pd.idxs) > rawPageThreshold {
			mode := uint8(1) // raw page
			e.U8(&mode)
			for i := range pd.page {
				e.U64(&pd.page[i])
			}
			continue
		}
		var mode uint8 // sparse diffs
		e.U8(&mode)
		n := len(pd.idxs)
		e.Int(&n)
		for _, i := range pd.idxs {
			idx := uint32(i)
			e.U32(&idx)
			e.U64(&pd.page[i])
		}
	}
}

// LoadDelta decodes a memory image written by SaveDelta: a clone of base
// (empty for nil base) with the deltas applied. Only the pages the deltas
// touch are copied; a raw page is decoded straight into a fresh page.
// The bytes are untrusted, so only the canonical form SaveDelta writes
// is accepted: page keys strictly ascending, sparse pages with 1 to
// rawPageThreshold diffs at strictly ascending word indices, each
// changing its word, and raw pages differing from base in more than
// rawPageThreshold words. Every page record therefore changes a page
// exactly once, and an accepted payload re-encodes to the same bytes.
// Errors latch in d.
func LoadDelta(d *ckpt.Codec, base *Memory) *Memory {
	d.Tag("mem")
	var m *Memory
	if base != nil {
		m = base.Clone()
	} else {
		m = New()
	}
	var npages int
	d.Count(&npages)
	var prev uint64
	for p := 0; p < npages; p++ {
		var key uint64
		var mode uint8
		d.U64(&key)
		d.U8(&mode)
		if d.Err() != nil {
			return m
		}
		if p > 0 && key <= prev {
			d.Fail("memory delta page %#x does not follow page %#x", key, prev)
			return m
		}
		prev = key
		shared := m.pages[key].p // base's page, if it has one
		switch mode {
		case 1:
			raw := d.Raw(pageBytes)
			if raw == nil {
				return m
			}
			old := shared
			if old == nil {
				old = &zeroPage
			}
			pg, ndiff := m.newPage(), 0
			for i := range pg {
				pg[i] = binary.LittleEndian.Uint64(raw[i*8:])
				if pg[i] != old[i] {
					ndiff++
				}
			}
			if ndiff <= rawPageThreshold {
				d.Fail("raw memory page %#x changes only %d words", key, ndiff)
				return m
			}
			m.install(key, pg)
		case 0:
			var ndiff int
			d.Count(&ndiff)
			if ndiff < 1 || ndiff > rawPageThreshold {
				d.Fail("sparse memory page %#x has %d diffs, want 1..%d", key, ndiff, rawPageThreshold)
				return m
			}
			pg := m.own(key, shared)
			next := uint32(0) // lowest index the next diff may take
			for j := 0; j < ndiff; j++ {
				var i uint32
				var v uint64
				d.U32(&i)
				d.U64(&v)
				if d.Err() != nil {
					return m
				}
				if i < next || i >= pageWords {
					d.Fail("memory delta word index %d out of order or out of page range", i)
					return m
				}
				if pg[i] == v {
					d.Fail("memory delta for page %#x word %d changes nothing", key, i)
					return m
				}
				pg[i] = v
				next = i + 1
			}
		default:
			d.Fail("unknown memory page mode %d", mode)
			return m
		}
	}
	return m
}
