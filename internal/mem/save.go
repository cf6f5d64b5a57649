package mem

import (
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

// SaveDelta encodes m as sparse deltas over base. A page m still shares
// with base (the same page pointer, never written since the clone) has no
// deltas by construction and is skipped without a scan, so the cost is
// proportional to the pages m has written, not to the image.
func (m *Memory) SaveDelta(e *ckpt.Encoder, base *Memory) {
	e.Tag("mem")
	var zero page

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
			pg = &zero
		}
		var bpage *page
		if base != nil {
			bpage = base.pages[k].p
		}
		if bpage == nil {
			bpage = &zero
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

	e.Int(len(diffs))
	for _, pd := range diffs {
		e.U64(pd.key)
		if len(pd.idxs) > rawPageThreshold {
			e.U8(1) // raw page
			for i := range pd.page {
				e.U64(pd.page[i])
			}
			continue
		}
		e.U8(0) // sparse diffs
		e.Int(len(pd.idxs))
		for _, i := range pd.idxs {
			e.U32(uint32(i))
			e.U64(pd.page[i])
		}
	}
}

// LoadDelta decodes a memory image written by SaveDelta: a clone of base
// (empty for nil base) with the deltas applied. Only the pages the deltas
// touch are copied; a raw page is decoded straight into a fresh page.
// Errors latch in d.
func LoadDelta(d *ckpt.Decoder, base *Memory) *Memory {
	d.Tag("mem")
	var m *Memory
	if base != nil {
		m = base.Clone()
	} else {
		m = New()
	}
	npages := d.Count()
	for p := 0; p < npages; p++ {
		key := d.U64()
		mode := d.U8()
		if d.Err() != nil {
			return m
		}
		switch mode {
		case 1:
			pg := new(page)
			for i := range pg {
				pg[i] = d.U64()
			}
			m.install(key, pg)
		case 0:
			pg := m.own(key, m.pages[key].p)
			ndiff := d.Count()
			for j := 0; j < ndiff; j++ {
				i := d.U32()
				v := d.U64()
				if i >= pageWords {
					d.Fail("memory delta word index %d out of page range", i)
					return m
				}
				pg[i] = v
			}
		default:
			d.Fail("unknown memory page mode %d", mode)
			return m
		}
	}
	return m
}
