package mem

import (
	"bytes"
	"runtime"
	"testing"

	"civect/internal/ckpt"
)

// deltaRecord appends one page record to a hand-built LoadDelta
// payload.
type deltaRecord func(e *ckpt.Encoder)

// sparseRecord is a mode-0 page record; diffs are (word index, value)
// pairs, written in the order given.
func sparseRecord(key uint64, diffs ...[2]uint64) deltaRecord {
	return func(e *ckpt.Encoder) {
		e.U64(key)
		e.U8(0)
		e.Int(len(diffs))
		for _, d := range diffs {
			e.U32(uint32(d[0]))
			e.U64(d[1])
		}
	}
}

// rawRecord is a mode-1 page record whose word i is word(i).
func rawRecord(key uint64, word func(i int) uint64) deltaRecord {
	return func(e *ckpt.Encoder) {
		e.U64(key)
		e.U8(1)
		for i := 0; i < pageWords; i++ {
			e.U64(word(i))
		}
	}
}

func deltaPayload(recs ...deltaRecord) []byte {
	var e ckpt.Encoder
	e.Tag("mem")
	e.Int(len(recs))
	for _, r := range recs {
		r(&e)
	}
	return e.Bytes()
}

// TestLoadDeltaRejectsNonCanonical: LoadDelta decodes untrusted bytes
// and accepts only the form SaveDelta writes, so every record changes a
// page exactly once and no record is accepted that re-encodes
// differently.
func TestLoadDeltaRejectsNonCanonical(t *testing.T) {
	base := New()
	base.Write64(1<<pageShift, 5)
	base.Freeze()
	firstN := func(n int) func(int) uint64 {
		return func(i int) uint64 {
			if i < n {
				return uint64(i) + 1
			}
			return 0
		}
	}
	many := make([][2]uint64, rawPageThreshold+1)
	for i := range many {
		many[i] = [2]uint64{uint64(i), 1}
	}
	cases := []struct {
		name string
		base *Memory
		data []byte
	}{
		{"keys descending", nil, deltaPayload(sparseRecord(2, [2]uint64{0, 1}), sparseRecord(1, [2]uint64{0, 1}))},
		{"key repeated", nil, deltaPayload(sparseRecord(1, [2]uint64{0, 1}), sparseRecord(1, [2]uint64{1, 1}))},
		{"no diffs", nil, deltaPayload(sparseRecord(1))},
		{"too many diffs for a sparse page", nil, deltaPayload(sparseRecord(1, many...))},
		{"word indices descending", nil, deltaPayload(sparseRecord(1, [2]uint64{3, 1}, [2]uint64{2, 1}))},
		{"word index repeated", nil, deltaPayload(sparseRecord(1, [2]uint64{3, 1}, [2]uint64{3, 2}))},
		{"word index past the page", nil, deltaPayload(sparseRecord(1, [2]uint64{pageWords, 1}))},
		{"diff writes the empty image's zero", nil, deltaPayload(sparseRecord(1, [2]uint64{0, 0}))},
		{"diff writes the base's own value", base, deltaPayload(sparseRecord(1, [2]uint64{0, 5}))},
		{"raw page with too few changes", nil, deltaPayload(rawRecord(1, firstN(rawPageThreshold)))},
		{"raw page mostly equal to the base", base, deltaPayload(rawRecord(1, func(i int) uint64 {
			if i == 0 {
				return 5
			}
			return firstN(rawPageThreshold)(i)
		}))},
		{"unknown page mode", nil, deltaPayload(func(e *ckpt.Encoder) { e.U64(1); e.U8(2) })},
	}

	for _, c := range cases {
		d := ckpt.NewDecoder(c.data)
		LoadDelta(d, c.base)
		if d.Err() == nil {
			t.Errorf("%s: LoadDelta accepted a non-canonical payload", c.name)
		}
	}
	// The same records in canonical form decode.
	for _, data := range [][]byte{
		deltaPayload(sparseRecord(1, [2]uint64{0, 1}), sparseRecord(2, [2]uint64{2, 1}, [2]uint64{3, 1})),
		deltaPayload(rawRecord(1, firstN(rawPageThreshold+1))),
	} {
		d := ckpt.NewDecoder(data)
		LoadDelta(d, nil)
		if err := d.Err(); err != nil {
			t.Errorf("canonical payload rejected: %v", err)
		}
	}
}

// TestLoadDeltaEmptyRecordFloodBounded: 100,000 sparse page records with
// no diffs (1.7 MB) once decoded without error into 100,000 pages,
// about 400 MB. They must now fail at the first record, allocating
// almost nothing.
func TestLoadDeltaEmptyRecordFloodBounded(t *testing.T) {
	recs := make([]deltaRecord, 100000)
	for k := range recs {
		recs[k] = sparseRecord(uint64(k))
	}
	data := deltaPayload(recs...)
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	d := ckpt.NewDecoder(data)
	LoadDelta(d, nil)
	runtime.ReadMemStats(&after)
	if d.Err() == nil {
		t.Fatalf("a %d-byte flood of empty page records decoded without error", len(data))
	}
	if grew := after.TotalAlloc - before.TotalAlloc; grew > 64<<10 {
		t.Fatalf("rejecting a %d-byte payload allocated %d bytes", len(data), grew)
	}
}

// fuzzImage is FuzzLoadDelta's non-nil base: a frozen image with sparse
// and dense pages.
func fuzzImage() *Memory {
	m := New()
	for i := uint64(0); i < pageWords; i++ {
		m.Write64(2<<pageShift|i<<wordShift, i*3+1) // a full page
	}
	for k := uint64(4); k < 8; k++ {
		m.Write64(k<<pageShift|k<<wordShift, k)
	}
	m.Freeze()
	return m
}

// FuzzLoadDelta: LoadDelta never panics on arbitrary bytes, and any
// payload it accepts is canonical — SaveDelta of the decoded memory
// against the same base reproduces exactly the bytes consumed.
func FuzzLoadDelta(f *testing.F) {
	image := fuzzImage()
	encode := func(m, base *Memory) []byte {
		var e ckpt.Encoder
		m.SaveDelta(&e, base)
		return e.Bytes()
	}
	sparse := New()
	for k := uint64(0); k < 5; k++ {
		sparse.Write64(k<<pageShift|(k*8)<<wordShift, k+9)
	}
	dense := New()
	for i := uint64(0); i <= rawPageThreshold; i++ {
		dense.Write64(3<<pageShift|i<<wordShift, i+1) // rawPageThreshold+1 words: raw
	}
	run := image.Clone()
	run.Write64(5<<pageShift|5<<wordShift, 77) // change a sparse base page
	run.Write64(6<<pageShift|6<<wordShift, 0)  // zero a base word
	run.Write64(9<<pageShift, 1)               // a page the base lacks
	for i := uint64(0); i < pageWords; i++ {   // rewrite the full page: raw
		run.Write64(2<<pageShift|i<<wordShift, i)
	}
	seeds := []struct {
		useImage bool
		data     []byte
	}{
		{false, encode(New(), nil)},
		{false, encode(sparse, nil)},
		{false, encode(dense, nil)},
		{true, encode(image.Clone(), image)},
		{true, encode(run, image)},
	}
	for _, s := range seeds {
		f.Add(s.useImage, s.data)
		f.Add(s.useImage, s.data[:len(s.data)/2])
		f.Add(s.useImage, s.data[:len(s.data)-1])
		for _, at := range []int{len(s.data) / 3, len(s.data) / 2, len(s.data) - 1} {
			flipped := bytes.Clone(s.data)
			flipped[at] ^= 0x10
			f.Add(s.useImage, flipped)
		}
	}
	f.Fuzz(func(t *testing.T, useImage bool, data []byte) {
		var base *Memory
		if useImage {
			base = image
		}
		d := ckpt.NewDecoder(data)
		m := LoadDelta(d, base)
		if d.Err() != nil {
			return
		}
		if got, want := encode(m, base), data[:d.Offset()]; !bytes.Equal(got, want) {
			t.Fatalf("accepted %d bytes re-encode to %d different bytes", len(want), len(got))
		}
	})
}
