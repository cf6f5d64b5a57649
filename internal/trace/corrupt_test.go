package trace_test

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"runtime"
	"testing"

	"civect/internal/core"
	"civect/internal/trace"
	"civect/internal/workload"
)

// drain reads a journal to its end, returning the first error (nil for
// a clean, trailer-verified EOF).
func drain(journal []byte) error {
	r, err := trace.NewReader(bytes.NewReader(journal))
	if err != nil {
		return err
	}
	for {
		_, err := r.Next()
		if err == io.EOF {
			return nil
		}
		if err != nil {
			return err
		}
	}
}

func smallJournal(t testing.TB) []byte {
	t.Helper()
	j, _ := record(t, workload.Random(3), core.DefaultConfig(core.ModeCI), trace.LevelPipeline)
	return j
}

// TestTruncatedJournal checks that every strict prefix of a journal
// fails to read cleanly: a clean EOF requires the verified trailer, so
// a file cut short anywhere — mid-header, mid-block, mid-trailer —
// must surface an error instead of silently looking complete.
func TestTruncatedJournal(t *testing.T) {
	j := smallJournal(t)
	if err := drain(j); err != nil {
		t.Fatalf("intact journal failed: %v", err)
	}
	// Every prefix in the header/trailer neighborhoods, sampled strides
	// through the block interior.
	var cuts []int
	for n := 0; n < min(64, len(j)); n++ {
		cuts = append(cuts, n)
	}
	for n := 64; n < len(j)-64; n += 41 {
		cuts = append(cuts, n)
	}
	for n := max(64, len(j)-64); n < len(j); n++ {
		cuts = append(cuts, n)
	}
	for _, n := range cuts {
		if err := drain(j[:n]); err == nil {
			t.Fatalf("prefix of %d/%d bytes read cleanly", n, len(j))
		}
	}
}

// TestCorruptJournal flips single bytes and checks the damage is
// always detected (magic check, header CRC, block CRCs, trailer CRC).
func TestCorruptJournal(t *testing.T) {
	j := smallJournal(t)
	for pos := 0; pos < len(j); pos += 37 {
		bad := bytes.Clone(j)
		bad[pos] ^= 0x41
		if err := drain(bad); err == nil {
			t.Fatalf("flipping byte %d/%d went undetected", pos, len(j))
		}
	}
	// The last byte (trailer CRC) as an explicit edge case.
	bad := bytes.Clone(j)
	bad[len(bad)-1] ^= 1
	if err := drain(bad); !errors.Is(err, trace.ErrCorrupt) {
		t.Fatalf("trailer CRC flip: got %v, want ErrCorrupt", err)
	}
}

// TestForgedBlockLength: a block length at the reader's cap with only
// a few bytes behind it is rejected as truncated without allocating
// the declared size.
func TestForgedBlockLength(t *testing.T) {
	j := smallJournal(t)
	header := j[:4+4+1+int(j[8])+4]
	forged := binary.AppendUvarint(bytes.Clone(header), 16<<20)
	forged = append(forged, make([]byte, 10)...)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	err := drain(forged)
	runtime.ReadMemStats(&after)
	if !errors.Is(err, trace.ErrTruncated) {
		t.Fatalf("forged block length: got %v, want ErrTruncated", err)
	}
	if alloc := after.TotalAlloc - before.TotalAlloc; alloc > 1<<20 {
		t.Errorf("reading a 10-byte block declared at 16 MB allocated %d bytes", alloc)
	}
}

// TestReaderErrorKinds pins the error taxonomy for the common damage
// shapes callers switch on.
func TestReaderErrorKinds(t *testing.T) {
	j := smallJournal(t)

	if _, err := trace.NewReader(bytes.NewReader(nil)); !errors.Is(err, trace.ErrTruncated) {
		t.Fatalf("empty file: got %v, want ErrTruncated", err)
	}
	if _, err := trace.NewReader(bytes.NewReader([]byte("GIVT...."))); !errors.Is(err, trace.ErrCorrupt) {
		t.Fatalf("bad magic: got %v, want ErrCorrupt", err)
	}
	bad := bytes.Clone(j)
	bad[4] = 99 // version byte — CRC-covered, so re-seal the header CRC is not possible; expect corrupt
	if _, err := trace.NewReader(bytes.NewReader(bad)); !errors.Is(err, trace.ErrCorrupt) {
		t.Fatalf("version flip: got %v, want ErrCorrupt", err)
	}
	if err := drain(j[:len(j)-6]); !errors.Is(err, trace.ErrTruncated) {
		t.Fatalf("missing trailer: got %v, want ErrTruncated", err)
	}
	// Flip a byte well inside the first block payload.
	bad = bytes.Clone(j)
	bad[len(j)/2] ^= 0x10
	if err := drain(bad); !errors.Is(err, trace.ErrCorrupt) && !errors.Is(err, trace.ErrTruncated) {
		t.Fatalf("payload flip: got %v, want ErrCorrupt or ErrTruncated", err)
	}
}

// TestMalformedStream feeds the strict replayer hand-built event
// streams that violate pipeline discipline and checks each is
// rejected with ErrMalformed.
func TestMalformedStream(t *testing.T) {
	apply := func(evs ...trace.Event) error {
		var m trace.Machine
		for _, e := range evs {
			if err := m.Apply(e); err != nil {
				return err
			}
		}
		return nil
	}
	ren := func(c, seq uint64) trace.Event {
		return trace.Event{Kind: trace.KindRename, Cycle: c, Seq: seq}
	}
	cases := []struct {
		name string
		evs  []trace.Event
	}{
		{"rename seq regression", []trace.Event{ren(1, 5), ren(1, 4)}},
		{"commit of unknown seq", []trace.Event{{Kind: trace.KindCommit, Cycle: 1, Seq: 9}}},
		{"commit out of FIFO order", []trace.Event{ren(1, 1), ren(1, 2),
			{Kind: trace.KindCommit, Cycle: 2, Seq: 2}}},
		{"issue of unknown seq", []trace.Event{{Kind: trace.KindIssue, Cycle: 1, Seq: 3}}},
		{"double issue", []trace.Event{ren(1, 1),
			{Kind: trace.KindIssue, Cycle: 2, Seq: 1}, {Kind: trace.KindIssue, Cycle: 3, Seq: 1}}},
		{"squash count mismatch", []trace.Event{ren(1, 1), ren(1, 2),
			{Kind: trace.KindSquash, Cycle: 2, Seq: 1, N: 5}}},
	}
	for _, tc := range cases {
		if err := apply(tc.evs...); !errors.Is(err, trace.ErrMalformed) {
			t.Errorf("%s: got %v, want ErrMalformed", tc.name, err)
		}
	}
	// The same streams pass in lenient (windowed) mode, except the
	// genuinely impossible rename regression.
	for _, tc := range cases[1:] {
		var m trace.Machine
		m.Lenient = true
		var err error
		for _, e := range tc.evs {
			if err = m.Apply(e); err != nil {
				break
			}
		}
		if err != nil {
			t.Errorf("%s: lenient machine rejected it: %v", tc.name, err)
		}
	}
}

// TestRecorderMisuse pins the writer-side error paths.
func TestRecorderMisuse(t *testing.T) {
	var buf bytes.Buffer
	rec := trace.NewRecorder(&buf, trace.Level(9), trace.Meta{})
	if rec.Err() == nil {
		t.Fatal("invalid level accepted")
	}
	rec = trace.NewRecorder(&buf, trace.LevelPipeline, trace.Meta{})
	rec.SetWindow(10, 5)
	if rec.Err() == nil {
		t.Fatal("inverted window accepted")
	}
	rec = trace.NewRecorder(&buf, trace.LevelPipeline, trace.Meta{})
	rec.OnTraceCommit(1, 1, 0, false, false)
	rec.SetWindow(1, 2)
	if rec.Err() == nil {
		t.Fatal("SetWindow after recording accepted")
	}
}

// TestRecorderEmptyJournal checks that a journal with no events at all
// still round-trips: header plus trailer, zero events.
func TestRecorderEmptyJournal(t *testing.T) {
	var buf bytes.Buffer
	rec := trace.NewRecorder(&buf, trace.LevelPipeline, trace.Meta{Workload: "empty", Mode: core.ModeScalar})
	if err := rec.Close(); err != nil {
		t.Fatal(err)
	}
	r, err := trace.NewReader(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if got := r.Meta(); got.Workload != "empty" || got.Mode != core.ModeScalar {
		t.Fatalf("meta round-trip: %+v", got)
	}
	if _, err := r.Next(); err != io.EOF {
		t.Fatalf("empty journal: got %v, want io.EOF", err)
	}
}
