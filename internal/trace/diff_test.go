package trace_test

import (
	"bytes"
	"io"
	"testing"

	"civect/internal/core"
	"civect/internal/trace"
	"civect/internal/workload"
)

// diffJournals diffs two journals at the default options.
func diffJournals(t *testing.T, a, b []byte) *trace.DiffResult {
	t.Helper()
	ra, err := trace.NewReader(bytes.NewReader(a))
	if err != nil {
		t.Fatal(err)
	}
	rb, err := trace.NewReader(bytes.NewReader(b))
	if err != nil {
		t.Fatal(err)
	}
	res, err := trace.Diff(ra, rb, trace.DiffOptions{})
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// events decodes a whole journal.
func events(t *testing.T, journal []byte) (trace.Meta, trace.Level, []trace.Event) {
	t.Helper()
	r, err := trace.NewReader(bytes.NewReader(journal))
	if err != nil {
		t.Fatal(err)
	}
	var evs []trace.Event
	for {
		e, err := r.Next()
		if err == io.EOF {
			return r.Meta(), r.Level(), evs
		}
		if err != nil {
			t.Fatal(err)
		}
		evs = append(evs, e)
	}
}

// encode writes events as a journal through a Recorder, the way the
// pipeline's tracer taps would.
func encode(t *testing.T, meta trace.Meta, level trace.Level, evs []trace.Event) []byte {
	t.Helper()
	var buf bytes.Buffer
	rec := trace.NewRecorder(&buf, level, meta)
	for _, e := range evs {
		switch e.Kind {
		case trace.KindFetch:
			rec.OnTraceFetch(e.Cycle, e.PC)
		case trace.KindRename:
			rec.OnTraceRename(e.Cycle, e.Seq, e.PC)
		case trace.KindIssue:
			rec.OnTraceIssue(e.Cycle, e.Seq, e.PC)
		case trace.KindCommit:
			rec.OnTraceCommit(e.Cycle, e.Seq, e.PC, e.Reused, e.Halt)
		case trace.KindSquash:
			rec.OnTraceSquash(e.Cycle, e.Seq, int(e.N))
		case trace.KindJump:
			rec.OnTraceJump(e.Cycle, e.N)
		default:
			t.Fatalf("cannot re-encode %v", e)
		}
	}
	if err := rec.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestDiffLocalizesSwappedIssues is Diff's ground-truth positive
// control. A real pipeline journal (vpr, ci, 15k instructions) is
// decoded and re-encoded with two issue events of one cycle swapped; Diff must report exactly that cycle and the first swapped
// event's index within it, and the same answer on repeated runs. The
// unmodified re-encoding must reproduce the journal's bytes, so the
// only difference Diff can see is the injected one.
func TestDiffLocalizesSwappedIssues(t *testing.T) {
	wl, err := workload.Spec("vpr")
	if err != nil {
		t.Fatal(err)
	}
	cfg := core.DefaultConfig(core.ModeCI)
	cfg.MaxInstr = 15_000

	inject := func() (good, bad []byte, cycle uint64, index int) {
		good, _ = record(t, wl, cfg, trace.LevelPipeline)
		meta, level, evs := events(t, good)
		if !bytes.Equal(encode(t, meta, level, evs), good) {
			t.Fatal("re-encoding the decoded journal changed its bytes")
		}
		// Swap the first two issue events past a cycle's first event,
		// in the first cycle past 2000 that has them: the swap lands
		// mid-run and mid-group, so both cycle and index are tested.
		start, first := 0, -1
		for i, e := range evs {
			if i == 0 || e.Cycle != evs[i-1].Cycle {
				start, first = i, -1
			}
			if e.Cycle < 2000 || e.Kind != trace.KindIssue || i == start {
				continue
			}
			if first < 0 {
				first = i
				continue
			}
			mutated := append([]trace.Event(nil), evs...)
			mutated[first], mutated[i] = mutated[i], mutated[first]
			return good, encode(t, meta, level, mutated), e.Cycle, first - start
		}
		t.Fatal("no cycle past 2000 issues two instructions")
		return
	}

	good, bad, cycle, index := inject()
	res := diffJournals(t, good, bad)
	if res.Identical() {
		t.Fatal("Diff found no divergence in a journal with two issues swapped")
	}
	if d := res.Divergence; d.Cycle != cycle || d.Index != index {
		t.Fatalf("Diff reports cycle %d event %d (%s); the swap is at cycle %d event %d",
			d.Cycle, d.Index, d.Reason, cycle, index)
	}
	t.Logf("swap localized: %s", res.Divergence.Reason)
	for run := 0; run < 2; run++ {
		g, b, c, i := inject()
		again := diffJournals(t, g, b)
		if c != cycle || i != index || again.Identical() ||
			again.Divergence.Cycle != cycle || again.Divergence.Index != index ||
			again.Divergence.Reason != res.Divergence.Reason {
			t.Fatalf("run %d: divergence moved: first %+v, now %+v", run, res.Divergence, again.Divergence)
		}
	}
}
