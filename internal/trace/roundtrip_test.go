package trace_test

import (
	"bytes"
	"fmt"
	"io"
	"testing"

	"civect/internal/core"
	"civect/internal/trace"
	"civect/internal/workload"
)

// engines names the three timing engines.
var engines = []struct {
	name   string
	engine core.Engine
}{
	{"fast-forward", core.EngineFastForward},
	{"event", core.EngineEvent},
	{"naive", core.EngineNaive},
}

// engineConfigs returns base on each engine, in engines order. It fails
// if two come out equal: the test-only setter did not take, and a
// cross-engine test would compare one engine with itself.
func engineConfigs(t testing.TB, base core.Config) []core.Config {
	t.Helper()
	cfgs := make([]core.Config, len(engines))
	for i, e := range engines {
		cfgs[i] = base
		cfgs[i].SetEngineForTest(e.engine)
		for j := range i {
			if cfgs[j] == cfgs[i] {
				t.Fatalf("engines %s and %s give the same Config: the test would compare one engine with itself",
					engines[j].name, e.name)
			}
		}
	}
	return cfgs
}

// record runs b under cfg with a journal recorder attached and returns
// the journal bytes and the final statistics.
func record(t testing.TB, b *workload.Benchmark, cfg core.Config, level trace.Level) ([]byte, *core.Stats) {
	t.Helper()
	var buf bytes.Buffer
	rec := trace.NewRecorder(&buf, level, trace.Meta{Workload: "test", Mode: cfg.Mode})
	p, err := core.New(cfg, b.Program, b.NewMem())
	if err != nil {
		t.Fatal(err)
	}
	p.SetTracer(rec)
	st, err := p.Run()
	if err != nil {
		t.Fatal(err)
	}
	if err := rec.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes(), st
}

// replay parses and strictly replays a journal.
func replay(t *testing.T, journal []byte) *trace.Summary {
	t.Helper()
	r, err := trace.NewReader(bytes.NewReader(journal))
	if err != nil {
		t.Fatal(err)
	}
	s, err := trace.Replay(r)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// TestRoundTripRandomPrograms is the format's property test: random
// programs, recorded at the default pipeline level on all three
// engines, must produce byte-identical journals that replay strictly
// (rename monotonicity, ROB-FIFO commits, exact squash accounting) and
// reproduce the run's committed-instruction statistics exactly.
func TestRoundTripRandomPrograms(t *testing.T) {
	for seed := int64(0); seed < 10; seed++ {
		wl := workload.Random(seed)
		for _, mode := range []core.Mode{core.ModeCI, core.ModeVect} {
			var ref []byte
			var refStats *core.Stats
			for i, cfg := range engineConfigs(t, core.DefaultConfig(mode)) {
				eng := engines[i]
				journal, st := record(t, wl, cfg, trace.LevelPipeline)
				if ref == nil {
					ref, refStats = journal, st
				} else {
					if *st != *refStats {
						t.Fatalf("seed %d %v %s: stats diverge from %s", seed, mode, eng.name, engines[0].name)
					}
					if !bytes.Equal(journal, ref) {
						t.Fatalf("seed %d %v: %s journal differs from %s (%d vs %d bytes)",
							seed, mode, eng.name, engines[0].name, len(journal), len(ref))
					}
				}
			}
			s := replay(t, ref)
			if s.Machine.Committed != refStats.Committed {
				t.Fatalf("seed %d %v: replay committed %d, run %d", seed, mode, s.Machine.Committed, refStats.Committed)
			}
			if s.Machine.Reused != refStats.CommittedReuse {
				t.Fatalf("seed %d %v: replay reused %d, run %d", seed, mode, s.Machine.Reused, refStats.CommittedReuse)
			}
			if s.Machine.Renamed != refStats.Fetched {
				t.Fatalf("seed %d %v: replay renamed %d, run renamed %d", seed, mode, s.Machine.Renamed, refStats.Fetched)
			}
			if !s.Machine.Halted {
				t.Fatalf("seed %d %v: replay did not see the halt commit", seed, mode)
			}
			if s.LastCycle > refStats.Cycles {
				t.Fatalf("seed %d %v: replay last cycle %d beyond run's %d", seed, mode, s.LastCycle, refStats.Cycles)
			}
		}
	}
}

// TestCrossEngineJournalVPR records vpr in ci mode for 15k committed
// instructions at the pipeline level on all three engines: the
// journals must be byte-identical and Diff must find no divergence.
// It is the check CI's engine-matrix job once made with `citrace
// record -engine` and `cmp`.
func TestCrossEngineJournalVPR(t *testing.T) {
	wl, err := workload.Spec("vpr")
	if err != nil {
		t.Fatal(err)
	}
	base := core.DefaultConfig(core.ModeCI)
	base.MaxInstr = 15_000
	var ref []byte
	for i, cfg := range engineConfigs(t, base) {
		journal, _ := record(t, wl, cfg, trace.LevelPipeline)
		if ref == nil {
			ref = journal
			continue
		}
		if !bytes.Equal(journal, ref) {
			t.Errorf("%s journal differs from %s (%d vs %d bytes)",
				engines[i].name, engines[0].name, len(journal), len(ref))
		}
		if res := diffJournals(t, ref, journal); !res.Identical() {
			t.Errorf("%s vs %s: %s", engines[0].name, engines[i].name, res.Divergence.Reason)
		}
	}
}

// TestJournalDeterminism re-records the same configuration and demands
// byte equality: no timestamps, map-order or other nondeterminism may
// leak into a journal.
func TestJournalDeterminism(t *testing.T) {
	wl, err := workload.Spec("gcc")
	if err != nil {
		t.Fatal(err)
	}
	cfg := core.DefaultConfig(core.ModeCI)
	cfg.MaxInstr = 10_000
	for _, level := range []trace.Level{trace.LevelCommits, trace.LevelPipeline, trace.LevelFull} {
		a, _ := record(t, wl, cfg, level)
		b, _ := record(t, wl, cfg, level)
		if !bytes.Equal(a, b) {
			t.Fatalf("level %v: identical runs produced different journals", level)
		}
	}
}

// TestLevelNesting checks the level contract: a commits-level journal
// holds exactly the commit events of the pipeline-level one, and a
// full-level journal adds only jump records on top of pipeline.
func TestLevelNesting(t *testing.T) {
	wl, err := workload.Spec("mcf")
	if err != nil {
		t.Fatal(err)
	}
	cfg := core.DefaultConfig(core.ModeCI)
	cfg.MaxInstr = 10_000
	journals := map[trace.Level][]byte{}
	for _, level := range []trace.Level{trace.LevelCommits, trace.LevelPipeline, trace.LevelFull} {
		journals[level], _ = record(t, wl, cfg, level)
	}
	events := func(j []byte) []trace.Event {
		r, err := trace.NewReader(bytes.NewReader(j))
		if err != nil {
			t.Fatal(err)
		}
		var evs []trace.Event
		for {
			e, err := r.Next()
			if err == io.EOF {
				return evs
			}
			if err != nil {
				t.Fatal(err)
			}
			evs = append(evs, e)
		}
	}
	pipeline := events(journals[trace.LevelPipeline])
	var commitsOnly, noJumps []trace.Event
	for _, e := range pipeline {
		if e.Kind == trace.KindCommit {
			commitsOnly = append(commitsOnly, e)
		}
	}
	full := events(journals[trace.LevelFull])
	jumps := 0
	for _, e := range full {
		if e.Kind == trace.KindJump {
			jumps++
			continue
		}
		noJumps = append(noJumps, e)
	}
	commits := events(journals[trace.LevelCommits])
	if fmt.Sprint(commits) != fmt.Sprint(commitsOnly) {
		t.Fatalf("commits-level journal is not the commit subset of pipeline (%d vs %d events)",
			len(commits), len(commitsOnly))
	}
	if fmt.Sprint(noJumps) != fmt.Sprint(pipeline) {
		t.Fatalf("full-level journal minus jumps differs from pipeline (%d vs %d events)",
			len(noJumps), len(pipeline))
	}
	if jumps == 0 {
		t.Fatal("mcf on the fast-forward engine recorded no jump events at LevelFull")
	}
}

// TestDiffEngineEvents checks Diff's engine-event handling on
// LevelFull journals: the fast-forward and event engines agree on
// every pipeline event (default comparison) but differ once jump
// records are included.
func TestDiffEngineEvents(t *testing.T) {
	wl, err := workload.Spec("mcf")
	if err != nil {
		t.Fatal(err)
	}
	cfg := core.DefaultConfig(core.ModeCI)
	cfg.MaxInstr = 10_000
	cfgs := engineConfigs(t, cfg)
	ff, _ := record(t, wl, cfgs[0], trace.LevelFull)
	ev, _ := record(t, wl, cfgs[1], trace.LevelFull)

	open := func(j []byte) *trace.Reader {
		r, err := trace.NewReader(bytes.NewReader(j))
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	res, err := trace.Diff(open(ff), open(ev), trace.DiffOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Identical() {
		t.Fatalf("pipeline events differ across engines: %s", res.Divergence.Reason)
	}
	res, err = trace.Diff(open(ff), open(ev), trace.DiffOptions{EngineEvents: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.Identical() {
		t.Fatal("engine-event diff of fast-forward vs event found no jump divergence")
	}
}

// TestDiffSelfIdentical diffs a journal against an independent
// recording of the same configuration.
func TestDiffSelfIdentical(t *testing.T) {
	wl := workload.Random(42)
	cfg := core.DefaultConfig(core.ModeCI)
	a, _ := record(t, wl, cfg, trace.LevelPipeline)
	b, _ := record(t, wl, cfg, trace.LevelPipeline)
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
	if !res.Identical() {
		t.Fatalf("self-diff diverged: %s", res.Divergence.Reason)
	}
	if res.EventsA == 0 || res.EventsA != res.EventsB {
		t.Fatalf("self-diff event counts: A=%d B=%d", res.EventsA, res.EventsB)
	}
}

// TestDiffRefusesMismatchedJournals checks the guard rails: different
// levels or different runs are errors, not divergences.
func TestDiffRefusesMismatchedJournals(t *testing.T) {
	wl := workload.Random(1)
	cfg := core.DefaultConfig(core.ModeCI)
	pipe, _ := record(t, wl, cfg, trace.LevelPipeline)
	commits, _ := record(t, wl, cfg, trace.LevelCommits)
	ra, err := trace.NewReader(bytes.NewReader(pipe))
	if err != nil {
		t.Fatal(err)
	}
	rb, err := trace.NewReader(bytes.NewReader(commits))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := trace.Diff(ra, rb, trace.DiffOptions{}); err == nil {
		t.Fatal("diff of different levels did not error")
	}
}

// TestDump smoke-tests the text rendering and its cycle filtering.
func TestDump(t *testing.T) {
	wl := workload.Random(7)
	cfg := core.DefaultConfig(core.ModeCI)
	journal, _ := record(t, wl, cfg, trace.LevelPipeline)
	r, err := trace.NewReader(bytes.NewReader(journal))
	if err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	if err := trace.Dump(&out, r, 0, 0); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"civt v1 level=pipeline", "cycle ", "rename seq=1 ", "commit seq="} {
		if !bytes.Contains(out.Bytes(), []byte(want)) {
			t.Fatalf("dump output missing %q:\n%s", want, out.String()[:min(600, out.Len())])
		}
	}
	r, err = trace.NewReader(bytes.NewReader(journal))
	if err != nil {
		t.Fatal(err)
	}
	out.Reset()
	if err := trace.Dump(&out, r, 10, 20); err != nil {
		t.Fatal(err)
	}
	if bytes.Contains(out.Bytes(), []byte("cycle 9\n")) || bytes.Contains(out.Bytes(), []byte("cycle 21\n")) {
		t.Fatalf("dump window [10,20] leaked cycles outside it:\n%s", out.String())
	}
}
