package harness

import (
	"strings"
	"testing"

	"civect/internal/core"
	"civect/sim"
)

// tinyOptions keeps harness tests fast: a few benchmarks, small budget.
func tinyOptions() Options {
	return Options{
		MaxInstr: 15_000,
		Benches:  []string{"gcc", "gzip", "eon"},
	}
}

func TestRunMemoization(t *testing.T) {
	h := New(tinyOptions())
	spec := RunSpec{Bench: "gcc", Mode: core.ModeScalar, Ports: 1, Regs: 256}
	a, err := h.Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	b, err := h.Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Error("identical specs must hit the cache (same *Stats)")
	}
}

func TestRunDefaults(t *testing.T) {
	h := New(tinyOptions())
	st, err := h.Run(RunSpec{Bench: "gzip", Mode: core.ModeWideBus})
	if err != nil {
		t.Fatal(err)
	}
	if st.Committed < 15_000 {
		t.Errorf("committed %d, want >= budget", st.Committed)
	}
}

func TestRunUnknownBench(t *testing.T) {
	h := New(tinyOptions())
	if _, err := h.Run(RunSpec{Bench: "nosuch", Mode: core.ModeScalar}); err == nil {
		t.Error("expected error for unknown benchmark")
	}
}

func TestRunAllParallel(t *testing.T) {
	h := New(tinyOptions())
	res, err := h.RunAll(RunSpec{Mode: core.ModeCI, Ports: 1, Regs: 256})
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 3 {
		t.Fatalf("got %d results, want 3", len(res))
	}
	for name, st := range res {
		if st.IPC() <= 0 {
			t.Errorf("%s: IPC %v", name, st.IPC())
		}
	}
}

func TestWorkersOneSerializes(t *testing.T) {
	opt := tinyOptions()
	opt.Workers = 1
	h := New(opt)
	// Fan out over benchmarks and two concurrent experiments: plenty of
	// parallel demand, all of which the semaphore must serialize.
	if _, err := h.RunAll(RunSpec{Mode: core.ModeCI, Ports: 1, Regs: 256}); err != nil {
		t.Fatal(err)
	}
	fig5, _ := ExperimentByID("fig5")
	fig8, _ := ExperimentByID("fig8")
	if _, err := RunExperiments(h, []Experiment{fig5, fig8}); err != nil {
		t.Fatal(err)
	}
	if got := h.MaxConcurrent(); got != 1 {
		t.Fatalf("Options.Workers=1 must serialize simulations; observed %d in flight", got)
	}
}

func TestWorkersBoundRespected(t *testing.T) {
	opt := tinyOptions()
	opt.Workers = 2
	h := New(opt)
	if _, err := h.RunAll(RunSpec{Mode: core.ModeScalar, Ports: 1, Regs: 256}); err != nil {
		t.Fatal(err)
	}
	if got := h.MaxConcurrent(); got > 2 {
		t.Fatalf("Options.Workers=2 exceeded: observed %d in flight", got)
	}
}

func TestRunExperimentsMatchesSerial(t *testing.T) {
	par := New(tinyOptions())
	fig5, _ := ExperimentByID("fig5")
	cost, _ := ExperimentByID("cost")
	tables, err := RunExperiments(par, []Experiment{cost, fig5})
	if err != nil {
		t.Fatal(err)
	}
	if len(tables) != 2 || tables[0].ID != "cost" || tables[1].ID != "fig5" {
		t.Fatalf("tables out of order: %+v", tables)
	}
	ser := New(tinyOptions())
	for i, e := range []Experiment{cost, fig5} {
		want, err := e.Run(ser)
		if err != nil {
			t.Fatal(err)
		}
		if got := tables[i].String(); got != want.String() {
			t.Errorf("%s: parallel table differs from serial:\n%s\n---\n%s", e.ID, got, want)
		}
	}
}

func TestHarmonicMean(t *testing.T) {
	a := &core.Stats{Cycles: 100, Committed: 100} // IPC 1
	b := &core.Stats{Cycles: 100, Committed: 300} // IPC 3
	hm := HarmonicMeanIPC(map[string]*core.Stats{"a": a, "b": b})
	if hm < 1.49 || hm > 1.51 { // 2/(1/1+1/3) = 1.5
		t.Errorf("harmonic mean = %v, want 1.5", hm)
	}
	if HarmonicMeanIPC(nil) != 0 {
		t.Error("empty set -> 0")
	}
	if HarmonicMeanIPC(map[string]*core.Stats{"z": {}}) != 0 {
		t.Error("zero IPC member -> 0")
	}
}

func TestExperimentRegistry(t *testing.T) {
	exps := Experiments()
	wantIDs := []string{"cost", "fig4", "fig5", "fig8", "fig9", "fig10",
		"fig11", "fig12", "fig13", "fig14", "regs", "stores", "ablate"}
	if len(exps) != len(wantIDs) {
		t.Fatalf("got %d experiments, want %d", len(exps), len(wantIDs))
	}
	for i, id := range wantIDs {
		if exps[i].ID != id {
			t.Errorf("experiment %d = %s, want %s", i, exps[i].ID, id)
		}
		if _, ok := ExperimentByID(id); !ok {
			t.Errorf("ExperimentByID(%s) not found", id)
		}
	}
	if _, ok := ExperimentByID("nope"); ok {
		t.Error("unknown id must not resolve")
	}
}

func TestCostExperiment(t *testing.T) {
	h := New(tinyOptions())
	e, _ := ExperimentByID("cost")
	tab, err := e.Run(h)
	if err != nil {
		t.Fatal(err)
	}
	s := tab.String()
	if !strings.Contains(s, "11520") || !strings.Contains(s, "24576") {
		t.Errorf("cost table missing paper numbers:\n%s", s)
	}
}

// The shape assertions the reproduction stands on (small budget, so the
// thresholds are lenient; EXPERIMENTS.md records full-budget numbers).
func TestFig9Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation sweep")
	}
	h := New(tinyOptions())
	scal, err := h.RunAll(RunSpec{Mode: core.ModeScalar, Ports: 1, Regs: 512})
	if err != nil {
		t.Fatal(err)
	}
	wb, err := h.RunAll(RunSpec{Mode: core.ModeWideBus, Ports: 1, Regs: 512})
	if err != nil {
		t.Fatal(err)
	}
	ciRes, err := h.RunAll(RunSpec{Mode: core.ModeCI, Ports: 1, Regs: 512})
	if err != nil {
		t.Fatal(err)
	}
	hmScal, hmWB, hmCI := HarmonicMeanIPC(scal), HarmonicMeanIPC(wb), HarmonicMeanIPC(ciRes)
	if hmWB < hmScal*0.98 {
		t.Errorf("wide bus should not lose to scalar: wb=%.3f scal=%.3f", hmWB, hmScal)
	}
	if hmCI <= hmWB {
		t.Errorf("ci must beat wb at 512 regs: ci=%.3f wb=%.3f", hmCI, hmWB)
	}
}

func TestFig5Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation sweep")
	}
	h := New(tinyOptions())
	res, err := h.RunAll(RunSpec{Mode: core.ModeCI, Ports: 1, Regs: 256})
	if err != nil {
		t.Fatal(err)
	}
	// On mispredict-rich benchmarks the mechanism must select and reuse
	// for a large fraction of episodes.
	st := res["gcc"]
	if st.Mispredicts == 0 || st.EpisodesReused == 0 {
		t.Errorf("gcc: mispredicts=%d episodes reused=%d", st.Mispredicts, st.EpisodesReused)
	}
	if st.EpisodesSelected < st.EpisodesReused {
		t.Error("selected episodes must include reused episodes")
	}
}

func TestTableRendering(t *testing.T) {
	tab := &Table{ID: "x", Title: "t", Header: []string{"a", "bb"}}
	tab.AddRow("1", "2")
	tab.AddRow("333", "4")
	tab.Notes = append(tab.Notes, "hello")
	s := tab.String()
	for _, want := range []string{"== x: t ==", "333", "note: hello"} {
		if !strings.Contains(s, want) {
			t.Errorf("table output missing %q:\n%s", want, s)
		}
	}
}

func TestWindowRule(t *testing.T) {
	// specOptions must apply the paper's window sizing rule; resolve
	// the options through a real session so the test pins what actually
	// runs.
	w, err := sim.Load("gcc")
	if err != nil {
		t.Fatal(err)
	}
	configFor := func(s RunSpec) core.Config {
		sess, err := sim.New(w, specOptions(s)...)
		if err != nil {
			t.Fatal(err)
		}
		return sess.Config()
	}
	cfg := configFor(RunSpec{Bench: "gcc", Mode: core.ModeCI, Ports: 1, Regs: 768})
	if cfg.WindowSize != 768 {
		t.Errorf("window = %d, want 768", cfg.WindowSize)
	}
	cfg = configFor(RunSpec{Bench: "gcc", Mode: core.ModeCI, Ports: 2, Regs: 128})
	if cfg.WindowSize != 256 || cfg.DL1Ports != 2 {
		t.Errorf("window=%d ports=%d", cfg.WindowSize, cfg.DL1Ports)
	}
}

// TestPlanMatchesExecution closes the data-dependent-spec hazard at
// its root: dry-running the full experiment registry against a
// recording planner must enumerate exactly the specs the real harness
// is asked to simulate. If an experiment ever made its spec choices
// depend on simulation results, the two sets would diverge.
func TestPlanMatchesExecution(t *testing.T) {
	opt := Options{MaxInstr: 4000, Benches: []string{"gcc", "gzip"}}

	planner := NewPlanner(opt)
	if _, err := RunExperiments(planner, Experiments()); err != nil {
		t.Fatal(err)
	}
	planned := planner.PlannedSpecs()

	real := New(opt)
	if _, err := RunExperiments(real, Experiments()); err != nil {
		t.Fatal(err)
	}
	executed := real.ExecutedSpecs()

	if len(planned) != len(executed) {
		t.Fatalf("plan has %d specs, execution requested %d", len(planned), len(executed))
	}
	for i := range planned {
		if planned[i] != executed[i] {
			t.Errorf("spec %d: planned %s, executed %s", i, planned[i].Key(), executed[i].Key())
		}
	}
	if extra := real.UnusedPrimed(); len(extra) > 0 {
		t.Errorf("real harness reports %d unused cached specs", len(extra))
	}
}
