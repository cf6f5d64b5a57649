package sim_test

import (
	"context"
	"errors"
	"testing"

	"civect/internal/core"
	"civect/internal/workload"
	"civect/sim"
)

func mustLoad(t *testing.T, name string) *sim.Workload {
	t.Helper()
	w, err := sim.Load(name)
	if err != nil {
		t.Fatal(err)
	}
	return w
}

func TestNewValidatesEagerly(t *testing.T) {
	w := mustLoad(t, "gcc")
	cases := []struct {
		name string
		w    *sim.Workload
		opts []sim.Option
	}{
		{"nil workload", nil, nil},
		{"zero ports", w, []sim.Option{sim.WithPorts(0)}},
		{"tiny register file", w, []sim.Option{sim.WithConfigPatch(func(c *sim.Config) { c.PhysRegs = 8 })}},
		{"invalid mode", w, []sim.Option{sim.WithMode(sim.Mode(99))}},
		{"invalid engine", w, []sim.Option{sim.WithEngine(sim.Engine(99))}},
		{"too many strided PCs", w, []sim.Option{sim.WithStridedPCs(64)}},
	}
	for _, tc := range cases {
		if _, err := sim.New(tc.w, tc.opts...); err == nil {
			t.Errorf("%s: New must fail", tc.name)
		}
	}
}

func TestLoadRegistry(t *testing.T) {
	names := sim.Workloads()
	if len(names) != 36 {
		t.Fatalf("Workloads() lists %d names, want 36 (12 per tier)", len(names))
	}
	if names[0] != "bzip2" || names[12] != "bzip2.big" || names[24] != "bzip2.ultra" {
		t.Errorf("unexpected registry order: %v", names)
	}
	if _, err := sim.Load("nosuch"); err == nil {
		t.Error("Load of an unknown workload must fail")
	}
	a := mustLoad(t, "gzip")
	b := mustLoad(t, "gzip")
	if a == b {
		t.Error("Load must hand out distinct wrappers (SetWord isolation)")
	}
}

// TestSetWordIsolation: mutating one loaded workload's image must not
// leak into other loads of the same (cached) benchmark.
func TestSetWordIsolation(t *testing.T) {
	a := mustLoad(t, "eon")
	b := mustLoad(t, "eon")
	runStats := func(w *sim.Workload) sim.Stats {
		s, err := sim.New(w, sim.WithMode(sim.CI), sim.WithInstrBudget(3_000))
		if err != nil {
			t.Fatal(err)
		}
		res, err := s.Run(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		return res.Stats
	}
	ref := runStats(b)
	// Clobber a's branch-steering stream: eon's bias is 0.96 taken, so
	// forcing the first words to 0 changes its branch behaviour.
	for i := 0; i < 512; i++ {
		a.SetWord(0x0010_0000+uint64(i*8), 0)
	}
	mutated := runStats(a)
	if after := runStats(b); after != ref {
		t.Error("untouched workload drifted after sibling SetWord")
	}
	if mutated == ref {
		t.Error("SetWord on the mutated workload had no effect")
	}
}

// TestSessionMatchesCore proves the façade is pure re-routing: a
// session and a directly constructed core processor over the same
// configuration produce bit-identical statistics.
func TestSessionMatchesCore(t *testing.T) {
	w := mustLoad(t, "gcc")
	s, err := sim.New(w,
		sim.WithMode(sim.CI),
		sim.WithRegs(512),
		sim.WithPorts(2),
		sim.WithInstrBudget(15_000),
	)
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}

	cfg := core.DefaultConfig(core.ModeCI)
	cfg.PhysRegs = 512
	cfg.WindowSize = core.WindowFor(512)
	cfg.DL1Ports = 2
	cfg.MaxInstr = 15_000
	wl, err := workload.Spec("gcc")
	if err != nil {
		t.Fatal(err)
	}
	p, err := core.New(cfg, wl.Program, wl.NewMem())
	if err != nil {
		t.Fatal(err)
	}
	want, err := p.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats != *want {
		t.Errorf("session stats diverge from direct core run:\nsim:  %+v\ncore: %+v", res.Stats, *want)
	}
	if res.Partial {
		t.Error("completed run marked partial")
	}
	if res.Schema != sim.BenchSchemaVersion {
		t.Errorf("schema %d, want %d", res.Schema, sim.BenchSchemaVersion)
	}
	if res.IPC != want.IPC() || res.ReuseFraction != want.ReuseFraction() {
		t.Error("embedded bench row disagrees with stats block")
	}
}

// TestStepMatchesRun: driving a session cycle by cycle lands on the
// same statistics as Run, and seals the session at the budget.
func TestStepMatchesRun(t *testing.T) {
	w := mustLoad(t, "gzip")
	opts := []sim.Option{sim.WithMode(sim.CI), sim.WithInstrBudget(8_000)}

	ran, err := sim.New(w, opts...)
	if err != nil {
		t.Fatal(err)
	}
	res, err := ran.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}

	stepped, err := sim.New(w, opts...)
	if err != nil {
		t.Fatal(err)
	}
	total := 0
	for {
		n, err := stepped.Step(64)
		total += n
		if err != nil {
			t.Fatal(err)
		}
		if n < 64 {
			break
		}
	}
	if total == 0 {
		t.Fatal("no cycles stepped")
	}
	got := stepped.Result()
	if got.Partial {
		t.Error("step-driven run that reached its budget is not partial")
	}
	if got.Stats != res.Stats {
		t.Errorf("step-driven stats diverge from Run:\nstep: %+v\nrun:  %+v", got.Stats, res.Stats)
	}
	// The sealed session refuses further driving.
	if _, err := stepped.Step(1); !errors.Is(err, sim.ErrSessionEnded) {
		t.Errorf("Step on a completed session: err = %v, want ErrSessionEnded", err)
	}
	if _, err := ran.Run(context.Background()); !errors.Is(err, sim.ErrSessionEnded) {
		t.Errorf("Run on a completed session: err = %v, want ErrSessionEnded", err)
	}
}

// TestWithRegsWindowRule pins the paper's reorder-buffer sizing rule in
// the option itself.
func TestWithRegsWindowRule(t *testing.T) {
	w := mustLoad(t, "gcc")
	for _, tc := range []struct{ regs, window int }{
		{128, 256}, {256, 256}, {512, 512}, {768, 768}, {0, 1024},
	} {
		s, err := sim.New(w, sim.WithRegs(tc.regs))
		if err != nil {
			t.Fatal(err)
		}
		if got := s.Config().WindowSize; got != tc.window {
			t.Errorf("WithRegs(%d): window %d, want %d", tc.regs, got, tc.window)
		}
	}
}

// TestEngineRoundTrip mirrors the mode round-trip for the engine enum.
func TestEngineRoundTrip(t *testing.T) {
	for _, e := range sim.Engines() {
		got, err := sim.ParseEngine(e.String())
		if err != nil || got != e {
			t.Errorf("ParseEngine(%q) = %v, %v", e.String(), got, err)
		}
	}
	if _, err := sim.ParseEngine("warp"); err == nil {
		t.Error("unknown engine must not parse")
	}
}

// TestEnginesBitIdentical: the engine option only changes wall speed,
// never statistics.
func TestEnginesBitIdentical(t *testing.T) {
	w := mustLoad(t, "gcc")
	var ref *sim.Result
	for _, e := range sim.Engines() {
		s, err := sim.New(w, sim.WithMode(sim.CI), sim.WithEngine(e), sim.WithInstrBudget(6_000))
		if err != nil {
			t.Fatal(err)
		}
		res, err := s.Run(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		if ref == nil {
			ref = res
			continue
		}
		if res.Stats != ref.Stats {
			t.Errorf("engine %v stats diverge from %v", e, sim.Engines()[0])
		}
	}
}
