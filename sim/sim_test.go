package sim_test

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"slices"
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
		{"invalid engine", w, []sim.Option{withEngine(99)}},
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
	if res.Schema != 2 {
		t.Errorf("schema %d, want 2", res.Schema)
	}
	if res.IPC != want.IPC() || res.ReuseFraction != want.ReuseFraction() {
		t.Error("summary row disagrees with stats block")
	}
	blob, err := json.Marshal(res)
	if err != nil {
		t.Fatal(err)
	}
	wantKeys := []string{"mode", "bench", "sim_instrs_per_run", "ns_per_op", "sim_instrs_per_sec",
		"ipc", "reuse_fraction", "schema", "stats"}
	if keys := topLevelKeys(t, blob); !slices.Equal(keys, wantKeys) {
		t.Errorf("Result JSON keys\n got %q\nwant %q", keys, wantKeys)
	}
}

// topLevelKeys lists a JSON object's keys in document order.
func topLevelKeys(t *testing.T, blob []byte) []string {
	t.Helper()
	dec := json.NewDecoder(bytes.NewReader(blob))
	if _, err := dec.Token(); err != nil { // {
		t.Fatal(err)
	}
	var keys []string
	for dec.More() {
		k, err := dec.Token()
		if err != nil {
			t.Fatal(err)
		}
		keys = append(keys, k.(string))
		var skip json.RawMessage
		if err := dec.Decode(&skip); err != nil {
			t.Fatal(err)
		}
	}
	return keys
}

// TestIssueSliceGolden pins a steady-state slice of the ci machine:
// 50k cycles of a long gcc run after 20k cycles of warm-up, past the
// table-churn phase. It exercises the scheduler hot loop that
// BenchmarkIssueStage times, so the loop's semantics are pinned too.
func TestIssueSliceGolden(t *testing.T) {
	w, err := sim.LoadWithIters("gcc", 50_000_000)
	if err != nil {
		t.Fatal(err)
	}
	s, err := sim.New(w, sim.WithMode(sim.CI))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Step(20_000); err != nil {
		t.Fatal(err)
	}
	st0 := s.Stats()
	if _, err := s.Step(50_000); err != nil {
		t.Fatal(err)
	}
	st1 := s.Stats()
	committed := st1.Committed - st0.Committed
	reused := st1.CommittedReuse - st0.CommittedReuse
	ipc := float64(committed) / 50_000
	reuse := float64(reused) / float64(committed)
	if committed != 163847 || ipc != 3.27694 || reuse != 0.26444182682624645 {
		t.Errorf("issue slice: committed %d, IPC %v, reuse %v; want 163847, 3.27694, 0.26444182682624645",
			committed, ipc, reuse)
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

// engines names the three timing engines. The façade selects none of
// them; tests reach the references through WithConfigPatch.
var engines = []struct {
	name   string
	engine core.Engine
}{
	{"fast-forward", core.EngineFastForward},
	{"event", core.EngineEvent},
	{"naive", core.EngineNaive},
}

// withEngine selects a timing engine through the test-only setter.
func withEngine(e core.Engine) sim.Option {
	return sim.WithConfigPatch(func(c *sim.Config) { c.SetEngineForTest(e) })
}

// TestEnginesBitIdentical: the engine only changes wall speed, never
// statistics. Each engine must also give its session a configuration
// of its own, or the test would compare one engine with itself.
func TestEnginesBitIdentical(t *testing.T) {
	w := mustLoad(t, "gcc")
	var ref *sim.Result
	seen := map[sim.Config]string{}
	for _, e := range engines {
		s, err := sim.New(w, sim.WithMode(sim.CI), withEngine(e.engine), sim.WithInstrBudget(6_000))
		if err != nil {
			t.Fatal(err)
		}
		if prev, ok := seen[s.Config()]; ok {
			t.Fatalf("engines %s and %s built the same configuration", prev, e.name)
		}
		seen[s.Config()] = e.name
		res, err := s.Run(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		if ref == nil {
			ref = res
			continue
		}
		if res.Stats != ref.Stats {
			t.Errorf("engine %s stats diverge from %s", e.name, engines[0].name)
		}
	}
}
