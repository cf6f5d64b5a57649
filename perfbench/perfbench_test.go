package main

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"os"
	"runtime/pprof"
	"testing"
	"time"

	"civect/internal/core"
	"civect/internal/workload"
)

// smallDetail is a two-cell detailed workload for tests.
func smallDetail() workloadDef {
	return workloadDef{
		name:  "test-detail",
		setup: detailSetup([]string{"gcc"}, []core.Mode{core.ModeScalar, core.ModeCI}),
	}
}

func setUp(t *testing.T, r *run, w workloadDef) instance {
	t.Helper()
	inst, err := w.setup(context.Background(), r, 0)
	if err != nil {
		t.Fatal(err)
	}
	return inst
}

// A corrupted reference statistic must fail the next op of that cell,
// and the failure must be counted rather than abort the run.
func TestCorruptedStatsCounted(t *testing.T) {
	r := newRun(1, 0, false)
	inst := setUp(t, r, smallDetail())
	ctx := context.Background()
	for i := 0; i < 2; i++ {
		_, err := inst.op(ctx, r, 1, i, 0)
		r.check.count("op", err)
	}
	if r.check.failed != 0 {
		t.Fatalf("clean ops failed: %v", r.check.failures)
	}
	st := r.check.stats[1]
	st.CommittedReuse++
	r.check.stats[1] = st
	_, err := inst.op(ctx, r, 1, 2, 0)
	r.check.count("op", err)
	if r.check.attempted != 3 || r.check.failed != 1 {
		t.Fatalf("attempted %d failed %d, want 3 and 1 (err %v)", r.check.attempted, r.check.failed, err)
	}
}

// A corrupted committed register must disagree with the emulator.
func TestCorruptedRegisterCaught(t *testing.T) {
	b, err := workload.Spec("gcc")
	if err != nil {
		t.Fatal(err)
	}
	cfg := core.DefaultConfig(core.ModeCI)
	cfg.MaxInstr = 5_000
	p, err := core.New(cfg, b.Program, b.NewMem())
	if err != nil {
		t.Fatal(err)
	}
	st, err := p.RunContext(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	got := archOf(p, st)
	if _, _, err := checkArch(b.Program, b.NewMem(), got); err != nil {
		t.Fatalf("clean run disagrees with the emulator: %v", err)
	}
	got.regs[5] ^= 1
	if _, _, err := checkArch(b.Program, b.NewMem(), got); err == nil {
		t.Fatal("corrupted register passed the emulator check")
	}
}

func TestDigestMismatchCounted(t *testing.T) {
	var c checker
	c.count("sweep 0", c.sameDigest(0, 42))
	c.count("sweep 1", c.sameDigest(0, 42))
	c.count("sweep 2", c.sameDigest(0, 43))
	if c.attempted != 3 || c.failed != 1 {
		t.Fatalf("attempted %d failed %d, want 3 and 1", c.attempted, c.failed)
	}
}

// The seed reseeds data only: the program text hashes the same while
// the simulated IPC changes.
func TestSeedChangesDataNotProgram(t *testing.T) {
	ipc := func(seed int64) (uint64, float64) {
		r := newRun(seed, 0, false)
		b, err := r.generate("gcc", 0, 0)
		if err != nil {
			t.Fatal(err)
		}
		cfg := core.DefaultConfig(core.ModeCI)
		cfg.MaxInstr = 20_000
		p, err := core.New(cfg, b.Program, b.NewMem())
		if err != nil {
			t.Fatal(err)
		}
		st, err := p.RunContext(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		return core.HashProgram(b.Program), st.IPC()
	}
	h0, ipc0 := ipc(0)
	h1, ipc1 := ipc(987654321)
	if h0 != h1 {
		t.Errorf("program hash changed with the seed: %016x vs %016x", h0, h1)
	}
	if ipc0 == ipc1 {
		t.Errorf("ipc %v did not change with the seed", ipc0)
	}
	reg, err := workload.Spec("gcc")
	if err != nil {
		t.Fatal(err)
	}
	b0, _ := newRun(0, 0, false).generate("gcc", 0, 0)
	if b0.NewMem().Checksum() != reg.NewMem().Checksum() {
		t.Error("seed 0 does not reproduce the registry image")
	}
}

// A traced run of a small workload reports every per-layer metric, and
// the profile attribution covers the simulation samples.
func TestTracedRunReportsPerLayer(t *testing.T) {
	if testing.Short() {
		t.Skip("profiles a short simulation")
	}
	r := newRun(2, 300*time.Millisecond, true)
	// Make sure no profile is already running (go test -cpuprofile).
	if err := pprof.StartCPUProfile(&bytes.Buffer{}); err != nil {
		t.Skip("CPU profiler busy:", err)
	}
	pprof.StopCPUProfile()
	rep, err := r.execute(context.Background(), smallDetail())
	if err != nil {
		t.Fatal(err)
	}
	if r.check.failed != 0 {
		t.Fatalf("failures: %v", r.check.failures)
	}
	for _, n := range append(append([]string{}, endToEnd...), perLayer...) {
		m, ok := rep.Metrics[n]
		if !ok || math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			t.Errorf("metric %s = %v (present %v)", n, m.Value, ok)
		}
	}
	if c := rep.Metrics["trace.share_coverage"].Value; c < 0.9 {
		t.Errorf("layer shares cover %.2f of simulation samples, want >= 0.9 (%+v)", c, r.layers)
	}
	if rep.Metrics["core.ff_jumps_pki"].Value == 0 {
		t.Error("observer counted no fast-forward jumps")
	}
}

func TestCellMedian(t *testing.T) {
	var s []opSample
	for i, d := range []time.Duration{1, 3, 2, 100, 400, 300} {
		s = append(s, opSample{cell: i / 3, dur: d * time.Millisecond})
	}
	if got, want := cellMedianMS(s), math.Sqrt(2*300); math.Abs(got-want) > 1e-9 {
		t.Errorf("cellMedianMS = %v, want %v", got, want)
	}
	if got := quantile([]float64{1, 2, 3, 4, 5}, 0.9); math.Abs(got-4.6) > 1e-9 {
		t.Errorf("p90 = %v, want 4.6", got)
	}
}

// BENCHMARK.json at the repository root must list exactly the metrics
// the result line carries, with the same units.
func TestBenchmarkJSONMatches(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type entry struct{ Name, Unit string }
	var spec struct {
		EndToEnd []entry `json:"end_to_end"`
		PerLayer []entry `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		list    []entry
		want    []string
		section string
	}{{spec.EndToEnd, endToEnd, "end_to_end"}, {spec.PerLayer, perLayer, "per_layer"}} {
		if len(c.list) != len(c.want) {
			t.Errorf("%s lists %d metrics, the benchmark reports %d", c.section, len(c.list), len(c.want))
			continue
		}
		for i, e := range c.list {
			if e.Name != c.want[i] || e.Unit != units[c.want[i]] {
				t.Errorf("%s[%d] = %s (%s), the benchmark reports %s (%s)", c.section, i, e.Name, e.Unit, c.want[i], units[c.want[i]])
			}
		}
	}
}
