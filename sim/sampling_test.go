package sim_test

import (
	"context"
	"testing"

	"civect/sim"
)

// TestSampledSession runs the sampled pipeline through the façade and
// checks the Result extension's shape and plausibility.
func TestSampledSession(t *testing.T) {
	w := mustLoad(t, "gcc")
	s, err := sim.New(w,
		sim.WithInstrBudget(120_000),
		sim.WithSampling(sim.SamplingConfig{IntervalLen: 5_000, Clusters: 4, Warmup: 2_000}))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Step(1); err == nil {
		t.Fatal("sampled session allowed Step")
	}
	res, err := s.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	sr := res.Sampled
	if sr == nil {
		t.Fatal("sampled run returned no Sampled extension")
	}
	if sr.TotalInstr != 120_000 {
		t.Errorf("TotalInstr = %d, want 120000", sr.TotalInstr)
	}
	if sr.NumSamples < 1 || sr.NumSamples > 4 {
		t.Errorf("NumSamples = %d", sr.NumSamples)
	}
	if sr.DetailedInstr == 0 || sr.DetailedInstr >= sr.TotalInstr {
		t.Errorf("DetailedInstr = %d of %d: sampling bought nothing", sr.DetailedInstr, sr.TotalInstr)
	}
	ipc, _, ok := sr.Estimate("ipc")
	if !ok || ipc <= 0 {
		t.Errorf("ipc estimate %v (ok=%v)", ipc, ok)
	}
	if res.IPC != ipc {
		t.Errorf("row IPC %v != stitched estimate %v", res.IPC, ipc)
	}
	if res.Instr != sr.TotalInstr {
		t.Errorf("row Instr %d != TotalInstr %d", res.Instr, sr.TotalInstr)
	}
	if sr.EstCycles <= 0 {
		t.Errorf("EstCycles = %v", sr.EstCycles)
	}
	if _, err := s.Run(context.Background()); err == nil {
		t.Fatal("sampled session allowed a second Run")
	}
}

// TestSampledGolden pins the stitched estimates of the default sampled
// pipeline on gcc.big over a 200k-instruction stream, where the phase
// structure the clustering targets is present. Profiling, clustering,
// warming and stitching are deterministic, so any drift is a change in
// what sampling measures.
func TestSampledGolden(t *testing.T) {
	s, err := sim.New(mustLoad(t, "gcc.big"), sim.WithMode(sim.CI), sim.WithInstrBudget(200_000),
		sim.WithSampling(sim.SamplingConfig{}))
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if res.Instr != 200_000 || res.IPC != 1.19573688469593 || res.ReuseFraction != 0 {
		t.Errorf("sampled gcc.big: instr %d, IPC %v, reuse %v; want 200000, 1.19573688469593, 0",
			res.Instr, res.IPC, res.ReuseFraction)
	}
}

// TestSamplingOptionConflicts checks New's eager validation of the
// sampled mode's incompatibilities.
func TestSamplingOptionConflicts(t *testing.T) {
	w := mustLoad(t, "gcc")
	if _, err := sim.New(w, sim.WithSampling(sim.SamplingConfig{}), sim.WithCheckpoint("/tmp/x.ckpt", 0)); err == nil {
		t.Error("WithSampling+WithCheckpoint must fail")
	}
	if _, err := sim.New(w, sim.WithSampling(sim.SamplingConfig{Clusters: -1})); err == nil {
		t.Error("negative cluster count must fail")
	}
}
