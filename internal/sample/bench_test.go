package sample

import (
	"context"
	"testing"

	"civect/internal/core"
	"civect/internal/workload"
)

// BenchmarkCaptureState times the warming capture of gcc.ultra's
// sample state at cickpt prepare's defaults (10k-instruction
// intervals, 8 clusters, 3k warmup): the part of a sampled run's
// set-up that grows with the stream. Run it with -cpu 1,2 to see what
// the second warming stage costs and gains.
func BenchmarkCaptureState(b *testing.B) {
	wl, err := workload.Spec("gcc.ultra")
	if err != nil {
		b.Fatal(err)
	}
	prof, err := Collect(wl.Program, wl.NewMem(), Config{IntervalLen: 10_000})
	if err != nil {
		b.Fatal(err)
	}
	plan := prof.BuildPlan(8)
	cfg := core.DefaultConfig(core.ModeCI)
	for b.Loop() {
		if _, err := CaptureState(context.Background(), plan, wl.Program, wl.NewMem(), cfg, 3_000); err != nil {
			b.Fatal(err)
		}
	}
}
