package core

import (
	"context"
	"errors"
	"os"
	"testing"

	"civect/internal/mem"
	"civect/internal/workload"
)

// The batched lockstep engine (batch.go) is required to be
// observation-equivalent to sequential per-configuration runs: every
// lane's statistics must be bit-identical to a single-configuration
// RunContext of the same config over the same workload, on every
// underlying engine. These differential tests are the
// batched-vs-sequential leg of the engine matrix.

// batchedLeg is the CIVECT_ENGINE_PAIR value of the CI matrix leg that
// runs this suite (and only this suite).
const batchedLeg = "batched,sequential"

// skipUnlessBatchedLeg skips the test on matrix legs covering a
// classic engine pair; a plain `go test` (no leg selected) runs it.
func skipUnlessBatchedLeg(t *testing.T) {
	if v := os.Getenv("CIVECT_ENGINE_PAIR"); v != "" && v != batchedLeg {
		t.Skipf("suite compares batched vs sequential; leg %s covers an engine pair", v)
	}
}

// batchLanes builds a BatchProc over b with one lane per config.
func batchLanes(t *testing.T, b *workload.Benchmark, cfgs []Config) *BatchProc {
	t.Helper()
	mems := make([]*mem.Memory, len(cfgs))
	for i := range mems {
		mems[i] = b.NewMem()
	}
	bp, err := NewBatchProc(b.Program, cfgs, mems)
	if err != nil {
		t.Fatal(err)
	}
	return bp
}

// runBatch runs bp to completion and returns per-lane stats, failing
// on any lane error.
func runBatch(t *testing.T, bp *BatchProc) []*Stats {
	t.Helper()
	stats := make([]*Stats, bp.Lanes())
	err := bp.RunContext(context.Background(), func(lane int, st *Stats, err error) {
		if err != nil {
			t.Errorf("lane %d: %v", lane, err)
		}
		stats[lane] = st
	})
	if err != nil {
		t.Fatal(err)
	}
	return stats
}

// sweepConfigs is the cross-configuration lane set the differential
// suite batches: every machine mode at its Table 1 defaults plus the
// capacity and mechanism corners a real sweep hits (register sizes,
// replica batch, spec memory, disabled DAEC), with exact duplicates of
// the kind a sweep's zero-vs-default axes produce.
func sweepConfigs(maxInstr uint64) []Config {
	mk := func(mode Mode, mutate func(*Config)) Config {
		cfg := DefaultConfig(mode)
		cfg.MaxInstr = maxInstr
		if mutate != nil {
			mutate(&cfg)
		}
		return cfg
	}
	return []Config{
		mk(ModeScalar, nil),
		mk(ModeWideBus, nil),
		mk(ModeCI, nil),
		mk(ModeCIIW, nil),
		mk(ModeVect, nil),
		mk(ModeCI, func(c *Config) { c.PhysRegs = 512; c.WindowSize = WindowFor(512) }),
		mk(ModeCI, func(c *Config) { c.PhysRegs = 0; c.WindowSize = WindowFor(0) }),
		mk(ModeCI, func(c *Config) { c.Replicas = 8 }),
		mk(ModeCI, func(c *Config) { c.SpecMemSize = 768 }),
		mk(ModeCI, func(c *Config) { c.DisableDAEC = true }),
		mk(ModeCI, nil), // exact duplicate of lane 2
	}
}

// TestBatchedVsSequentialDifferential proves per-cell bit-identity of
// the batched lockstep engine against sequential runs: for every
// underlying engine and both workload tiers, a BatchProc over the
// sweep lane set must produce exactly the statistics each
// configuration produces alone.
func TestBatchedVsSequentialDifferential(t *testing.T) {
	skipUnlessBatchedLeg(t)
	benches := []struct {
		name     string
		maxInstr uint64
	}{
		{"gcc", 15_000},
		{"mcf", 15_000},
		{"vpr.big", 8_000},
	}
	for _, bench := range benches {
		wl, err := workload.Spec(bench.name)
		if err != nil {
			t.Fatal(err)
		}
		for engine, apply := range engineConfigs {
			t.Run(bench.name+"/"+engine, func(t *testing.T) {
				cfgs := sweepConfigs(bench.maxInstr)
				for i := range cfgs {
					apply(&cfgs[i])
				}
				batched := runBatch(t, batchLanes(t, wl, cfgs))
				for i, cfg := range cfgs {
					seq := runStats(t, wl, cfg)
					if batched[i] == nil {
						t.Fatalf("lane %d reported no stats", i)
					}
					if *batched[i] != *seq {
						t.Errorf("lane %d diverges from sequential:\nbatched:    %+v\nsequential: %+v",
							i, *batched[i], *seq)
					}
				}
			})
		}
	}
}

// TestBatchLanesRetireIndependently gives lanes wildly different
// budgets and requires each to match its sequential run and to be
// reported the moment it retires — short lanes must not wait for long
// ones.
func TestBatchLanesRetireIndependently(t *testing.T) {
	skipUnlessBatchedLeg(t)
	wl, err := workload.Spec("gcc")
	if err != nil {
		t.Fatal(err)
	}
	budgets := []uint64{2_000, 40_000, 5_000}
	cfgs := make([]Config, len(budgets))
	for i, n := range budgets {
		cfgs[i] = DefaultConfig(ModeCI)
		cfgs[i].MaxInstr = n
	}
	bp := batchLanes(t, wl, cfgs)
	// Short rounds so the short lanes retire several frontiers before
	// the 40k lane; at the production chunk all three budgets fit in
	// round one and the order degenerates to lane order.
	bp.chunk = 1024
	var order []int
	stats := make([]*Stats, len(cfgs))
	err = bp.RunContext(context.Background(), func(lane int, st *Stats, err error) {
		if err != nil {
			t.Errorf("lane %d: %v", lane, err)
		}
		order = append(order, lane)
		stats[lane] = st
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(order) != 3 || order[len(order)-1] != 1 {
		t.Errorf("completion order %v: the 40k-instruction lane must retire last", order)
	}
	for i, cfg := range cfgs {
		if seq := runStats(t, wl, cfg); *stats[i] != *seq {
			t.Errorf("lane %d diverges from sequential run", i)
		}
	}
}

// TestBatchSingleLane proves the K=1 fallback path equals a plain run.
func TestBatchSingleLane(t *testing.T) {
	skipUnlessBatchedLeg(t)
	wl, err := workload.Spec("twolf")
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig(ModeCI)
	cfg.MaxInstr = 10_000
	batched := runBatch(t, batchLanes(t, wl, []Config{cfg}))
	if seq := runStats(t, wl, cfg); *batched[0] != *seq {
		t.Error("single-lane batch diverges from sequential run")
	}
}

// TestBatchCancellation cancels a batch mid-run: RunContext must
// return ctx.Err() and every unfinished lane must report partial but
// well-formed statistics together with the context error.
func TestBatchCancellation(t *testing.T) {
	skipUnlessBatchedLeg(t)
	wl, err := workload.Spec("gcc")
	if err != nil {
		t.Fatal(err)
	}
	cfgs := make([]Config, 3)
	for i := range cfgs {
		cfgs[i] = DefaultConfig(ModeCI) // no budget: runs to the halt
	}
	bp := batchLanes(t, wl, cfgs)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	reported := 0
	err = bp.RunContext(ctx, func(lane int, st *Stats, err error) {
		reported++
		if !errors.Is(err, context.Canceled) {
			t.Errorf("lane %d: err = %v, want context.Canceled", lane, err)
		}
		if st == nil {
			t.Errorf("lane %d: canceled lane must report partial stats", lane)
		}
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("RunContext err = %v, want context.Canceled", err)
	}
	if reported != len(cfgs) {
		t.Errorf("%d lanes reported, want %d", reported, len(cfgs))
	}
}

// TestBatchLaneHardError gives one lane an unreachable cycle bound so
// it fails while its sibling completes: the failed lane reports nil
// stats with its error, the sibling is unaffected, and RunContext
// surfaces the lane error.
func TestBatchLaneHardError(t *testing.T) {
	skipUnlessBatchedLeg(t)
	wl, err := workload.Spec("gcc")
	if err != nil {
		t.Fatal(err)
	}
	bad := DefaultConfig(ModeCI)
	bad.MaxCycles = 64 // trips long before any halt
	good := DefaultConfig(ModeCI)
	good.MaxInstr = 5_000
	bp := batchLanes(t, wl, []Config{bad, good})
	var goodStats *Stats
	err = bp.RunContext(context.Background(), func(lane int, st *Stats, err error) {
		switch lane {
		case 0:
			if st != nil || err == nil {
				t.Errorf("failed lane: stats=%v err=%v, want nil stats and an error", st, err)
			}
		case 1:
			if err != nil {
				t.Errorf("good lane: %v", err)
			}
			goodStats = st
		}
	})
	if err == nil {
		t.Fatal("RunContext must surface the lane error")
	}
	if seq := runStats(t, wl, good); goodStats == nil || *goodStats != *seq {
		t.Error("good lane diverges from its sequential run")
	}
}

// TestBatchValidation proves construction-time validation: an invalid
// lane config and mismatched image counts error eagerly, and a batch
// is single-use.
func TestBatchValidation(t *testing.T) {
	wl, err := workload.Spec("gcc")
	if err != nil {
		t.Fatal(err)
	}
	bad := DefaultConfig(ModeCI)
	bad.Replicas = -1
	if _, err := NewBatchProc(wl.Program, []Config{bad}, []*mem.Memory{wl.NewMem()}); err == nil {
		t.Error("invalid lane config must fail NewBatchProc")
	}
	if _, err := NewBatchProc(wl.Program, []Config{DefaultConfig(ModeCI)}, nil); err == nil {
		t.Error("mismatched config/image counts must fail")
	}
	if _, err := NewBatchProc(nil, []Config{DefaultConfig(ModeCI)}, []*mem.Memory{nil}); err == nil {
		t.Error("nil shared program must fail")
	}
	if _, err := NewBatchProc(wl.Program, nil, nil); err == nil {
		t.Error("zero lanes must fail")
	}
	cfg := DefaultConfig(ModeCI)
	cfg.MaxInstr = 1_000
	bp, err := NewBatchProc(wl.Program, []Config{cfg}, []*mem.Memory{wl.NewMem()})
	if err != nil {
		t.Fatal(err)
	}
	if err := bp.RunContext(context.Background(), nil); err != nil {
		t.Fatal(err)
	}
	if err := bp.RunContext(context.Background(), nil); err == nil {
		t.Error("a batch must be single-use")
	}
}
