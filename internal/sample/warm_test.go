package sample

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"runtime"
	"strings"
	"testing"
	"time"

	"civect/internal/core"
	"civect/internal/workload"
)

// twoStageCapture captures mcf.big's sample state over a 600k-instruction
// profile: dozens of record batches, L1I misses reaching L2 between
// data misses, and sync points mid-batch.
func twoStageCapture(t *testing.T) []byte {
	t.Helper()
	wl, err := workload.Spec("mcf.big")
	if err != nil {
		t.Fatal(err)
	}
	prof, err := Collect(wl.Program, wl.NewMem(), Config{IntervalLen: 10_000, MaxInstr: 600_000})
	if err != nil {
		t.Fatal(err)
	}
	data, err := CaptureState(context.Background(), prof.BuildPlan(6), wl.Program, wl.NewMem(), core.DefaultConfig(core.ModeCI), 3_000)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// TestCaptureStateIndependentOfProcs: the two warming stages produce
// the bytes the serial warming walk did (the digest was taken with one
// goroutine doing all the warming), however many CPUs they share.
func TestCaptureStateIndependentOfProcs(t *testing.T) {
	const (
		wantLen    = 5481785
		wantDigest = "9024acddcaff3f68f7559fed7fbceff7b07450a01903b5384a85c42a9897f944"
	)
	for _, procs := range []int{1, 2, 4} {
		withProcs(procs, func() {
			data := twoStageCapture(t)
			sum := sha256.Sum256(data)
			if got := hex.EncodeToString(sum[:]); len(data) != wantLen || got != wantDigest {
				t.Errorf("GOMAXPROCS=%d: %d bytes, sha256 %s; want %d bytes, %s", procs, len(data), got, wantLen, wantDigest)
			}
		})
	}
}

// waitGoroutines waits up to 5 s for the goroutine count to fall back
// to base and reports whether it did.
func waitGoroutines(base int) bool {
	for deadline := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > base; {
		if time.Now().After(deadline) {
			return false
		}
		time.Sleep(time.Millisecond)
	}
	return true
}

// warmingRuns are the two callers of the two-stage walk, over a short
// gcc that halts at 134,122 instructions.
func warmingRuns(t *testing.T) (wl *workload.Benchmark, runs map[string]func(context.Context, *Plan) error) {
	t.Helper()
	wl, err := workload.SpecWithIters("gcc", 3000)
	if err != nil {
		t.Fatal(err)
	}
	cfg := core.DefaultConfig(core.ModeCI)
	return wl, map[string]func(context.Context, *Plan) error{
		"CaptureState": func(ctx context.Context, plan *Plan) error {
			_, err := CaptureState(ctx, plan, wl.Program, wl.NewMem(), cfg, 1_000)
			return err
		},
		"Run": func(ctx context.Context, plan *Plan) error {
			_, err := Run(ctx, plan, wl.Program, wl.NewMem(), cfg, 1_000, Slots{})
			return err
		},
	}
}

// TestWarmingErrorsLeaveNoGoroutines: a cancelled ctx, and a plan
// whose sample lies past the stream's end, each return an error from
// both callers and stop the warming stage.
func TestWarmingErrorsLeaveNoGoroutines(t *testing.T) {
	wl, runs := warmingRuns(t)
	prof, err := Collect(wl.Program, wl.NewMem(), Config{IntervalLen: 7_000})
	if err != nil {
		t.Fatal(err)
	}
	plan := prof.BuildPlan(4)
	stale := *plan
	stale.TotalInstr = 1 << 30
	stale.Samples = append(stale.Samples[:len(stale.Samples):len(stale.Samples)],
		PlanSample{Interval: 1 << 20, Start: 1 << 29, Len: 1_000, Weight: 0.5})
	for _, procs := range []int{1, 2} {
		withProcs(procs, func() {
			for name, run := range runs {
				base := runtime.NumGoroutine()
				ctx := &cancelAfter{Context: context.Background()}
				ctx.n.Store(2)
				if err := run(ctx, plan); err != context.Canceled {
					t.Errorf("GOMAXPROCS=%d %s cancelled: err = %v, want context.Canceled", procs, name, err)
				}
				if err := run(context.Background(), &stale); err == nil || !strings.Contains(err.Error(), "stream ended at 134122") {
					t.Errorf("GOMAXPROCS=%d %s past the stream's end: err = %v", procs, name, err)
				}
				if !waitGoroutines(base) {
					t.Errorf("GOMAXPROCS=%d %s: %d goroutines after the errors, %d before", procs, name, runtime.NumGoroutine(), base)
				}
			}
		})
	}
}

// TestWarmingPanicKeepsItsStack: a panic on the warming stage is
// re-raised on the caller, carrying the stage's stack, and the stage
// is gone once the caller has it.
func TestWarmingPanicKeepsItsStack(t *testing.T) {
	wl, runs := warmingRuns(t)
	prof, err := Collect(wl.Program, wl.NewMem(), Config{IntervalLen: 7_000})
	if err != nil {
		t.Fatal(err)
	}
	plan := prof.BuildPlan(4)
	defer SetWarmHook(func() { panic("stage-2 fault") })()
	for _, procs := range []int{1, 2} {
		withProcs(procs, func() {
			for name, run := range runs {
				base := runtime.NumGoroutine()
				func() {
					defer func() {
						p, ok := recover().(*measurePanic)
						if !ok {
							t.Fatalf("GOMAXPROCS=%d %s: re-raised %T, want *measurePanic", procs, name, p)
						}
						if !strings.Contains(string(p.Stack), "sample.(*warmer).apply(") {
							t.Errorf("GOMAXPROCS=%d %s: stack does not reach the stage's apply:\n%s", procs, name, p.Stack)
						}
						if s := fmt.Sprint(p); !strings.Contains(s, "stage-2 fault") || !strings.Contains(s, "warming stage-2 goroutine stack") {
							t.Errorf("GOMAXPROCS=%d %s: panic renders as %q", procs, name, s)
						}
					}()
					run(context.Background(), plan)
					t.Errorf("GOMAXPROCS=%d %s returned instead of re-raising", procs, name)
				}()
				if !waitGoroutines(base) {
					t.Errorf("GOMAXPROCS=%d %s: %d goroutines after the panic, %d before", procs, name, runtime.NumGoroutine(), base)
				}
			}
		})
	}
}
