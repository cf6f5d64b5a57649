package sample

import (
	"bytes"
	"context"
	"fmt"
	"reflect"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"civect/internal/ckpt"
	"civect/internal/core"
	"civect/internal/workload"
)

// skewedState profiles bench, plans 6 samples and makes the first one
// ten times longer than the rest, so that with more than one worker it
// finishes after later samples: a pipeline that recorded results in
// completion order instead of plan order would reorder the Estimate.
// It returns the workload, the plan and the plan's captured state.
func skewedState(t *testing.T, bench string) (*workload.Benchmark, *Plan, []byte) {
	t.Helper()
	wl, err := workload.Spec(bench)
	if err != nil {
		t.Fatal(err)
	}
	prof, err := Collect(wl.Program, wl.NewMem(), Config{IntervalLen: 4_000, MaxInstr: 120_000})
	if err != nil {
		t.Fatal(err)
	}
	plan := prof.BuildPlan(6)
	if len(plan.Samples) < 3 {
		t.Fatalf("%s: plan has %d samples, want at least 3", bench, len(plan.Samples))
	}
	plan.Samples[0].Len *= 10
	data, err := CaptureState(context.Background(), plan, wl.Program, wl.NewMem(), core.DefaultConfig(core.ModeCI), 1_000)
	if err != nil {
		t.Fatal(err)
	}
	return wl, plan, data
}

// withProcs runs f under runtime.GOMAXPROCS(n), restoring the setting.
func withProcs(n int, f func()) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(n))
	f()
}

// TestEstimateIndependentOfWorkers: Run and RunFromState return the
// same Estimate, deep-equal down to every float bit, whether samples
// are measured serially (GOMAXPROCS=1) or concurrently.
func TestEstimateIndependentOfWorkers(t *testing.T) {
	for _, bench := range []string{"gcc", "gcc.big"} {
		wl, plan, data := skewedState(t, bench)
		var want *Estimate
		for _, procs := range []int{1, 2, 8} {
			withProcs(procs, func() {
				live, err := Run(context.Background(), plan, wl.Program, wl.NewMem(), core.DefaultConfig(core.ModeCI), 1_000, Slots{})
				if err != nil {
					t.Fatal(err)
				}
				replayed, err := RunFromState(context.Background(), data, wl.Program, wl.NewMem())
				if err != nil {
					t.Fatal(err)
				}
				if want == nil {
					want = live
				}
				if !reflect.DeepEqual(live, want) {
					t.Errorf("%s: Run under GOMAXPROCS=%d differs from the serial run:\ngot:  %+v\nwant: %+v", bench, procs, live, want)
				}
				if !reflect.DeepEqual(replayed, want) {
					t.Errorf("%s: RunFromState under GOMAXPROCS=%d differs from the serial run:\ngot:  %+v\nwant: %+v", bench, procs, replayed, want)
				}
			})
		}
	}
}

// TestCorruptSampleSameErrorAtEveryWorkerCount: a state file whose
// sample k is corrupt fails with the same error however many samples
// were in flight when the producer reached it.
func TestCorruptSampleSameErrorAtEveryWorkerCount(t *testing.T) {
	wl, _, data := skewedState(t, "gcc")
	payload, err := ckpt.Open(data, StateVersion)
	if err != nil {
		t.Fatal(err)
	}
	// Rename sample 2's section marker and reseal, so the CRC holds
	// and the decoder, not the container check, finds the damage.
	marker := []byte("\x06\x00\x00\x00sample")
	off := 0
	for k := 0; k <= 2; k++ {
		i := bytes.Index(payload[off:], marker)
		if i < 0 {
			t.Fatalf("sample %d marker not found", k)
		}
		off += i + len(marker)
	}
	bad := append([]byte(nil), payload...)
	bad[off-1] = 'X'
	corrupt := ckpt.Seal(StateVersion, bad)

	var want string
	for _, procs := range []int{1, 2, 8} {
		withProcs(procs, func() {
			_, err := RunFromState(context.Background(), corrupt, wl.Program, wl.NewMem())
			if err == nil {
				t.Fatalf("GOMAXPROCS=%d: corrupt sample accepted", procs)
			}
			if want == "" {
				want = err.Error()
				if !strings.Contains(want, `have "samplX"`) {
					t.Fatalf("error %q does not name the corrupt marker", want)
				}
			}
			if err.Error() != want {
				t.Errorf("GOMAXPROCS=%d: error %q, serial run gave %q", procs, err, want)
			}
		})
	}
}

// cancelAfter is a context whose Err turns to context.Canceled on its
// n+1th call: the pipeline checks ctx once per sample, so the run is
// cancelled deterministically after n samples were started.
type cancelAfter struct {
	context.Context
	n atomic.Int32
}

func (c *cancelAfter) Err() error {
	if c.n.Add(-1) < 0 {
		return context.Canceled
	}
	return nil
}

// TestCancelMidRunLeavesNoGoroutines: cancelling between samples
// returns ctx.Err() from both paths, after the samples in flight
// finish, with no helper goroutine left running.
func TestCancelMidRunLeavesNoGoroutines(t *testing.T) {
	wl, plan, data := skewedState(t, "gcc")
	for _, procs := range []int{1, 2, 8} {
		withProcs(procs, func() {
			base := runtime.NumGoroutine()
			for name, run := range map[string]func(context.Context) (*Estimate, error){
				"Run": func(ctx context.Context) (*Estimate, error) {
					return Run(ctx, plan, wl.Program, wl.NewMem(), core.DefaultConfig(core.ModeCI), 1_000, Slots{})
				},
				"RunFromState": func(ctx context.Context) (*Estimate, error) {
					return RunFromState(ctx, data, wl.Program, wl.NewMem())
				},
			} {
				ctx := &cancelAfter{Context: context.Background()}
				ctx.n.Store(2)
				if est, err := run(ctx); err != context.Canceled || est != nil {
					t.Errorf("GOMAXPROCS=%d %s: got (%v, %v), want (nil, context.Canceled)", procs, name, est, err)
				}
				deadline := time.Now().Add(5 * time.Second)
				for runtime.NumGoroutine() > base && time.Now().Before(deadline) {
					time.Sleep(time.Millisecond)
				}
				if n := runtime.NumGoroutine(); n > base {
					t.Errorf("GOMAXPROCS=%d %s: %d goroutines after cancel, %d before", procs, name, n, base)
				}
			}
		})
	}
}

// TestHelperPanicKeepsItsStack: a panic while a helper steps a sample
// is re-raised on the calling goroutine, after the wait, carrying the
// stack of the helper that panicked rather than measureAll's.
func TestHelperPanicKeepsItsStack(t *testing.T) {
	samples := []PlanSample{{Start: 100, Len: 10, Weight: 1}}
	for _, procs := range []int{1, 2} {
		withProcs(procs, func() {
			defer func() {
				p, ok := recover().(*measurePanic)
				if !ok {
					t.Fatalf("GOMAXPROCS=%d: re-raised %T, want *measurePanic", procs, p)
				}
				if !strings.Contains(string(p.Stack), "sample.measure(") {
					t.Errorf("GOMAXPROCS=%d: stack does not reach the helper's measure:\n%s", procs, p.Stack)
				}
				if !strings.Contains(fmt.Sprint(p), "nil pointer") {
					t.Errorf("GOMAXPROCS=%d: panic renders as %q, want the helper's value", procs, fmt.Sprint(p))
				}
			}()
			// A machine that was never reset has no pipeline, so
			// measure dereferences nil on the helper.
			measureAll(context.Background(), 1_000, samples, 0, Slots{}, func(PlanSample, uint64, *core.Proc) error {
				return nil
			})
			t.Fatalf("GOMAXPROCS=%d: measureAll returned instead of re-raising", procs)
		})
	}
}

// TestPeekStateRejectsOversizedPlan: a sealed state file whose plan
// claims more samples than its payload can hold (32 bytes each) is
// rejected without allocating for the claimed count.
func TestPeekStateRejectsOversizedPlan(t *testing.T) {
	cfg := core.DefaultConfig(core.ModeCI)
	var e ckpt.Encoder
	e.Tag("sample-state")
	core.SaveConfigState(&e, &cfg)
	e.Tag("prog")
	e.Str("gcc")
	e.Int(1)
	e.U64(0)
	e.Tag("plan")
	e.U64(4_000)
	e.U64(1 << 30)
	e.Int(8)
	e.U64(1_000)
	e.Int(4 << 20)
	data := ckpt.Seal(StateVersion, append(e.Bytes(), make([]byte, 4<<20)...))

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := PeekState(data)
	runtime.ReadMemStats(&after)
	if err == nil {
		t.Fatal("oversized plan accepted")
	}
	if alloc := after.TotalAlloc - before.TotalAlloc; alloc > 2*uint64(len(data)) {
		t.Errorf("PeekState allocated %d bytes rejecting a %d-byte file", alloc, len(data))
	}
	if !strings.Contains(err.Error(), "plan of 4194304 samples exceeds") {
		t.Errorf("oversized plan: err = %v, want the count rejected", err)
	}
}
