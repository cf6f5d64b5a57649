package sim_test

import (
	"context"
	"errors"
	"runtime"
	"strings"
	"testing"
	"time"

	"civect/sim"
)

// cancelObserver cancels a context once enough instructions have
// committed, giving the cancellation tests a deterministic mid-run
// trigger (wall-clock timers would race the simulation's speed).
type cancelObserver struct {
	cancel context.CancelFunc
	after  uint64
}

func (o *cancelObserver) OnCommitBatch(cycle uint64, committed, reused int) {}
func (o *cancelObserver) OnCycleJump(from, to uint64)                       {}
func (o *cancelObserver) OnProgress(cycle, committed uint64) {
	if committed >= o.after {
		o.cancel()
	}
}

// goroutines samples the goroutine count with a little settling time,
// for leak checks.
func goroutines() int {
	for i := 0; i < 10; i++ {
		runtime.Gosched()
	}
	return runtime.NumGoroutine()
}

// TestCancelMidRun cancels sessions mid-flight on a branchy base-tier
// workload and the stall-dense mcf.big under all three engines: the
// partial Result must be well-formed, and nothing may leak.
func TestCancelMidRun(t *testing.T) {
	cases := []struct {
		bench    string
		cancelAt uint64
	}{
		{"gcc", 5_000},
		{"mcf.big", 5_000},
	}
	before := goroutines()
	for _, tc := range cases {
		for _, e := range engines {
			t.Run(tc.bench+"/"+e.name, func(t *testing.T) {
				w := mustLoad(t, tc.bench)
				ctx, cancel := context.WithCancel(context.Background())
				defer cancel()
				obs := &cancelObserver{cancel: cancel, after: tc.cancelAt}
				s, err := sim.New(w,
					sim.WithMode(sim.CI),
					withEngine(e.engine),
					sim.WithInstrBudget(50_000_000),
					sim.WithObserver(obs, 1_000),
				)
				if err != nil {
					t.Fatal(err)
				}
				res, err := s.Run(ctx)
				if !errors.Is(err, context.Canceled) {
					t.Fatalf("Run returned %v, want context.Canceled", err)
				}
				if res == nil {
					t.Fatal("cancelled Run must still return the partial result")
				}
				if !res.Partial {
					t.Error("cancelled result not marked partial")
				}
				st := res.Stats
				if st.Committed < tc.cancelAt || st.Committed >= 50_000_000 {
					t.Errorf("partial run committed %d, want >= %d and far below the budget", st.Committed, tc.cancelAt)
				}
				if st.Cycles == 0 || st.IPC() <= 0 {
					t.Errorf("partial stats not well-formed: cycles=%d IPC=%v", st.Cycles, st.IPC())
				}
				if st.Committed > st.Fetched {
					t.Errorf("partial stats inconsistent: committed %d > fetched %d", st.Committed, st.Fetched)
				}
				// The cancelled session is sealed.
				if _, err := s.Step(1); !errors.Is(err, sim.ErrSessionEnded) {
					t.Errorf("Step after cancellation: err = %v, want ErrSessionEnded", err)
				}
			})
		}
	}
	if after := goroutines(); after > before+2 {
		t.Errorf("goroutines leaked across cancelled runs: %d -> %d", before, after)
	}
}

// TestDeadlineSealsSession: a session whose context deadline expired —
// without anyone calling cancel — returns a partial result, and
// resuming it via Step is rejected with a clear error.
func TestDeadlineSealsSession(t *testing.T) {
	w := mustLoad(t, "mcf.big")
	s, err := sim.New(w, sim.WithMode(sim.CI), sim.WithInstrBudget(50_000_000))
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancel()
	res, err := s.Run(ctx)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("Run returned %v, want context.DeadlineExceeded", err)
	}
	if res == nil || !res.Partial {
		t.Fatal("deadline-cut run must return a partial result")
	}
	_, err = s.Step(10)
	if !errors.Is(err, sim.ErrSessionEnded) {
		t.Fatalf("Step after deadline: err = %v, want ErrSessionEnded", err)
	}
	if !strings.Contains(err.Error(), "session has ended") {
		t.Errorf("rejection message %q does not explain the seal", err)
	}
	// The underlying cause stays visible for debugging.
	if !strings.Contains(err.Error(), "deadline") {
		t.Errorf("rejection message %q does not name the deadline", err)
	}
}
