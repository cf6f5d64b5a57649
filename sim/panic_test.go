package sim_test

import (
	"context"
	"errors"
	"strings"
	"testing"

	"civect/sim"
)

// panicObserver panics once enough instructions have committed: the
// deterministic stand-in for a buggy user hook (or an injected worker
// fault) blowing up inside a running session.
type panicObserver struct{ after uint64 }

func (o *panicObserver) OnCommitBatch(cycle uint64, committed, reused int) {}
func (o *panicObserver) OnCycleJump(from, to uint64)                       {}
func (o *panicObserver) OnProgress(cycle, committed uint64) {
	if committed >= o.after {
		panic("observer exploded")
	}
}

// TestRunRecoversPanic: a session that panics mid-run must come back
// as a *PanicError — panic value and stack included — with the session
// sealed, and the process must stay healthy for the next session.
func TestRunRecoversPanic(t *testing.T) {
	w := mustLoad(t, "gcc")
	sess, err := sim.New(w,
		sim.WithMode(sim.CI),
		sim.WithInstrBudget(50_000),
		sim.WithObserver(&panicObserver{after: 1_000}, 500),
	)
	if err != nil {
		t.Fatal(err)
	}
	res, err := sess.Run(context.Background())
	if err == nil {
		t.Fatal("panicking run returned nil error")
	}
	if res != nil {
		t.Errorf("panicking run returned a Result: %+v", res)
	}
	var pe *sim.PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("panicking run returned %T (%v), want *sim.PanicError", err, err)
	}
	if got := pe.Value; got != "observer exploded" {
		t.Errorf("PanicError.Value = %v, want the panic value", got)
	}
	if !strings.Contains(string(pe.Stack), "OnProgress") {
		t.Errorf("PanicError.Stack does not show the panicking hook:\n%s", pe.Stack)
	}
	if !strings.Contains(err.Error(), "observer exploded") {
		t.Errorf("Error() = %q, does not name the panic value", err)
	}
	if _, err := sess.Run(context.Background()); !errors.Is(err, sim.ErrSessionEnded) {
		t.Errorf("rerunning a panicked session: err = %v, want ErrSessionEnded", err)
	}

	// The next session runs to completion.
	sess, err = sim.New(w, sim.WithMode(sim.CI), sim.WithInstrBudget(10_000))
	if err != nil {
		t.Fatal(err)
	}
	res, err = sess.Run(context.Background())
	if err != nil {
		t.Fatalf("healthy run after a panicked one: %v", err)
	}
	if res.Partial || res.Stats.Committed < 10_000 {
		t.Errorf("healthy run incomplete: partial=%v committed=%d", res.Partial, res.Stats.Committed)
	}
}

// TestSweepRecoversPanic: a panicking point inside a Set fails alone;
// every other point, on either workload, still delivers its result
// and the sweep closes.
func TestSweepRecoversPanic(t *testing.T) {
	gcc, gzip := mustLoad(t, "gcc"), mustLoad(t, "gzip")
	healthy := []sim.Option{sim.WithMode(sim.CI), sim.WithInstrBudget(5_000)}
	set, err := sim.NewSet(
		sim.Point{Workload: gcc, Options: healthy},
		sim.Point{Workload: gcc, Options: []sim.Option{
			sim.WithMode(sim.CI),
			sim.WithInstrBudget(50_000),
			sim.WithObserver(&panicObserver{after: 1_000}, 500),
		}},
		sim.Point{Workload: gzip, Options: healthy},
	)
	if err != nil {
		t.Fatal(err)
	}
	set.Workers = 2
	got := map[int]sim.PointResult{}
	for pr := range set.Sweep(context.Background()) {
		got[pr.Index] = pr
	}
	if len(got) != set.Len() {
		t.Fatalf("sweep delivered %d outcomes, want %d", len(got), set.Len())
	}
	var pe *sim.PanicError
	if !errors.As(got[1].Err, &pe) {
		t.Errorf("panicking point: err = %v, want *sim.PanicError", got[1].Err)
	}
	for _, i := range []int{0, 2} {
		r := got[i]
		if r.Err != nil || r.Result == nil || r.Result.Partial {
			t.Errorf("point %d: err=%v result=%v — a neighbour's panic must not fail this point", i, r.Err, r.Result)
		}
	}
}
