package sim_test

import (
	"context"
	"errors"
	"path/filepath"
	"reflect"
	"testing"

	"civect/sim"
)

// sweepPoints is a representative sweep slice: several distinct
// configurations, one exact duplicate (the coalescing case), across
// modes.
func sweepPoints(budget uint64) []sim.PointOpts {
	return []sim.PointOpts{
		{sim.WithMode(sim.Scalar), sim.WithInstrBudget(budget)},
		{sim.WithMode(sim.CI), sim.WithInstrBudget(budget)},
		{sim.WithMode(sim.CI), sim.WithInstrBudget(budget), sim.WithRegs(512)},
		{sim.WithMode(sim.Vect), sim.WithInstrBudget(budget)},
		{sim.WithMode(sim.CI), sim.WithInstrBudget(budget)}, // duplicate of point 1
		{sim.WithMode(sim.CIIW), sim.WithInstrBudget(budget)},
	}
}

// collect sweeps the set and returns results indexed by point, failing
// the test on any point error.
func collect(t *testing.T, s *sim.Set) []*sim.Result {
	t.Helper()
	results := make([]*sim.Result, s.Len())
	for pr := range s.Sweep(context.Background()) {
		if pr.Err != nil {
			t.Errorf("point %d: %v", pr.Index, pr.Err)
		}
		if pr.Result == nil {
			t.Fatalf("point %d: nil result", pr.Index)
		}
		if results[pr.Index] != nil {
			t.Fatalf("point %d delivered twice", pr.Index)
		}
		results[pr.Index] = pr.Result
	}
	return results
}

// TestSetValidatesEagerly proves NewSet surfaces every invalid input
// at construction: nil workload, empty point list, and per-point
// option or configuration errors (naming the failing point).
func TestSetValidatesEagerly(t *testing.T) {
	w := mustLoad(t, "gcc")
	if _, err := sim.NewSet(nil, sim.PointOpts{}); err == nil {
		t.Error("nil workload must fail")
	}
	if _, err := sim.NewSet(w); err == nil {
		t.Error("empty point list must fail")
	}
	bad := []sim.PointOpts{
		{sim.WithMode(sim.CI)},
		{sim.WithPorts(0)},
	}
	if _, err := sim.NewSet(w, bad...); err == nil {
		t.Error("invalid point option must fail NewSet")
	}
	patch := []sim.PointOpts{
		{sim.WithConfigPatch(func(c *sim.Config) { c.PhysRegs = 8 })},
	}
	if _, err := sim.NewSet(w, patch...); err == nil {
		t.Error("invalid point configuration must fail NewSet")
	}
	if _, err := sim.NewSet(w, sim.PointOpts{sim.WithTraceLevel(sim.TraceCommits)}); err == nil {
		t.Error("trace level without a trace writer must fail NewSet")
	}
}

// TestSweepMatchesSessions is the façade-level differential: every
// point of a sweep, the coalesced duplicate included, must produce
// statistics bit-identical to a Session built with the same options.
func TestSweepMatchesSessions(t *testing.T) {
	w := mustLoad(t, "gcc")
	points := sweepPoints(8_000)
	want := sessionStats(t, w, points)

	set, err := sim.NewSet(w, points...)
	if err != nil {
		t.Fatal(err)
	}
	results := collect(t, set)
	for i, res := range results {
		if res.Partial {
			t.Errorf("point %d: unexpectedly partial", i)
		}
		if res.Stats != want[i] {
			t.Errorf("point %d: sweep stats diverge from a Session run", i)
		}
	}
	if results[1] == results[4] {
		t.Error("coalesced points share one Result; each must own its copy")
	}
}

// sessionStats runs each option list as its own Session and returns
// the statistics, failing the test on any error.
func sessionStats(t *testing.T, w *sim.Workload, points []sim.PointOpts) []sim.Stats {
	t.Helper()
	stats := make([]sim.Stats, len(points))
	for i, opts := range points {
		sess, err := sim.New(w, opts...)
		if err != nil {
			t.Fatal(err)
		}
		res, err := sess.Run(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		stats[i] = res.Stats
	}
	return stats
}

// TestSweepPointHardError gives one point a cycle bound it trips long
// before its budget: that point alone delivers an error and a nil
// Result, and its siblings, one of them sharing every other option,
// still match their Session runs.
func TestSweepPointHardError(t *testing.T) {
	w := mustLoad(t, "gcc")
	good := []sim.PointOpts{
		{sim.WithMode(sim.CI), sim.WithInstrBudget(5_000)},
		{sim.WithMode(sim.Scalar), sim.WithInstrBudget(5_000)},
	}
	bad := sim.PointOpts{sim.WithMode(sim.CI), sim.WithInstrBudget(5_000),
		sim.WithConfigPatch(func(c *sim.Config) { c.MaxCycles = 64 })}
	want := sessionStats(t, w, good)

	set, err := sim.NewSet(w, good[0], bad, good[1])
	if err != nil {
		t.Fatal(err)
	}
	results := make([]*sim.Result, set.Len())
	errs := make([]error, set.Len())
	for pr := range set.Sweep(context.Background()) {
		results[pr.Index], errs[pr.Index] = pr.Result, pr.Err
	}
	if results[1] != nil || errs[1] == nil {
		t.Errorf("bounded point: result %v, err %v; want a nil Result and an error", results[1], errs[1])
	}
	for i, j := range []int{0, 2} {
		if errs[j] != nil || results[j] == nil {
			t.Fatalf("point %d: result %v, err %v", j, results[j], errs[j])
		}
		if results[j].Stats != want[i] {
			t.Errorf("point %d diverges from its Session run", j)
		}
	}
}

// TestSetHonoursSessionOptions proves a Set point is the Session its
// options describe. A sampled point returns the sampled Result New
// gives, even beside a plain point with the same configuration; a
// checkpointing point saves its state when cancelled, and resuming it
// reproduces a plain run; and NewSet rejects the option combinations
// New rejects.
func TestSetHonoursSessionOptions(t *testing.T) {
	w := mustLoad(t, "gcc")
	sampling := sim.WithSampling(sim.SamplingConfig{IntervalLen: 4_000, Clusters: 2, Warmup: 1_000})
	plain := sim.PointOpts{sim.WithMode(sim.CI), sim.WithInstrBudget(24_000)}
	sampled := append(sim.PointOpts{sampling}, plain...)

	sess, err := sim.New(w, sampled...)
	if err != nil {
		t.Fatal(err)
	}
	want, err := sess.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	set, err := sim.NewSet(w, plain, sampled)
	if err != nil {
		t.Fatal(err)
	}
	results := collect(t, set)
	if results[0].Sampled != nil {
		t.Error("plain point returned a sampled Result")
	}
	if got := results[1]; got.Sampled == nil {
		t.Error("sampled point returned a detailed Result")
	} else if got.IPC != want.IPC || !reflect.DeepEqual(got.Sampled.Stats, want.Sampled.Stats) {
		t.Errorf("sampled point IPC %v, stats %v; a Session gives IPC %v, stats %v",
			got.IPC, got.Sampled.Stats, want.IPC, want.Sampled.Stats)
	}

	path := filepath.Join(t.TempDir(), "point.ckpt")
	set, err = sim.NewSet(w, plain, append(sim.PointOpts{sim.WithCheckpoint(path, 0)}, plain...))
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for range set.Sweep(ctx) {
	}
	resumed, err := sim.Resume(path)
	if err != nil {
		t.Fatalf("cancelled checkpoint point left no checkpoint: %v", err)
	}
	res, err := resumed.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats != sessionStats(t, w, []sim.PointOpts{plain})[0] {
		t.Error("resumed checkpoint point diverges from a plain run")
	}

	var obs countingObserver
	if _, err := sim.NewSet(w, sim.PointOpts{sampling, sim.WithObserver(&obs, 0)}); err == nil {
		t.Error("WithSampling+WithObserver must fail NewSet as it fails New")
	}
}

// TestSetRun proves the blocking convenience returns results in point
// order.
func TestSetRun(t *testing.T) {
	w := mustLoad(t, "mcf")
	set, err := sim.NewSet(w, sweepPoints(4_000)...)
	if err != nil {
		t.Fatal(err)
	}
	results, err := set.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != set.Len() {
		t.Fatalf("%d results, want %d", len(results), set.Len())
	}
	for i, res := range results {
		if res == nil {
			t.Errorf("point %d: nil result", i)
		}
	}
}

// TestSweepObserverPoint proves a point with an observer runs (as an
// individual session), fires its hooks, and matches the others
// bit-identically.
func TestSweepObserverPoint(t *testing.T) {
	w := mustLoad(t, "gcc")
	var obs countingObserver
	points := []sim.PointOpts{
		{sim.WithMode(sim.CI), sim.WithInstrBudget(5_000)},
		{sim.WithMode(sim.CI), sim.WithInstrBudget(5_000), sim.WithObserver(&obs, 1_000)},
	}
	set, err := sim.NewSet(w, points...)
	if err != nil {
		t.Fatal(err)
	}
	results := collect(t, set)
	if obs.progress == 0 {
		t.Error("observer point must fire progress hooks")
	}
	if results[0].Stats != results[1].Stats {
		t.Error("observer point diverges from its plain twin")
	}
}

// TestSweepCancellation cancels a sweep up front: every point must
// deliver the context error, running points with partial well-formed
// results.
func TestSweepCancellation(t *testing.T) {
	w := mustLoad(t, "gcc")
	set, err := sim.NewSet(w, sweepPoints(0)...) // no budget: runs to halt
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	seen := 0
	for pr := range set.Sweep(ctx) {
		seen++
		if !errors.Is(pr.Err, context.Canceled) {
			t.Errorf("point %d: err = %v, want context.Canceled", pr.Index, pr.Err)
		}
		if pr.Result != nil && !pr.Result.Partial {
			t.Errorf("point %d: canceled result not marked partial", pr.Index)
		}
	}
	if seen != set.Len() {
		t.Errorf("%d points reported, want %d", seen, set.Len())
	}
}

// TestSetSingleUse proves a second Sweep yields every point an error
// wrapping ErrSessionEnded.
func TestSetSingleUse(t *testing.T) {
	w := mustLoad(t, "gcc")
	set, err := sim.NewSet(w, sim.PointOpts{sim.WithInstrBudget(1_000)})
	if err != nil {
		t.Fatal(err)
	}
	collect(t, set)
	seen := 0
	for pr := range set.Sweep(context.Background()) {
		seen++
		if !errors.Is(pr.Err, sim.ErrSessionEnded) {
			t.Errorf("point %d: err = %v, want ErrSessionEnded", pr.Index, pr.Err)
		}
	}
	if seen != set.Len() {
		t.Errorf("%d points reported, want %d", seen, set.Len())
	}
}
