package sim_test

import (
	"context"
	"errors"
	"path/filepath"
	"reflect"
	"sync/atomic"
	"testing"
	"time"

	"civect/sim"
)

// sweepPoints is a representative sweep slice over w: several
// distinct configurations, one exact duplicate (the coalescing case),
// across modes.
func sweepPoints(w *sim.Workload, budget uint64) []sim.Point {
	return points(w,
		[]sim.Option{sim.WithMode(sim.Scalar), sim.WithInstrBudget(budget)},
		[]sim.Option{sim.WithMode(sim.CI), sim.WithInstrBudget(budget)},
		[]sim.Option{sim.WithMode(sim.CI), sim.WithInstrBudget(budget), sim.WithRegs(512)},
		[]sim.Option{sim.WithMode(sim.Vect), sim.WithInstrBudget(budget)},
		[]sim.Option{sim.WithMode(sim.CI), sim.WithInstrBudget(budget)}, // duplicate of point 1
		[]sim.Option{sim.WithMode(sim.CIIW), sim.WithInstrBudget(budget)},
	)
}

// points builds one Set point over w per option list.
func points(w *sim.Workload, opts ...[]sim.Option) []sim.Point {
	ps := make([]sim.Point, len(opts))
	for i, o := range opts {
		ps[i] = sim.Point{Workload: w, Options: o}
	}
	return ps
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
	if _, err := sim.NewSet(sim.Point{Workload: w}, sim.Point{}); err == nil {
		t.Error("nil workload must fail")
	}
	if _, err := sim.NewSet(); err == nil {
		t.Error("empty point list must fail")
	}
	bad := points(w, []sim.Option{sim.WithMode(sim.CI)}, []sim.Option{sim.WithPorts(0)})
	if _, err := sim.NewSet(bad...); err == nil {
		t.Error("invalid point option must fail NewSet")
	}
	patch := points(w, []sim.Option{sim.WithConfigPatch(func(c *sim.Config) { c.PhysRegs = 8 })})
	if _, err := sim.NewSet(patch...); err == nil {
		t.Error("invalid point configuration must fail NewSet")
	}
	if _, err := sim.NewSet(points(w, []sim.Option{sim.WithTraceLevel(sim.TraceCommits)})...); err == nil {
		t.Error("trace level without a trace writer must fail NewSet")
	}
}

// TestSweepMatchesSessions is the façade-level differential: every
// point of a sweep over two benchmarks, the coalesced duplicates
// included, must produce statistics bit-identical to a Session built
// with the same options. The second gcc point list comes from its own
// Load call, so it coalesces across Workload values.
func TestSweepMatchesSessions(t *testing.T) {
	gcc, mcf := mustLoad(t, "gcc"), mustLoad(t, "mcf")
	points := append(sweepPoints(gcc, 8_000), sweepPoints(mcf, 8_000)...)
	points = append(points, sweepPoints(mustLoad(t, "gcc"), 8_000)[1])
	want := sessionStats(t, points)

	set, err := sim.NewSet(points...)
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
	if results[1] == results[4] || results[1] == results[len(results)-1] {
		t.Error("coalesced points share one Result; each must own its copy")
	}
	if results[1].Stats == results[7].Stats {
		t.Error("gcc and mcf points with equal options gave equal stats; the workloads were mixed up")
	}
}

// sessionStats runs each point as its own Session and returns the
// statistics, failing the test on any error.
func sessionStats(t *testing.T, points []sim.Point) []sim.Stats {
	t.Helper()
	stats := make([]sim.Stats, len(points))
	for i, p := range points {
		sess, err := sim.New(p.Workload, p.Options...)
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
	good := points(w,
		[]sim.Option{sim.WithMode(sim.CI), sim.WithInstrBudget(5_000)},
		[]sim.Option{sim.WithMode(sim.Scalar), sim.WithInstrBudget(5_000)},
	)
	bad := sim.Point{Workload: w, Options: []sim.Option{sim.WithMode(sim.CI), sim.WithInstrBudget(5_000),
		sim.WithConfigPatch(func(c *sim.Config) { c.MaxCycles = 64 })}}
	want := sessionStats(t, good)

	set, err := sim.NewSet(good[0], bad, good[1])
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
	plain := []sim.Option{sim.WithMode(sim.CI), sim.WithInstrBudget(24_000)}
	sampled := append([]sim.Option{sampling}, plain...)

	sess, err := sim.New(w, sampled...)
	if err != nil {
		t.Fatal(err)
	}
	want, err := sess.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	set, err := sim.NewSet(points(w, plain, sampled)...)
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
	set, err = sim.NewSet(points(w, plain, append([]sim.Option{sim.WithCheckpoint(path, 0)}, plain...))...)
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
	if res.Stats != sessionStats(t, points(w, plain))[0] {
		t.Error("resumed checkpoint point diverges from a plain run")
	}

	var obs countingObserver
	if _, err := sim.NewSet(points(w, []sim.Option{sampling, sim.WithObserver(&obs, 0)})...); err == nil {
		t.Error("WithSampling+WithObserver must fail NewSet as it fails New")
	}
}

// TestSetRun proves the blocking convenience returns results in point
// order.
func TestSetRun(t *testing.T) {
	w := mustLoad(t, "mcf")
	set, err := sim.NewSet(sweepPoints(w, 4_000)...)
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
	set, err := sim.NewSet(points(w,
		[]sim.Option{sim.WithMode(sim.CI), sim.WithInstrBudget(5_000)},
		[]sim.Option{sim.WithMode(sim.CI), sim.WithInstrBudget(5_000), sim.WithObserver(&obs, 1_000)},
	)...)
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

// TestSweepCancellation cancels a sweep over two workloads up front:
// every point must deliver the context error, running points with
// partial well-formed results, the channel must close and the sweep's
// goroutines must exit.
func TestSweepCancellation(t *testing.T) {
	before := goroutines()
	// No budget: the points run to halt unless cut short.
	pts := append(sweepPoints(mustLoad(t, "gcc"), 0), sweepPoints(mustLoad(t, "mcf"), 0)...)
	set, err := sim.NewSet(pts...)
	if err != nil {
		t.Fatal(err)
	}
	set.Workers = 2
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
	if after := goroutines(); after > before {
		t.Errorf("goroutines leaked after a cancelled sweep: %d -> %d", before, after)
	}
}

// gateObserver holds its session inside the run at its first progress
// report until the test releases it, counting how many sessions are
// held at once.
type gateObserver struct {
	inside, peak *atomic.Int64
	entered      chan<- struct{}
	release      <-chan struct{}
	held         bool
}

func (o *gateObserver) OnCommitBatch(cycle uint64, committed, reused int) {}
func (o *gateObserver) OnCycleJump(from, to uint64)                       {}
func (o *gateObserver) OnProgress(cycle, committed uint64) {
	if o.held {
		return
	}
	o.held = true
	n := o.inside.Add(1)
	for p := o.peak.Load(); n > p && !o.peak.CompareAndSwap(p, n); p = o.peak.Load() {
	}
	o.entered <- struct{}{}
	<-o.release
	o.inside.Add(-1)
}

// TestSweepWorkersBound proves Workers bounds the simulations in
// flight: k workers over solo points that each block inside their run
// never hold more than k points there at once, and the sweep still
// completes by releasing them one at a time.
func TestSweepWorkersBound(t *testing.T) {
	const n = 6
	ws := []*sim.Workload{mustLoad(t, "gcc"), mustLoad(t, "gzip")}
	for _, k := range []int{1, 2} {
		var inside, peak atomic.Int64
		entered := make(chan struct{}, n)
		release := make(chan struct{})
		pts := make([]sim.Point, n)
		for i := range pts {
			obs := &gateObserver{inside: &inside, peak: &peak, entered: entered, release: release}
			pts[i] = sim.Point{Workload: ws[i%len(ws)],
				Options: []sim.Option{sim.WithInstrBudget(3_000), sim.WithObserver(obs, 500)}}
		}
		set, err := sim.NewSet(pts...)
		if err != nil {
			t.Fatal(err)
		}
		set.Workers = k
		out := set.Sweep(context.Background())
		// Wait until every worker holds a point, then free one. The
		// pause before each release gives a bound that let more than k
		// points run the time to show it; a correct bound passes
		// whatever the timing.
		held := 0
		for released := 0; released < n; released++ {
			for held < k && held < n-released {
				<-entered
				held++
			}
			time.Sleep(5 * time.Millisecond)
			release <- struct{}{}
			held--
		}
		for pr := range out {
			if pr.Err != nil {
				t.Errorf("workers=%d point %d: %v", k, pr.Index, pr.Err)
			}
		}
		if got := peak.Load(); got != int64(k) {
			t.Errorf("workers=%d: %d points inside a run at once, want %d", k, got, k)
		}
	}
}

// TestSetSingleUse proves a second Sweep yields every point an error
// wrapping ErrSessionEnded.
func TestSetSingleUse(t *testing.T) {
	w := mustLoad(t, "gcc")
	set, err := sim.NewSet(points(w, []sim.Option{sim.WithInstrBudget(1_000)})...)
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

// TestSetRecycledSlotDiff sweeps a heterogeneous set on one worker, so
// a single recycled machine runs every point — all five modes, both
// tiers, window, register and cache-geometry changes and a sampled
// point — and requires each point's Result to equal a lone Session's.
func TestSetRecycledSlotDiff(t *testing.T) {
	gcc, mcf, big := mustLoad(t, "gcc"), mustLoad(t, "mcf"), mustLoad(t, "gcc.big")
	budget := sim.WithInstrBudget(6_000)
	pts := []sim.Point{
		{Workload: gcc, Options: []sim.Option{budget, sim.WithMode(sim.CI)}},
		{Workload: big, Options: []sim.Option{budget, sim.WithMode(sim.Scalar)}},
		{Workload: mcf, Options: []sim.Option{budget, sim.WithMode(sim.CIIW), sim.WithRegs(768)}},
		{Workload: gcc, Options: []sim.Option{budget, sim.WithMode(sim.Vect), sim.WithConfigPatch(func(c *sim.Config) {
			c.Hier.L1D.SizeBytes, c.Hier.L2.Assoc = 16<<10, 8
		})}},
		{Workload: gcc, Options: []sim.Option{sim.WithInstrBudget(60_000),
			sim.WithSampling(sim.SamplingConfig{IntervalLen: 4_000, Clusters: 3, Warmup: 1_000})}},
		{Workload: mcf, Options: []sim.Option{budget, sim.WithMode(sim.WideBus), sim.WithRegs(0), sim.WithPorts(2)}},
		{Workload: big, Options: []sim.Option{budget, sim.WithMode(sim.CI), sim.WithSpecMem(768)}},
		{Workload: gcc, Options: []sim.Option{budget, sim.WithMode(sim.CI)}},
	}
	want := make([]*sim.Result, len(pts))
	for i, p := range pts {
		sess, err := sim.New(p.Workload, p.Options...)
		if err != nil {
			t.Fatal(err)
		}
		if want[i], err = sess.Run(context.Background()); err != nil {
			t.Fatal(err)
		}
	}
	set, err := sim.NewSet(pts...)
	if err != nil {
		t.Fatal(err)
	}
	set.Workers = 1
	for i, got := range collect(t, set) {
		if got.Stats != want[i].Stats || !reflect.DeepEqual(got.Sampled, want[i].Sampled) || got.IPC != want[i].IPC {
			t.Errorf("point %d: recycled-slot Result diverges from a lone Session's:\ngot:  %+v %+v\nwant: %+v %+v",
				i, got.Stats, got.Sampled, want[i].Stats, want[i].Sampled)
		}
	}
}
