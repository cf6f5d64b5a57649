package sim

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
	"time"

	"civect/internal/core"
	"civect/internal/mem"
)

// PointOpts is the option list of one configuration point in a Set:
// exactly the options a single Session would be built with.
type PointOpts []Option

// PointResult pairs one Set point with its outcome, streamed by
// Sweep. Exactly one of Result and Err is meaningful — except on
// mid-sweep cancellation, where a partial Result accompanies the
// context error, lane by lane.
type PointResult struct {
	// Index is the point's position in the NewSet argument list.
	Index int
	// Result is the point's outcome (partial on cancellation).
	Result *Result
	// Err is the point's failure, if any.
	Err error
}

// setPoint is one validated configuration point.
type setPoint struct {
	cfg Config
	// opts re-applies the point's options when it must run as an
	// individual Session (observer or trace points).
	opts PointOpts
	// session marks points that run as individual Sessions: observers
	// and trace journals are per-session side effects, so such points
	// are excluded from lockstep batching and result coalescing.
	session bool
}

// Set is a multi-configuration sweep over one workload: the supported
// way to run N configuration points of the same program. Build one
// with NewSet, then stream the results with Sweep (or collect them
// with Run). Compared to building N Sessions, a Set shares the decoded
// program and per-PC metadata across all points, steps up to Width
// points in cache-friendly lockstep (the batched engine,
// internal/core's BatchProc), and simulates exact duplicate
// configurations once — per-point results are bit-identical to
// individual sequential Sessions either way.
//
// A Set is single-use and, once swept, sealed; the Width and Workers
// knobs must be set before Sweep is called. Sets are not safe for
// concurrent use (the Sweep result channel is).
type Set struct {
	// Width is the number of configuration lanes stepped in lockstep
	// per wave: 0 (or negative) selects the automatic width, 1 runs
	// every point as its own sequential session — the legacy
	// behavior, with no lockstep and no duplicate coalescing.
	Width int
	// Workers bounds how many waves (and individual session points)
	// simulate concurrently; 0 or negative uses GOMAXPROCS. Results
	// are bit-identical for every Workers value.
	Workers int

	w      *Workload
	points []setPoint
	swept  bool
}

// autoWidth is the automatic lockstep width: wide enough to amortize
// the shared program state across lanes, narrow enough that the
// per-lane pipeline state of a whole wave stays cache-resident.
const autoWidth = 8

// NewSet builds a sweep set over workload w with one point per option
// list, validating every point eagerly exactly as New would: a nil or
// invalid workload, an invalid option combination or an invalid
// configuration on any point all surface here, so a Set that
// constructs is guaranteed runnable.
func NewSet(w *Workload, points ...PointOpts) (*Set, error) {
	if w == nil {
		return nil, errors.New("sim: nil workload")
	}
	if len(points) == 0 {
		return nil, errors.New("sim: a set needs at least one point")
	}
	if _, err := w.prog.Decode(); err != nil {
		return nil, err
	}
	s := &Set{w: w, points: make([]setPoint, len(points))}
	for i, opts := range points {
		st := settings{cfg: DefaultConfig(CI)}
		for _, o := range opts {
			if o != nil {
				o(&st)
			}
		}
		if st.err != nil {
			return nil, fmt.Errorf("sim: set point %d: %w", i, st.err)
		}
		if st.traceW == nil && (st.traceLevel != 0 || st.traceWindowed) {
			return nil, fmt.Errorf("sim: set point %d: WithTraceLevel/WithTraceWindow require WithTrace", i)
		}
		if err := st.cfg.Validate(); err != nil {
			return nil, fmt.Errorf("sim: set point %d: %w", i, err)
		}
		s.points[i] = setPoint{
			cfg:     st.cfg,
			opts:    opts,
			session: st.obs != nil || st.traceW != nil,
		}
	}
	return s, nil
}

// Len returns the number of configuration points.
func (s *Set) Len() int { return len(s.points) }

// Workload returns the workload the set sweeps.
func (s *Set) Workload() *Workload { return s.w }

// Run sweeps the set to completion and collects the results in point
// order: the blocking convenience over Sweep. The returned error is
// the first point error in index order (results for the other points
// are still returned, partial ones included).
func (s *Set) Run(ctx context.Context) ([]*Result, error) {
	results := make([]*Result, len(s.points))
	var firstErr error
	firstIdx := len(s.points)
	for pr := range s.Sweep(ctx) {
		results[pr.Index] = pr.Result
		if pr.Err != nil && pr.Index < firstIdx {
			firstErr, firstIdx = pr.Err, pr.Index
		}
	}
	return results, firstErr
}

// sweepUnit is one schedulable piece of a sweep: either a lockstep
// wave of distinct-configuration lanes (each lane carrying every point
// index that resolves to its configuration) or a single point that
// must run as an individual Session.
type sweepUnit struct {
	// lanes[i] lists the point indices coalesced onto lane i; the
	// lane simulates points[lanes[i][0]].cfg.
	lanes [][]int
	// single is the session point's index (lanes nil).
	single int
}

// Sweep simulates every point and streams the per-point results over
// the returned channel in completion order; the channel closes once
// all points have finished. Up to Width distinct configurations step
// in lockstep per wave and up to Workers waves run concurrently.
// Points whose configurations are exactly equal are simulated once
// per wave and their results fanned out (the simulator is
// deterministic, so this is observationally identical to running each
// — Width 1 disables both lockstep and this coalescing); observer and
// trace points always run as individual sessions.
//
// Cancelling ctx stops every running lane at its next cycle boundary:
// such points deliver partial, well-formed Results together with the
// context error, exactly as Session.Run does. A Set is single-use;
// sweeping again yields every point with an error wrapping
// ErrSessionEnded.
func (s *Set) Sweep(ctx context.Context) <-chan PointResult {
	out := make(chan PointResult, len(s.points))
	if s.swept {
		for i := range s.points {
			out <- PointResult{Index: i, Err: fmt.Errorf("%w: set already swept", ErrSessionEnded)}
		}
		close(out)
		return out
	}
	s.swept = true

	width := s.Width
	if width < 1 {
		width = autoWidth
	}
	workers := s.Workers
	if workers < 1 {
		workers = runtime.GOMAXPROCS(0)
	}

	units := partition(s.points, width)

	unitCh := make(chan sweepUnit)
	var wg sync.WaitGroup
	for k := 0; k < workers && k < len(units); k++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for u := range unitCh {
				s.runUnit(ctx, u, out)
			}
		}()
	}
	go func() {
		for _, u := range units {
			unitCh <- u
		}
		close(unitCh)
		wg.Wait()
		close(out)
	}()
	return out
}

// partition splits a set's points into sweep units. Session points
// run alone. The rest coalesce by exact configuration across the whole
// set: a later duplicate joins the lane that first took its
// configuration, however many waves earlier, and the distinct
// configurations fill lockstep waves of up to width lanes in
// first-occurrence order. Width 1 gives every point its own unit, with
// no coalescing.
func partition(points []setPoint, width int) []sweepUnit {
	var units []sweepUnit
	if width == 1 {
		for i, pt := range points {
			if pt.session {
				units = append(units, sweepUnit{single: i})
			} else {
				units = append(units, sweepUnit{lanes: [][]int{{i}}})
			}
		}
		return units
	}
	type laneRef struct{ unit, lane int }
	first := make(map[Config]laneRef, len(points))
	open := -1 // index of the wave being filled, if any
	for i, pt := range points {
		if pt.session {
			units = append(units, sweepUnit{single: i})
			continue
		}
		if r, ok := first[pt.cfg]; ok {
			lanes := units[r.unit].lanes
			lanes[r.lane] = append(lanes[r.lane], i)
			continue
		}
		if open < 0 {
			open = len(units)
			units = append(units, sweepUnit{})
		}
		u := &units[open]
		first[pt.cfg] = laneRef{open, len(u.lanes)}
		u.lanes = append(u.lanes, []int{i})
		if len(u.lanes) == width {
			open = -1
		}
	}
	return units
}

// runUnit simulates one sweep unit, delivering a PointResult for every
// point index the unit covers. A panic — possible only via
// user-supplied hooks on session points, but guarded for waves too —
// is recovered and delivered as a *PanicError to the unit's
// undelivered points.
func (s *Set) runUnit(ctx context.Context, u sweepUnit, out chan<- PointResult) {
	delivered := make(map[int]bool)
	defer func() {
		if v := recover(); v != nil {
			err := &PanicError{Value: v, Stack: debug.Stack()}
			if u.lanes == nil {
				if !delivered[u.single] {
					out <- PointResult{Index: u.single, Err: err}
				}
				return
			}
			for _, lane := range u.lanes {
				for _, idx := range lane {
					if !delivered[idx] {
						out <- PointResult{Index: idx, Err: err}
					}
				}
			}
		}
	}()

	if u.lanes == nil {
		idx := u.single
		sess, err := New(s.w, s.points[idx].opts...)
		if err != nil {
			delivered[idx] = true
			out <- PointResult{Index: idx, Err: err}
			return
		}
		res, err := sess.Run(ctx)
		delivered[idx] = true
		out <- PointResult{Index: idx, Result: res, Err: err}
		return
	}

	cfgs := make([]Config, len(u.lanes))
	mems := make([]*mem.Memory, len(u.lanes))
	for li, lane := range u.lanes {
		cfgs[li] = s.points[lane[0]].cfg
		mems[li] = s.w.newMem()
	}
	bp, err := core.NewBatchProc(s.w.prog, cfgs, mems)
	if err != nil {
		for _, lane := range u.lanes {
			for _, idx := range lane {
				delivered[idx] = true
				out <- PointResult{Index: idx, Err: err}
			}
		}
		return
	}
	t0 := time.Now()
	runErr := bp.RunContext(ctx, func(li int, stats *core.Stats, err error) {
		wall := time.Since(t0)
		for _, idx := range u.lanes[li] {
			delivered[idx] = true
			if stats == nil {
				out <- PointResult{Index: idx, Err: err}
				continue
			}
			st := *stats // each point owns its stats copy
			out <- PointResult{
				Index:  idx,
				Result: newResult(s.w, cfgs[li], &st, err != nil, wall),
				Err:    err,
			}
		}
	})
	// Every lane was reported through the callback (hard errors with
	// nil stats, cancellation with partials); runErr only restates the
	// first of them, so nothing is left to deliver here.
	_ = runErr
}
