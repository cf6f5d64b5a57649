package sim

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
)

// PointOpts is the option list of one configuration point in a Set:
// exactly the options a single Session would be built with.
type PointOpts []Option

// PointResult pairs one Set point with its outcome, streamed by
// Sweep. Exactly one of Result and Err is meaningful — except on
// mid-sweep cancellation, where a partial Result accompanies the
// context error.
type PointResult struct {
	// Index is the point's position in the NewSet argument list.
	Index int
	// Result is the point's outcome (partial on cancellation).
	Result *Result
	// Err is the point's failure, if any.
	Err error
}

// Set is a multi-configuration sweep over one workload: the supported
// way to run N configuration points of the same program. Build one
// with NewSet, then stream the results with Sweep (or collect them
// with Run). Every point is a Session built as New builds it, over the
// program the workload decoded once. Points whose resolved
// configurations are exactly equal are simulated once and the Result
// copied to each (the simulator is deterministic, so coalescing is
// never observable); points that observe, trace, sample or write
// checkpoints always run alone.
//
// A Set is single-use and, once swept, sealed; the Workers knob must
// be set before Sweep is called. Sets are not safe for concurrent use
// (the Sweep result channel is).
type Set struct {
	// Workers bounds how many simulations run concurrently; 0 or
	// negative uses GOMAXPROCS. Results are bit-identical for every
	// Workers value.
	Workers int

	w      *Workload
	points []settings
	swept  bool
}

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
	s := &Set{w: w, points: make([]settings, len(points))}
	for i, opts := range points {
		st, err := resolve(DefaultConfig(CI), opts)
		if err != nil {
			return nil, fmt.Errorf("sim: set point %d: %w", i, err)
		}
		s.points[i] = st
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

// Sweep simulates every point and streams the per-point results over
// the returned channel in completion order; the channel closes once
// all points have finished. Up to Workers simulations run at once.
//
// Cancelling ctx stops every running simulation at its next cycle
// boundary: such points deliver partial, well-formed Results together
// with the context error, exactly as Session.Run does. A Set is
// single-use; sweeping again yields every point with an error wrapping
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

	workers := s.Workers
	if workers < 1 {
		workers = runtime.GOMAXPROCS(0)
	}

	units := partition(s.points)

	unitCh := make(chan []int)
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

// partition groups a set's points into sweep units, each a list of
// point indices one simulation serves. Points coalesce by exact
// configuration across the whole set: a later duplicate joins the unit
// that first took its configuration. Solo points always get a unit of
// their own. Units keep first-occurrence order.
func partition(points []settings) [][]int {
	var units [][]int
	first := make(map[Config]int, len(points))
	for i := range points {
		if pt := &points[i]; !pt.solo() {
			if u, ok := first[pt.cfg]; ok {
				units[u] = append(units[u], i)
				continue
			}
			first[pt.cfg] = len(units)
		}
		units = append(units, []int{i})
	}
	return units
}

// runUnit simulates one sweep unit as a Session and delivers its
// outcome to every point the unit covers, each with its own copy of
// the Result.
func (s *Set) runUnit(ctx context.Context, unit []int, out chan<- PointResult) {
	res, err := runGuarded(ctx, func() (*Session, error) { return newSession(s.w, s.points[unit[0]]) })
	for _, idx := range unit {
		pr := PointResult{Index: idx, Err: err}
		if res != nil {
			r := *res
			pr.Result = &r
		}
		out <- pr
	}
}
