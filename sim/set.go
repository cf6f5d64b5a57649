package sim

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
)

// Point is one configuration point of a Set: the workload to simulate
// and exactly the options a single Session over it would be built
// with.
type Point struct {
	// Workload is the program and initial image the point simulates.
	Workload *Workload
	// Options configure the point's session.
	Options []Option
}

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

// Set is a sweep of configuration points, over one workload or
// several: the supported way to run many simulations under one
// concurrency bound. Build one with NewSet, then stream the results
// with Sweep (or collect them with Run). Every point is a Session
// built as New builds it. Points that start from the same program and
// initial image with exactly equal resolved configurations are
// simulated once and the Result copied to each (the simulator is
// deterministic, so coalescing is never observable). Two Load calls of
// one name share their program and image, so their points coalesce;
// Custom workloads and workloads changed by SetWord own theirs. Points
// that observe, trace, sample or write checkpoints always run alone.
//
// A Set is single-use and, once swept, sealed; the Workers knob must
// be set before Sweep is called. Sets are not safe for concurrent use
// (the Sweep result channel is).
type Set struct {
	// Workers bounds how many simulations run concurrently; 0 or
	// negative uses GOMAXPROCS. Results are bit-identical for every
	// Workers value.
	Workers int

	points []point
	swept  bool
}

// point is one validated Set point: its workload and resolved
// settings.
type point struct {
	w  *Workload
	st settings
}

// NewSet builds a sweep set with one simulation per point, validating
// every point eagerly exactly as New would: a nil or invalid workload,
// an invalid option combination or an invalid configuration on any
// point all surface here, so a Set that constructs is guaranteed
// runnable.
func NewSet(points ...Point) (*Set, error) {
	if len(points) == 0 {
		return nil, errors.New("sim: a set needs at least one point")
	}
	s := &Set{points: make([]point, len(points))}
	for i, p := range points {
		if p.Workload == nil {
			return nil, fmt.Errorf("sim: set point %d: nil workload", i)
		}
		if _, err := p.Workload.prog.Decode(); err != nil {
			return nil, fmt.Errorf("sim: set point %d: %w", i, err)
		}
		st, err := resolve(DefaultConfig(CI), p.Options)
		if err != nil {
			return nil, fmt.Errorf("sim: set point %d: %w", i, err)
		}
		s.points[i] = point{w: p.Workload, st: st}
	}
	return s, nil
}

// Len returns the number of configuration points.
func (s *Set) Len() int { return len(s.points) }

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
// with the context error, exactly as Session.Run does. A panic while
// building or running a point is that point's *PanicError, as New and
// Session.Run return it. A Set is single-use; sweeping again yields
// every point with an error wrapping ErrSessionEnded.
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

// unitKey identifies what one simulation computes: the program and
// initial image it starts from, and its resolved configuration.
type unitKey struct {
	image imageKey
	cfg   Config
}

// partition groups a set's points into sweep units, each a list of
// point indices one simulation serves. Points coalesce by unitKey
// across the whole set: a later duplicate joins the unit that first
// took its key. Solo points always get a unit of their own. Units keep
// first-occurrence order.
func partition(points []point) [][]int {
	var units [][]int
	first := make(map[unitKey]int, len(points))
	for i := range points {
		if pt := &points[i]; !pt.st.solo() {
			key := unitKey{image: pt.w.imageKey(), cfg: pt.st.cfg}
			if u, ok := first[key]; ok {
				units[u] = append(units[u], i)
				continue
			}
			first[key] = len(units)
		}
		units = append(units, []int{i})
	}
	return units
}

// runUnit simulates one sweep unit as a Session and delivers its
// outcome to every point the unit covers, each with its own copy of
// the Result.
func (s *Set) runUnit(ctx context.Context, unit []int, out chan<- PointResult) {
	p := &s.points[unit[0]]
	sess, err := newSession(p.w, p.st)
	var res *Result
	if err == nil {
		res, err = sess.Run(ctx)
	}
	for _, idx := range unit {
		pr := PointResult{Index: idx, Err: err}
		if res != nil {
			r := *res
			pr.Result = &r
		}
		out <- pr
	}
}
