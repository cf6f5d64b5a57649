package sim

import (
	"context"
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
)

// Batch runs sessions under one shared concurrency bound. It is the
// single worker pool of the stack: the experiment harness's memoized
// sweeps, ciexp's -workers flag and any embedding driver all bound
// their simulations through one Batch instead of rolling their own
// semaphores. The bound counts sessions, not CPUs: a sampled session
// (WithSampling) measures its samples on up to GOMAXPROCS goroutines
// of its own. Safe for concurrent use.
type Batch struct {
	sem     chan struct{}
	running atomic.Int64
	peak    atomic.Int64
}

// NewBatch returns a batch running at most workers sessions at once
// (workers <= 0 uses GOMAXPROCS; 1 runs one session at a time).
func NewBatch(workers int) *Batch {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	return &Batch{sem: make(chan struct{}, workers)}
}

// Workers returns the batch's concurrency bound.
func (b *Batch) Workers() int { return cap(b.sem) }

// MaxConcurrent returns the highest number of sessions that have run
// simultaneously on this batch (never above Workers).
func (b *Batch) MaxConcurrent() int { return int(b.peak.Load()) }

// PanicError is the per-job error a Batch returns when building or
// running a session panicked (for example in a user-supplied Observer
// hook): the panic is recovered inside the batch so one bad job cannot
// crash the process or the other jobs sharing the pool.
type PanicError struct {
	// Value is the recovered panic value.
	Value any
	// Stack is the panicking goroutine's stack trace, captured at
	// recovery.
	Stack []byte
}

// Error renders the panic value; the full stack is available via Stack.
func (e *PanicError) Error() string {
	return fmt.Sprintf("sim: session panicked: %v", e.Value)
}

// Run builds and runs one session within the batch's concurrency
// bound, blocking until a worker slot frees up (or ctx is cancelled
// while waiting). Semantics match Session.Run: on mid-run cancellation
// it returns the partial Result together with ctx.Err(). A panic while
// building or running the session — including one raised by an
// Observer hook — is recovered and returned as a *PanicError instead
// of crashing the process.
func (b *Batch) Run(ctx context.Context, w *Workload, opts ...Option) (*Result, error) {
	return b.run(ctx, func() (*Session, error) { return New(w, opts...) })
}

// Resume is Run for a checkpointed session: it rebuilds the session
// from the checkpoint file (see Resume) within the batch's concurrency
// bound and runs it to completion, with the same cancellation and
// panic-recovery semantics as Run.
func (b *Batch) Resume(ctx context.Context, path string, opts ...Option) (*Result, error) {
	return b.run(ctx, func() (*Session, error) { return Resume(path, opts...) })
}

// run acquires a worker slot, builds the session and runs it, turning
// panics into *PanicError.
func (b *Batch) run(ctx context.Context, build func() (*Session, error)) (*Result, error) {
	select {
	case b.sem <- struct{}{}:
	case <-ctx.Done():
		return nil, ctx.Err()
	}
	defer func() { <-b.sem }()
	n := b.running.Add(1)
	defer b.running.Add(-1)
	for {
		peak := b.peak.Load()
		if n <= peak || b.peak.CompareAndSwap(peak, n) {
			break
		}
	}
	return runGuarded(ctx, build)
}

// runGuarded builds and runs one session, turning a panic in either
// step into a *PanicError.
func runGuarded(ctx context.Context, build func() (*Session, error)) (res *Result, err error) {
	defer func() {
		if v := recover(); v != nil {
			res, err = nil, &PanicError{Value: v, Stack: debug.Stack()}
		}
	}()
	s, err := build()
	if err != nil {
		return nil, err
	}
	return s.Run(ctx)
}

// Job names one simulation for Batch.Stream: a registry workload plus
// the session options to run it under.
type Job struct {
	// Workload is the registry name, resolved with Load.
	Workload string
	// Options configure the session.
	Options []Option
	// Tag is an opaque label echoed on the job's BatchResult.
	Tag string
}

// BatchResult pairs a finished Job with its outcome. Exactly one of
// Result and Err is meaningful — except on mid-run cancellation, where
// a partial Result accompanies the context error.
type BatchResult struct {
	// Job is the input job, Tag included.
	Job Job
	// Result is the job's outcome (partial on cancellation).
	Result *Result
	// Err is the job's failure, if any.
	Err error
}

// Stream launches every job and streams their results over the
// returned channel in completion order, at most Workers at a time; the
// channel closes once all jobs have finished. Cancelling ctx stops
// running sessions at their next cycle boundary (their results arrive
// partial, with the context error) and fails jobs still waiting for a
// slot.
func (b *Batch) Stream(ctx context.Context, jobs []Job) <-chan BatchResult {
	// Buffered to the job count so a consumer that stops reading early
	// never strands the producer goroutines.
	out := make(chan BatchResult, len(jobs))
	var wg sync.WaitGroup
	for _, j := range jobs {
		wg.Add(1)
		go func(j Job) {
			defer wg.Done()
			w, err := Load(j.Workload)
			if err != nil {
				out <- BatchResult{Job: j, Err: err}
				return
			}
			res, err := b.Run(ctx, w, j.Options...)
			out <- BatchResult{Job: j, Result: res, Err: err}
		}(j)
	}
	go func() {
		wg.Wait()
		close(out)
	}()
	return out
}
