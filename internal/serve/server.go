// Package serve implements the civect simulation-as-a-service daemon
// behind cmd/ciserve: an HTTP API that accepts simulation jobs as
// JSON, runs them on a bounded worker pool over the public civect/sim
// façade, streams progress over SSE, and serves the results.
//
// Each job is exactly one session: queued → running → done | failed |
// canceled. The simulator is deterministic, so a job that failed would
// fail the same way again; nothing is retried. Around that:
//
//   - admission: the whole spec is validated, within fixed size
//     ceilings, before a job exists (400), and a bounded queue answers
//     429 + Retry-After when full
//   - idempotency: a submission carrying an Idempotency-Key replays
//     the original job instead of re-simulating
//   - error taxonomy: every failure is classified bad_request /
//     transient / canceled / fatal; a recovered simulator panic fails
//     its job, never the process
//   - graceful drain: Drain stops admissions (503), lets in-flight
//     jobs finish — or checkpoints their partial results at the drain
//     deadline — and only then shuts the listener down
//   - resumable jobs: with a checkpoint dir configured, a job carrying
//     a checkpoint_key saves its full machine state when cut short,
//     and resubmitting the same spec under the same key continues from
//     that state — the final statistics are bit-identical to an
//     uninterrupted run's
//   - auditability: a job may attach a cycle-trace journal, written
//     atomically so the artifact directory never holds a truncated
//     file
//
// The package deliberately lives outside the simulator's deterministic
// core: it uses wall-clock time, timers and racing selects freely, and
// is therefore excluded from the civet nodeterm analyzer's default
// package set (see internal/lint/nodeterm). Determinism of simulation
// *results* is untouched — the daemon only orchestrates sessions, and
// the concurrency test asserts byte-identical statistics for hundreds
// of concurrent jobs.
package serve

import (
	"context"
	"errors"
	"fmt"
	"log"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"civect/internal/trace"
	"civect/sim"
)

// Config tunes the daemon. The zero value is usable: every field
// defaults to the documented value.
type Config struct {
	// QueueDepth bounds jobs admitted but not yet running (default 64).
	// A full queue is backpressure: submissions get 429 + Retry-After.
	QueueDepth int
	// Workers bounds concurrently running simulations (default
	// GOMAXPROCS).
	Workers int
	// DefaultInstr is the committed-instruction budget for specs that
	// leave max_instr zero (default 200k, matching cisim).
	DefaultInstr uint64
	// MaxInstrPerJob rejects specs whose budget exceeds it (default
	// 50M): one client must not be able to park a worker for hours.
	MaxInstrPerJob uint64
	// TraceDir, when set, enables per-job cycle-trace journals: a job
	// submitted with trace=true gets <TraceDir>/<jobID>.civt, written
	// atomically on success.
	TraceDir string
	// CheckpointDir, when set, enables resumable jobs: a job submitted
	// with a checkpoint_key saves its state to
	// <CheckpointDir>/<key>.<workload>.civk when cut short (drain
	// deadline, cancel), and a later job with the same key and spec
	// resumes from that state instead of starting over. The file is
	// removed when the job completes.
	CheckpointDir string
	// ProgressEvery is the committed-instruction cadence of progress
	// events (default 25000).
	ProgressEvery uint64
	// DrainTimeout bounds how long Drain waits for in-flight jobs
	// before cancelling them into partial results (default 30s).
	DrainTimeout time.Duration
	// Logf receives operational log lines (default log.Printf; tests
	// inject t.Logf or a no-op).
	Logf func(format string, args ...any)
}

// Fixed ceilings on the spec fields that size a session. Unlike
// MaxInstrPerJob, which bounds a job's run time, these bound what
// admission itself allocates: resolve builds a throwaway session, and
// its register file, ports and speculative memory grow with the spec
// (regs 1,000,000 allocates about 600 MB, spec_mem 100,000,000 about
// 1.7 GB). The registry's largest configurations use 768 regs, 2 ports
// and 768 spec-mem positions. MaxSpecMemLat bounds run time instead: a
// spec memory slower than the simulator's 500k-cycle no-commit
// watchdog (spec_mem_lat 1,000,000) can never finish, and the paper
// evaluates latencies of 2 and 5 cycles.
const (
	MaxRegs       = 4096
	MaxPorts      = 16
	MaxSpecMem    = 4096
	MaxSpecMemLat = 1000
)

func (c Config) withDefaults() Config {
	if c.QueueDepth <= 0 {
		c.QueueDepth = 64
	}
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.DefaultInstr == 0 {
		c.DefaultInstr = 200_000
	}
	if c.MaxInstrPerJob == 0 {
		c.MaxInstrPerJob = 50_000_000
	}
	if c.ProgressEvery == 0 {
		c.ProgressEvery = 25_000
	}
	if c.DrainTimeout <= 0 {
		c.DrainTimeout = 30 * time.Second
	}
	if c.Logf == nil {
		c.Logf = log.Printf
	}
	return c
}

// Metrics are the server's monotonic operational counters, rendered in
// /healthz. All fields are atomics; read them with Load.
type Metrics struct {
	Submitted     atomic.Uint64 // jobs admitted into the queue
	Replayed      atomic.Uint64 // idempotent replays served
	Done          atomic.Uint64 // jobs finished successfully
	Failed        atomic.Uint64 // jobs finished failed
	Canceled      atomic.Uint64 // jobs finished canceled
	ShedQueueFull atomic.Uint64 // submissions answered 429
	ShedDraining  atomic.Uint64 // submissions answered 503 (drain)
}

// Server is the daemon: a job registry, a bounded queue, a worker
// pool and the HTTP handler over them. Create with New, serve
// Handler(), stop with Drain (graceful) or Close (immediate).
type Server struct {
	cfg     Config
	metrics Metrics

	// rootCtx cancels every running session on forced shutdown.
	rootCtx    context.Context
	rootCancel context.CancelFunc

	// admitMu serializes admissions against the drain flip: Drain takes
	// the write lock to flip draining and close the queue, so no sender
	// can race the close.
	admitMu  sync.RWMutex
	draining bool
	queue    chan *Job

	jobsMu sync.Mutex
	jobs   map[string]*Job
	byKey  map[string]*Job
	nextID atomic.Uint64

	inflight atomic.Int64
	workerWG sync.WaitGroup
	started  time.Time
}

// New builds and starts a server: workers are running and the handler
// is ready. It does not listen on a socket — that is the caller's
// (cmd/ciserve's or httptest's) job.
func New(cfg Config) *Server {
	cfg = cfg.withDefaults()
	ctx, cancel := context.WithCancel(context.Background())
	s := &Server{
		cfg:        cfg,
		rootCtx:    ctx,
		rootCancel: cancel,
		queue:      make(chan *Job, cfg.QueueDepth),
		jobs:       make(map[string]*Job),
		byKey:      make(map[string]*Job),
		started:    time.Now(),
	}
	s.workerWG.Add(cfg.Workers)
	for i := 0; i < cfg.Workers; i++ {
		go s.worker()
	}
	return s
}

// Config returns the server's configuration with defaults applied.
func (s *Server) Config() Config { return s.cfg }

// Metrics exposes the server's counters (primarily for tests; HTTP
// clients read them via /healthz).
func (s *Server) Metrics() *Metrics { return &s.metrics }

// Draining reports whether the server has stopped admitting jobs.
func (s *Server) Draining() bool {
	s.admitMu.RLock()
	defer s.admitMu.RUnlock()
	return s.draining
}

// submit runs the admission pipeline for one resolved job request:
// idempotency replay, drain gate, then the bounded queue.
// The returned replayed flag distinguishes a fresh admission (201)
// from an idempotent replay (200).
func (s *Server) submit(spec JobSpec, key string, w *sim.Workload, opts []sim.Option) (j *Job, replayed bool, err error) {
	// Idempotency first: replaying a known key must work even while
	// draining — the client is asking about work already
	// admitted, not for new work.
	if key != "" {
		s.jobsMu.Lock()
		j = s.byKey[key]
		s.jobsMu.Unlock()
		if j != nil {
			s.metrics.Replayed.Add(1)
			return j, true, nil
		}
	}

	s.admitMu.RLock()
	defer s.admitMu.RUnlock()
	if s.draining {
		s.metrics.ShedDraining.Add(1)
		return nil, false, errDraining
	}

	id := fmt.Sprintf("j%d", s.nextID.Add(1))
	j = &Job{
		ID: id, Key: key, Spec: spec, w: w, opts: opts,
		state: StateQueued, submitted: time.Now(),
		hub: newHub(), done: make(chan struct{}),
	}

	s.jobsMu.Lock()
	if key != "" {
		// Two racing submissions with the same key: the one that
		// registered first wins, the loser replays it.
		if prior := s.byKey[key]; prior != nil {
			s.jobsMu.Unlock()
			s.metrics.Replayed.Add(1)
			return prior, true, nil
		}
		s.byKey[key] = j
	}
	s.jobs[id] = j
	s.jobsMu.Unlock()

	select {
	case s.queue <- j:
		s.metrics.Submitted.Add(1)
		return j, false, nil
	default:
		// Queue full: back out the registration entirely so the client
		// can retry the same idempotency key later.
		s.jobsMu.Lock()
		delete(s.jobs, id)
		if key != "" && s.byKey[key] == j {
			delete(s.byKey, key)
		}
		s.jobsMu.Unlock()
		s.metrics.ShedQueueFull.Add(1)
		return nil, false, errQueueFull
	}
}

// job looks up a job by ID.
func (s *Server) job(id string) *Job {
	s.jobsMu.Lock()
	defer s.jobsMu.Unlock()
	return s.jobs[id]
}

// jobViews snapshots every job, sorted by numeric ID ("j10" after
// "j9") so the listing is deterministic.
func (s *Server) jobViews() []View {
	s.jobsMu.Lock()
	views := make([]View, 0, len(s.jobs))
	for _, j := range s.jobs {
		views = append(views, j.View())
	}
	s.jobsMu.Unlock()
	sort.Slice(views, func(a, b int) bool {
		na, _ := strconv.Atoi(views[a].ID[1:])
		nb, _ := strconv.Atoi(views[b].ID[1:])
		return na < nb
	})
	return views
}

// worker drains the queue until it closes (drain) or the root context
// dies (forced close).
func (s *Server) worker() {
	defer s.workerWG.Done()
	for j := range s.queue {
		s.runJob(j)
	}
}

// errShutdown marks jobs cut short because the server is going away.
var errShutdown = errors.New("serve: shutting down")

// fileExists reports whether path names an existing file.
func fileExists(path string) bool {
	_, err := os.Stat(path)
	return err == nil
}

// runJob runs the job's one session to a terminal state.
func (s *Server) runJob(j *Job) {
	s.inflight.Add(1)
	defer s.inflight.Add(-1)

	if s.rootCtx.Err() != nil {
		j.finish(StateCanceled, nil, errShutdown, ClassCanceled)
		s.metrics.Canceled.Add(1)
		return
	}
	ctx, cancel := context.WithCancel(s.rootCtx)
	defer cancel()
	if !j.setRunning(cancel) {
		// Cancelled while queued.
		j.finish(StateCanceled, nil, context.Canceled, ClassCanceled)
		s.metrics.Canceled.Add(1)
		return
	}

	res, err := s.runSession(ctx, j)
	switch class := Classify(err); class {
	case "":
		j.finish(StateDone, res, nil, "")
		s.metrics.Done.Add(1)
	case ClassCanceled:
		// Keep the partial result: it is a well-formed checkpoint of
		// everything simulated before the cut.
		j.finish(StateCanceled, res, err, ClassCanceled)
		s.metrics.Canceled.Add(1)
	default:
		var pe *sim.PanicError
		if errors.As(err, &pe) {
			s.cfg.Logf("serve: job %s panicked (recovered): %v\n%s", j.ID, pe.Value, pe.Stack)
		}
		s.cfg.Logf("serve: job %s failed (%s): %v", j.ID, class, err)
		j.finish(StateFailed, nil, err, class)
		s.metrics.Failed.Add(1)
	}
}

// runSession executes the job's session, wiring in the progress
// observer and the optional trace journal and checkpoint. On
// cancellation it returns the partial result with the context error.
func (s *Server) runSession(ctx context.Context, j *Job) (*sim.Result, error) {
	opts := append(append([]sim.Option(nil), j.opts...),
		sim.WithObserver(&jobObserver{job: j}, s.cfg.ProgressEvery))

	// A checkpoint_key makes the job resumable: the session saves its
	// state under the key when cut short, and an existing file under the
	// key means a prior job was cut there — continue it instead of
	// starting over. The file name embeds the workload so a key reused
	// across workloads can never resume the wrong program; the sim layer
	// rejects a resume whose options disagree with the checkpointed
	// configuration, covering every other spec axis.
	ckptPath := ""
	if j.Spec.CheckpointKey != "" {
		ckptPath = filepath.Join(s.cfg.CheckpointDir, j.Spec.CheckpointKey+"."+j.Spec.Workload+".civk")
		opts = append(opts, sim.WithCheckpoint(ckptPath, 0))
	}

	var af *trace.AtomicFile
	if j.Spec.Trace {
		path := filepath.Join(s.cfg.TraceDir, j.ID+".civt")
		var err error
		af, err = trace.NewAtomicFile(path)
		if err != nil {
			return nil, err
		}
		defer af.Abort() // no-op once committed
		opts = append(opts, sim.WithTrace(af))
		if j.Spec.TraceLevel != "" {
			lvl, err := sim.ParseTraceLevel(j.Spec.TraceLevel)
			if err != nil {
				return nil, markBadRequest(err) // unreachable: resolve validated it
			}
			opts = append(opts, sim.WithTraceLevel(lvl))
		}
		if j.Spec.TraceFirst != 0 || j.Spec.TraceLast != 0 {
			opts = append(opts, sim.WithTraceWindow(j.Spec.TraceFirst, j.Spec.TraceLast))
		}
	}

	// New, Resume and Run return a simulator panic as a *sim.PanicError.
	var sess *sim.Session
	var err error
	if ckptPath != "" && fileExists(ckptPath) {
		j.setResumed()
		sess, err = sim.Resume(ckptPath, opts...)
	} else {
		sess, err = sim.New(j.w, opts...)
	}
	var res *sim.Result
	if err == nil {
		res, err = sess.Run(ctx)
	}
	if err != nil {
		return res, err
	}
	if af != nil {
		if err := af.Commit(); err != nil {
			return nil, err
		}
		j.setTracePath(filepath.Join(s.cfg.TraceDir, j.ID+".civt"))
	}
	return res, nil
}

// Drain gracefully shuts the job layer down: new submissions are
// refused with 503, queued and in-flight jobs get until the configured
// DrainTimeout (or ctx's deadline, whichever is sooner) to finish, and
// whatever is still running at the deadline is cancelled so each such
// job checkpoints a well-formed partial result. Drain returns nil if
// everything finished on its own, or ctx/deadline errors when jobs had
// to be cut; either way the workers have exited when it returns.
func (s *Server) Drain(ctx context.Context) error {
	s.admitMu.Lock()
	if !s.draining {
		s.draining = true
		close(s.queue) // safe: admissions hold admitMu.RLock
	}
	s.admitMu.Unlock()

	workersDone := make(chan struct{})
	go func() {
		s.workerWG.Wait()
		close(workersDone)
	}()

	timeout := time.NewTimer(s.cfg.DrainTimeout)
	defer timeout.Stop()
	var cutErr error
	select {
	case <-workersDone:
	case <-ctx.Done():
		cutErr = ctx.Err()
	case <-timeout.C:
		cutErr = fmt.Errorf("serve: drain timeout %v elapsed", s.cfg.DrainTimeout)
	}
	if cutErr != nil {
		// Deadline: cancel every in-flight session. They stop at the
		// next cycle boundary and finish as canceled with partial
		// results; the workers then exit on the closed queue.
		s.rootCancel()
		<-workersDone
	}
	return cutErr
}

// Close force-stops the server: running sessions are cancelled and the
// workers drained. For a graceful stop use Drain.
func (s *Server) Close() {
	s.admitMu.Lock()
	if !s.draining {
		s.draining = true
		close(s.queue)
	}
	s.admitMu.Unlock()
	s.rootCancel()
	s.workerWG.Wait()
}

// jobObserver is the job's sim.Observer: it coalesces the commit
// batch taps into counters and publishes a progress event at the
// registered cadence.
type jobObserver struct {
	job *Job

	committedBatches uint64
	reused           uint64
	jumps            uint64
}

// OnCommitBatch implements sim.Observer.
func (o *jobObserver) OnCommitBatch(cycle uint64, committed, reused int) {
	o.committedBatches++
	o.reused += uint64(reused)
}

// OnCycleJump implements sim.Observer.
func (o *jobObserver) OnCycleJump(from, to uint64) { o.jumps++ }

// OnProgress implements sim.Observer.
func (o *jobObserver) OnProgress(cycle, committed uint64) {
	o.job.hub.publish(Event{Type: EventProgress, Data: Progress{
		Cycle: cycle, Committed: committed, Reused: o.reused,
		CommitBatches: o.committedBatches, Jumps: o.jumps,
	}})
}
