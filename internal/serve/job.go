package serve

import (
	"context"
	"sync"
	"time"

	"civect/sim"
)

// JobSpec is the JSON body of POST /v1/jobs: one simulation request,
// mirroring the axes cisim exposes as flags. Zero values take the same
// defaults cisim uses (mode ci, 1 port, 256 regs, the server's default
// instruction budget). Unknown fields are refused with a 400.
type JobSpec struct {
	// Workload is the registry benchmark name (either tier). Required.
	Workload string `json:"workload"`
	// Mode is the machine mode: scal, wb, ci, ci-iw, vect.
	Mode string `json:"mode,omitempty"`
	// Ports is the L1D port count (at most MaxPorts).
	Ports int `json:"ports,omitempty"`
	// Regs is the physical register file size, at most MaxRegs (-1
	// requests the unbounded file, since 0 means "default").
	Regs int `json:"regs,omitempty"`
	// Replicas per vectorized instruction.
	Replicas int `json:"replicas,omitempty"`
	// StridedPCs propagated per rename entry.
	StridedPCs int `json:"strided_pcs,omitempty"`
	// SpecMem positions (0 = none; at most MaxSpecMem).
	SpecMem int `json:"spec_mem,omitempty"`
	// SpecMemLat is the speculative memory latency in cycles (0 = the
	// default; at most MaxSpecMemLat).
	SpecMemLat int `json:"spec_mem_lat,omitempty"`
	// NoDAEC disables the DAEC register reclamation.
	NoDAEC bool `json:"no_daec,omitempty"`
	// MaxInstr is the committed-instruction budget (0 = the server's
	// default; capped by the server's per-job limit).
	MaxInstr uint64 `json:"max_instr,omitempty"`
	// CheckpointKey makes the job resumable (requires the server to run
	// with a checkpoint dir): if the job is cut short — drain deadline,
	// cancel — its machine state is saved under this key, and a later
	// submission with the same key and spec continues from the saved
	// state instead of starting over. Keys are client-chosen file-safe
	// names (letters, digits, '.', '_', '-').
	CheckpointKey string `json:"checkpoint_key,omitempty"`
	// Trace attaches a cycle-trace journal to the job, retained as its
	// audit artifact (requires the server to run with a trace dir).
	Trace bool `json:"trace,omitempty"`
	// TraceLevel is the journal level: commits, pipeline, full
	// (default pipeline).
	TraceLevel string `json:"trace_level,omitempty"`
	// TraceWindow restricts the journal to cycles [First, Last]
	// (Last 0 = open-ended).
	TraceFirst uint64 `json:"trace_first,omitempty"`
	TraceLast  uint64 `json:"trace_last,omitempty"`
}

// resolve validates the spec against the server's limits and returns
// the workload plus the session options the job will run under. All
// failures are ClassBadRequest: nothing here depends on server state.
func (sp *JobSpec) resolve(cfg *Config) (*sim.Workload, []sim.Option, error) {
	if sp.Workload == "" {
		return nil, nil, badRequestf("missing workload")
	}
	w, err := sim.Load(sp.Workload)
	if err != nil {
		return nil, nil, markBadRequest(err)
	}
	mode := sim.CI
	if sp.Mode != "" {
		if mode, err = sim.ParseMode(sp.Mode); err != nil {
			return nil, nil, markBadRequest(err)
		}
	}
	if sp.MaxInstr == 0 {
		sp.MaxInstr = cfg.DefaultInstr
	}
	if sp.MaxInstr > cfg.MaxInstrPerJob {
		return nil, nil, badRequestf("max_instr %d exceeds the server's per-job limit %d",
			sp.MaxInstr, cfg.MaxInstrPerJob)
	}
	ports := sp.Ports
	switch {
	case ports == 0:
		ports = 1
	case ports < 0 || ports > MaxPorts:
		return nil, nil, badRequestf("ports %d out of range [1, %d]", sp.Ports, MaxPorts)
	}
	regs := sp.Regs
	switch {
	case regs == 0:
		regs = 256
	case regs == -1:
		regs = 0 // the unbounded file
	case regs < -1:
		return nil, nil, badRequestf("regs %d invalid (use -1 for the unbounded file)", sp.Regs)
	case regs > MaxRegs:
		return nil, nil, badRequestf("regs %d exceeds the ceiling %d", sp.Regs, MaxRegs)
	}
	if sp.SpecMem < 0 || sp.SpecMem > MaxSpecMem {
		return nil, nil, badRequestf("spec_mem %d out of range [0, %d]", sp.SpecMem, MaxSpecMem)
	}
	if sp.SpecMemLat < 0 || sp.SpecMemLat > MaxSpecMemLat {
		return nil, nil, badRequestf("spec_mem_lat %d out of range [0, %d]", sp.SpecMemLat, MaxSpecMemLat)
	}
	opts := []sim.Option{
		sim.WithMode(mode),
		sim.WithPorts(ports),
		sim.WithRegs(regs),
		sim.WithSpecMem(sp.SpecMem),
		sim.WithInstrBudget(sp.MaxInstr),
	}
	if sp.Replicas > 0 {
		opts = append(opts, sim.WithReplicas(sp.Replicas))
	}
	if sp.StridedPCs > 0 {
		opts = append(opts, sim.WithStridedPCs(sp.StridedPCs))
	}
	if sp.SpecMemLat > 0 {
		opts = append(opts, sim.WithSpecMemLatency(sp.SpecMemLat))
	}
	if sp.NoDAEC {
		opts = append(opts, sim.WithDAEC(false))
	}
	if sp.CheckpointKey != "" {
		if cfg.CheckpointDir == "" {
			return nil, nil, badRequestf("checkpoint_key set but the server runs without a checkpoint dir")
		}
		if !safeCheckpointKey(sp.CheckpointKey) {
			return nil, nil, badRequestf("checkpoint_key %q invalid (want letters, digits, '.', '_', '-'; no leading '.')", sp.CheckpointKey)
		}
	}
	if sp.Trace {
		if cfg.TraceDir == "" {
			return nil, nil, badRequestf("trace requested but the server runs without a trace dir")
		}
		if sp.TraceLevel != "" {
			if _, err := sim.ParseTraceLevel(sp.TraceLevel); err != nil {
				return nil, nil, markBadRequest(err)
			}
		}
		if sp.TraceLast != 0 && sp.TraceLast < sp.TraceFirst {
			return nil, nil, badRequestf("invalid trace window [%d, %d]", sp.TraceFirst, sp.TraceLast)
		}
	} else if sp.TraceLevel != "" || sp.TraceFirst != 0 || sp.TraceLast != 0 {
		return nil, nil, badRequestf("trace_level/trace window require trace=true")
	}
	// Build a throwaway session now so configuration errors the option
	// mapping cannot catch (core.Config.Validate) surface at admission
	// as 400s, not at run time as job failures.
	if _, err := sim.New(w, opts...); err != nil {
		return nil, nil, markBadRequest(err)
	}
	return w, opts, nil
}

// safeCheckpointKey reports whether a client-chosen checkpoint key is
// safe to embed in a filename: no separators, no traversal, no hidden
// files.
func safeCheckpointKey(key string) bool {
	if key == "" || key[0] == '.' {
		return false
	}
	for _, r := range key {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9':
		case r == '.' || r == '_' || r == '-':
		default:
			return false
		}
	}
	return true
}

// State is a job's lifecycle phase.
type State string

// The job states, in lifecycle order. queued and running are the live
// states; done, failed and canceled are terminal.
const (
	StateQueued   State = "queued"
	StateRunning  State = "running"
	StateDone     State = "done"
	StateFailed   State = "failed"
	StateCanceled State = "canceled"
)

// Terminal reports whether a state is final.
func (s State) Terminal() bool {
	return s == StateDone || s == StateFailed || s == StateCanceled
}

// Job is one tracked simulation job. All mutable fields are guarded by
// mu; handlers read through View and the worker writes through the
// state-transition helpers.
type Job struct {
	// ID is the server-assigned job identifier ("j1", "j2", ...).
	ID string
	// Key is the client's idempotency key ("" when none was sent).
	Key string
	// Spec is the resolved request (defaults filled in).
	Spec JobSpec

	// w and opts are the resolved workload and base session options.
	w    *sim.Workload
	opts []sim.Option

	mu        sync.Mutex
	state     State
	result    *sim.Result
	err       error
	errClass  Class
	tracePath string
	// resumed marks a job that continued from a checkpoint file rather
	// than starting fresh.
	resumed   bool
	submitted time.Time
	started   time.Time
	finished  time.Time
	// cancel aborts the running session's context; cancelRequested
	// survives for jobs cancelled while still queued.
	cancel          context.CancelFunc
	cancelRequested bool

	// hub fans the job's progress events out to SSE subscribers.
	hub *hub
	// done closes when the job reaches a terminal state.
	done chan struct{}
}

// View is the JSON rendering of a job, shared by every handler.
type View struct {
	ID    string  `json:"id"`
	Key   string  `json:"idempotency_key,omitempty"`
	Spec  JobSpec `json:"spec"`
	State State   `json:"state"`
	// Result is present once the job finished; partial for canceled
	// jobs that got far enough to checkpoint statistics.
	Result *sim.Result `json:"result,omitempty"`
	// Error and ErrorClass describe a failed or canceled job.
	Error      string `json:"error,omitempty"`
	ErrorClass Class  `json:"error_class,omitempty"`
	// TracePath is the job's sealed journal artifact, if it recorded one.
	TracePath string `json:"trace_path,omitempty"`
	// Resumed marks a job that continued from a prior job's checkpoint
	// (checkpoint_key) instead of starting fresh.
	Resumed bool `json:"resumed,omitempty"`

	SubmittedAt time.Time  `json:"submitted_at"`
	StartedAt   *time.Time `json:"started_at,omitempty"`
	FinishedAt  *time.Time `json:"finished_at,omitempty"`
}

// View snapshots the job for rendering.
func (j *Job) View() View {
	j.mu.Lock()
	defer j.mu.Unlock()
	v := View{
		ID: j.ID, Key: j.Key, Spec: j.Spec, State: j.state,
		Result: j.result, TracePath: j.tracePath,
		Resumed: j.resumed, SubmittedAt: j.submitted,
	}
	if j.err != nil {
		v.Error, v.ErrorClass = j.err.Error(), j.errClass
	}
	if !j.started.IsZero() {
		t := j.started
		v.StartedAt = &t
	}
	if !j.finished.IsZero() {
		t := j.finished
		v.FinishedAt = &t
	}
	return v
}

// State returns the job's current state.
func (j *Job) State() State {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.state
}

// Done returns the channel closed when the job reaches a terminal
// state.
func (j *Job) Done() <-chan struct{} { return j.done }

// setRunning transitions queued -> running and installs the session's
// cancel function. It reports false when the job was cancelled while
// queued, in which case the worker must finish it as canceled instead
// of running it.
func (j *Job) setRunning(cancel context.CancelFunc) bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.cancelRequested {
		return false
	}
	j.state = StateRunning
	j.cancel = cancel
	j.started = time.Now()
	return true
}

// finish moves the job to a terminal state exactly once and closes
// Done. A partial result may accompany a canceled job.
func (j *Job) finish(state State, res *sim.Result, err error, class Class) {
	j.mu.Lock()
	if j.state.Terminal() {
		j.mu.Unlock()
		return
	}
	j.state = state
	j.result = res
	j.err = err
	j.errClass = class
	j.finished = time.Now()
	j.cancel = nil
	j.mu.Unlock()

	// The terminal state event ends the feed; the SSE handler renders
	// the final `result` event from the job view itself, so a slow
	// subscriber can never miss the outcome to a full queue.
	j.hub.publish(Event{Type: EventState, Data: string(state)})
	j.hub.close()
	close(j.done)
}

// requestCancel asks the job to stop: a running session is cancelled
// through its context, a queued job is marked so the worker finishes it
// as canceled without running it. Reports whether the request did
// anything (false for already-terminal jobs).
func (j *Job) requestCancel() bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.state.Terminal() {
		return false
	}
	j.cancelRequested = true
	if j.cancel != nil {
		j.cancel()
	}
	return true
}

// setTracePath records the sealed journal artifact's path.
func (j *Job) setTracePath(p string) {
	j.mu.Lock()
	j.tracePath = p
	j.mu.Unlock()
}

// setResumed marks the job as continued from a checkpoint.
func (j *Job) setResumed() {
	j.mu.Lock()
	j.resumed = true
	j.mu.Unlock()
}
