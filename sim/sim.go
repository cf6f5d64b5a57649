// Package sim is the public, supported API for building and running
// civect simulations. Everything below the command-line layer — the
// cmd tools, the examples, the experiment harness — constructs and
// drives simulations through this façade; the internal packages stay
// free to change shape underneath it.
//
// A simulation is a Session over a Workload:
//
//	w, err := sim.Load("gcc")
//	if err != nil { ... }
//	s, err := sim.New(w, sim.WithMode(sim.CI), sim.WithRegs(512))
//	if err != nil { ... }
//	res, err := s.Run(context.Background())
//	fmt.Printf("IPC %.3f, reuse %.1f%%\n", res.Stats.IPC(), 100*res.Stats.ReuseFraction())
//
// Sessions validate their configuration eagerly (New returns errors,
// never panics or exits), honor context cancellation and deadlines at
// cycle boundaries (returning partial, well-defined statistics), and
// can be driven incrementally with Step for reinforcement-learning or
// analysis loops. Observers stream batched progress taps without
// perturbing results. Batch runs many sessions under one concurrency
// bound and streams their Results over a channel.
package sim

import (
	"context"
	"errors"
	"fmt"
	"time"

	"civect/internal/core"
	"civect/internal/isa"
	"civect/internal/mem"
	"civect/internal/trace"
)

// Mode selects the machine organisation, mirroring the paper's five
// configurations.
type Mode int

// The five machine modes. The zero value is the scalar baseline; New
// defaults to CI, the paper's proposed mechanism.
const (
	// Scalar is the plain superscalar baseline (scalxp).
	Scalar Mode = Mode(core.ModeScalar)
	// WideBus adds wide L1D buses (wbxp, §2.4.5).
	WideBus Mode = Mode(core.ModeWideBus)
	// CI is the proposed control-independence mechanism on top of wide
	// buses (cixp).
	CI Mode = Mode(core.ModeCI)
	// CIIW restricts the mechanism to squash reuse inside the
	// instruction window (ci-iw, Figure 10).
	CIIW Mode = Mode(core.ModeCIIW)
	// Vect is the full speculative dynamic vectorization baseline of
	// reference [12] (Figure 14).
	Vect Mode = Mode(core.ModeVect)
)

// String names the mode as the paper's figures do (scal, wb, ci,
// ci-iw, vect).
func (m Mode) String() string { return core.Mode(m).String() }

// Modes lists every machine mode in the paper's presentation order.
func Modes() []Mode {
	cm := core.Modes()
	ms := make([]Mode, len(cm))
	for i, m := range cm {
		ms[i] = Mode(m)
	}
	return ms
}

// ParseMode inverts Mode.String; it accepts exactly the five names the
// paper's figures use.
func ParseMode(s string) (Mode, error) {
	m, err := core.ParseMode(s)
	return Mode(m), err
}

// Engine selects the simulation engine. All three are
// observation-equivalent — they produce bit-identical statistics — and
// differ only in wall-clock speed; the slower ones are retained as
// differential-test references.
type Engine int

// The three engines, fastest first.
const (
	// EngineFastForward is the default: the event-driven scheduler plus
	// the stall-cycle fast-forward engine that jumps provably inert
	// cycle ranges.
	EngineFastForward Engine = iota
	// EngineEvent is the event-driven scheduler stepping every cycle.
	EngineEvent
	// EngineNaive is the polled reference scheduler (full waiting-list
	// scans every cycle).
	EngineNaive
)

// String names the engine (fast-forward, event, naive).
func (e Engine) String() string {
	switch e {
	case EngineFastForward:
		return "fast-forward"
	case EngineEvent:
		return "event"
	case EngineNaive:
		return "naive"
	}
	return fmt.Sprintf("engine(%d)", int(e))
}

// Engines lists the three engines, fastest first.
func Engines() []Engine {
	return []Engine{EngineFastForward, EngineEvent, EngineNaive}
}

// ParseEngine inverts Engine.String.
func ParseEngine(s string) (Engine, error) {
	for _, e := range Engines() {
		if e.String() == s {
			return e, nil
		}
	}
	return 0, fmt.Errorf("sim: unknown engine %q (want fast-forward, event or naive)", s)
}

// Config is the full simulator configuration (the paper's Table 1 plus
// the mechanism's knobs). Most callers never touch it — the functional
// options cover the parameters the paper sweeps — but WithConfigPatch
// exposes it whole as an escape hatch.
type Config = core.Config

// DefaultConfig returns the paper's Table 1 configuration in the given
// mode: the baseline every Option mutates.
func DefaultConfig(m Mode) Config { return core.DefaultConfig(core.Mode(m)) }

// Stats is the full simulated-statistics block: everything the paper's
// figures report, plus derived accessors (IPC, ReuseFraction, ...).
type Stats = core.Stats

// Observer receives batched progress taps from a running session; see
// WithObserver. Hooks are read-only notifications — attaching an
// observer cannot change simulation results — and cost nothing when no
// observer is registered.
type Observer = core.Observer

// NumLogical is the architectural register count of the simulated ISA.
const NumLogical = isa.NumLogical

// ErrSessionEnded reports a Session whose simulation can no longer
// advance: it ran to completion, was cancelled, hit its deadline, or
// failed. Step and Run reject further driving with an error wrapping
// this sentinel.
var ErrSessionEnded = errors.New("sim: session has ended")

// Session is one configured simulation: a processor built over a
// workload, ready to run to completion (Run) or be driven
// incrementally (Step). Sessions are single-use — once the simulation
// ends, for any reason, the session is sealed and a fresh one must be
// built — and not safe for concurrent use.
type Session struct {
	w    *Workload
	cfg  Config
	proc *core.Proc
	// wall accumulates time spent simulating across Run and Step.
	wall time.Duration
	// sealed is non-nil once the session can no longer advance.
	sealed error
	// finished marks a run that ended at its budget or halt (as
	// opposed to cancellation), making the Result complete.
	finished bool
	// rec is the trace journal recorder (WithTrace); nil when the
	// session is not tracing or the journal is already sealed.
	rec *trace.Recorder
	// sampling switches Run to the sampled pipeline (WithSampling).
	sampling *SamplingConfig
	// ckptPath/ckptEvery configure checkpoint persistence
	// (WithCheckpoint); ckptBase is the pristine initial image
	// checkpoint memory deltas encode against.
	ckptPath  string
	ckptEvery uint64
	ckptBase  *mem.Memory
}

// New builds a session running workload w under the given options,
// validating everything eagerly: a nil or unknown workload, an invalid
// configuration or a malformed program all surface here as errors, so
// a session that constructs is guaranteed runnable.
//
// With no options the session simulates the paper's Table 1 machine in
// CI mode (the proposed mechanism) with no instruction budget.
func New(w *Workload, opts ...Option) (*Session, error) {
	if w == nil {
		return nil, errors.New("sim: nil workload")
	}
	st, err := resolve(DefaultConfig(CI), opts)
	if err != nil {
		return nil, err
	}
	return newSession(w, st)
}

// newSession builds the session New describes from resolved settings;
// a Set builds each of its simulations through it too.
func newSession(w *Workload, st settings) (*Session, error) {
	p, err := core.New(st.cfg, w.prog, w.newMem())
	if err != nil {
		return nil, err
	}
	s := &Session{w: w, cfg: st.cfg, proc: p, sampling: st.sampling, ckptPath: st.ckptPath, ckptEvery: st.ckptEvery}
	if st.ckptPath != "" {
		// Capture the pristine initial image now, while it still matches
		// the processor's: checkpoint memory deltas encode against it.
		s.ckptBase = w.newMem()
	}
	if err := s.attach(&st); err != nil {
		return nil, err
	}
	return s, nil
}

// attach wires the observer and trace journal of st to the session's
// processor.
func (s *Session) attach(st *settings) error {
	if st.obs != nil {
		s.proc.SetObserver(st.obs, st.progressEvery)
	}
	if st.traceW == nil {
		return nil
	}
	lvl := trace.Level(st.traceLevel)
	if lvl == 0 {
		lvl = trace.LevelPipeline
	}
	s.rec = trace.NewRecorder(st.traceW, lvl, trace.Meta{Workload: s.w.name, Mode: st.cfg.Mode})
	if st.traceWindowed {
		s.rec.SetWindow(st.traceFirst, st.traceLast)
	}
	if err := s.rec.Err(); err != nil {
		return err
	}
	s.proc.SetTracer(s.rec)
	return nil
}

// closeTrace seals the trace journal (writing its trailer) when the
// session seals; it returns the journal's first error, if any.
func (s *Session) closeTrace() error {
	if s.rec == nil {
		return nil
	}
	rec := s.rec
	s.rec = nil
	return rec.Close()
}

// Run simulates until the program halts or the committed-instruction
// budget (WithInstrBudget) is exhausted, honoring ctx: cancellation or
// an expired deadline stops the run at the next cycle boundary (which
// is fast-forward-safe — never inside a jump). On cancellation Run
// returns the partial Result accumulated so far together with
// ctx.Err(); on success the Result is complete and the error nil. The
// session is sealed either way.
func (s *Session) Run(ctx context.Context) (*Result, error) {
	if s.sealed != nil {
		return nil, s.sealed
	}
	if s.sampling != nil {
		return s.runSampled(ctx)
	}
	if s.ckptPath != "" {
		return s.runCheckpointed(ctx)
	}
	t0 := time.Now()
	stats, err := s.proc.RunContext(ctx)
	s.wall += time.Since(t0)
	if err != nil {
		s.sealed = fmt.Errorf("%w: %v", ErrSessionEnded, err)
		s.closeTrace() // the run error outranks a journal write error
		if stats != nil {
			// Cancellation or deadline: partial but well-defined stats.
			return s.makeResult(stats, true), err
		}
		return nil, err
	}
	s.finished = true
	s.sealed = fmt.Errorf("%w: run complete", ErrSessionEnded)
	res := s.makeResult(stats, false)
	if terr := s.closeTrace(); terr != nil {
		return res, fmt.Errorf("sim: trace journal: %w", terr)
	}
	return res, nil
}

// Step advances the simulation by up to n cycles (the fast-forward
// engine may make an individual cycle land after a jump) and reports
// how many it simulated. It stops early — and seals the session — when
// the program halts or the committed-instruction budget is reached;
// driving a sealed session returns an error wrapping ErrSessionEnded,
// so a driver loop cannot silently resume a session a deadline already
// ended.
func (s *Session) Step(n int) (int, error) {
	if s.sealed != nil {
		return 0, s.sealed
	}
	if s.sampling != nil {
		return 0, errors.New("sim: sampled sessions cannot be stepped; use Run")
	}
	budget := s.cfg.MaxInstr
	t0 := time.Now()
	stepped := 0
	for ; stepped < n; stepped++ {
		if s.proc.Halted() || (budget > 0 && s.proc.Stats.Committed >= budget) {
			break
		}
		s.proc.Step()
	}
	s.wall += time.Since(t0)
	if s.proc.Halted() || (budget > 0 && s.proc.Stats.Committed >= budget) {
		s.finished = true
		s.sealed = fmt.Errorf("%w: run complete", ErrSessionEnded)
		// Match Run's terminal bookkeeping so a step-driven run's
		// statistics are bit-identical to Run's.
		s.proc.Finalize()
		if terr := s.closeTrace(); terr != nil {
			return stepped, fmt.Errorf("sim: trace journal: %w", terr)
		}
	}
	return stepped, nil
}

// Halted reports whether the simulated program has committed its halt
// instruction.
func (s *Session) Halted() bool { return s.proc.Halted() }

// Stats snapshots the session's statistics as of now, with derived
// end-of-run fields (cycle count, register occupancy, cache snapshots)
// filled in. Snapshotting never perturbs the simulation.
func (s *Session) Stats() Stats { return s.proc.Snapshot() }

// Result snapshots the session as a Result; Partial is set unless the
// session ran to its budget or halt. Step-driven loops use it to
// extract statistics without running to completion. (Mid-run results
// do not count a CI episode still in progress; the finished result
// does, exactly as Run's would.)
func (s *Session) Result() *Result {
	if s.finished {
		stats := *s.proc.Finalize()
		return s.makeResult(&stats, false)
	}
	stats := s.proc.Snapshot()
	return s.makeResult(&stats, true)
}

// ARF returns the committed architectural register values, for checking
// a session against the functional reference (Workload.Emulate).
func (s *Session) ARF() [NumLogical]uint64 { return s.proc.ARF() }

// Config returns the session's full resolved configuration (after all
// options were applied).
func (s *Session) Config() Config { return s.cfg }

// Workload returns the workload the session simulates.
func (s *Session) Workload() *Workload { return s.w }
