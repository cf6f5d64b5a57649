package sim

import (
	"errors"
	"fmt"
	"io"

	"civect/internal/core"
	"civect/internal/trace"
)

// settings accumulates option effects before New validates them as a
// whole; options that can fail record the first error here so New can
// return it instead of panicking.
type settings struct {
	cfg           Config
	obs           Observer
	progressEvery uint64
	traceW        io.Writer
	traceLevel    TraceLevel
	traceFirst    uint64
	traceLast     uint64
	traceWindowed bool
	sampling      *SamplingConfig
	ckptPath      string
	ckptEvery     uint64
	err           error
}

// resolve applies opts over base and checks the combination as a
// whole: the one validation New, NewSet and Resume share, so an option
// list is accepted or rejected the same way wherever it is used. Nil
// options are skipped.
func resolve(base Config, opts []Option) (settings, error) {
	st := settings{cfg: base}
	for _, o := range opts {
		if o != nil {
			o(&st)
		}
	}
	if st.err != nil {
		return st, st.err
	}
	if st.traceW == nil && (st.traceLevel != 0 || st.traceWindowed) {
		return st, errors.New("sim: WithTraceLevel/WithTraceWindow require WithTrace")
	}
	if st.sampling != nil && (st.traceW != nil || st.obs != nil || st.ckptPath != "") {
		return st, errors.New("sim: WithSampling is incompatible with WithTrace, WithObserver and WithCheckpoint")
	}
	return st, st.cfg.Validate()
}

// solo reports whether a session built from st does more than simulate
// its configuration in detail: it observes, traces, samples or writes
// checkpoints. A Set runs such a point as a simulation of its own and
// never shares it with, or copies it to, another point.
func (st *settings) solo() bool {
	return st.obs != nil || st.traceW != nil || st.sampling != nil || st.ckptPath != ""
}

// Option configures a Session at construction; options apply in the
// order given, over the Table 1 defaults for the session's mode.
type Option func(*settings)

// WithMode selects the machine organisation (default CI).
func WithMode(m Mode) Option {
	return func(s *settings) { s.cfg.Mode = core.Mode(m) }
}

// WithPorts sets the number of L1 data cache ports (the paper uses 1
// or 2).
func WithPorts(n int) Option {
	return func(s *settings) { s.cfg.DL1Ports = n }
}

// WithRegs sets the physical register file size (0 = unbounded) and
// applies the paper's reorder-buffer sizing rule: 256 window entries,
// grown to the register count past 256, 1024 for the unbounded file.
func WithRegs(n int) Option {
	return func(s *settings) {
		s.cfg.PhysRegs = n
		s.cfg.WindowSize = core.WindowFor(n)
	}
}

// WithReplicas sets the replicas per vectorized instruction (the paper
// sweeps 1/2/4/8; default 4).
func WithReplicas(n int) Option {
	return func(s *settings) { s.cfg.Replicas = n }
}

// WithStridedPCs bounds the stridedPC list each rename entry
// propagates (Figure 4 sweeps 1/2/4; default 2).
func WithStridedPCs(n int) Option {
	return func(s *settings) { s.cfg.StridedPCsPerEntry = n }
}

// WithSpecMem gives replicas a separate speculative data memory of the
// given number of positions (§2.4.6; 0, the default, keeps them in the
// register file).
func WithSpecMem(positions int) Option {
	return func(s *settings) { s.cfg.SpecMemSize = positions }
}

// WithSpecMemLatency sets the speculative data memory access latency
// in cycles (default 2; §3.2 also evaluates 5).
func WithSpecMemLatency(cycles int) Option {
	return func(s *settings) { s.cfg.SpecMemLat = cycles }
}

// WithDAEC enables or disables the Dead Association Elimination
// Counter register reclamation (§2.4.2; enabled by default — disabling
// it is the register-pressure ablation).
func WithDAEC(enabled bool) Option {
	return func(s *settings) { s.cfg.DisableDAEC = !enabled }
}

// WithInstrBudget bounds the run to n committed instructions (0, the
// default, runs to the program's halt).
func WithInstrBudget(n uint64) Option {
	return func(s *settings) { s.cfg.MaxInstr = n }
}

// WithObserver registers o to receive the session's batched progress
// taps (commit batches, fast-forward jumps, and progress reports every
// progressEvery committed instructions; 0 disables progress reports).
// At most one observer is supported; the last registration wins.
func WithObserver(o Observer, progressEvery uint64) Option {
	return func(s *settings) {
		s.obs = o
		s.progressEvery = progressEvery
	}
}

// TraceLevel selects how much a session's cycle-trace journal records;
// see WithTrace. Levels nest: each one records everything the level
// below it does.
type TraceLevel int

// The three trace levels. The zero value means "default", which is
// TracePipeline.
const (
	// TraceCommits records only committed instructions — the cheapest
	// journal that still replays committed-instruction statistics
	// exactly.
	TraceCommits TraceLevel = TraceLevel(trace.LevelCommits)
	// TracePipeline (the default) adds fetch, rename, issue and squash
	// events. Pipeline-level journals are engine-independent: every
	// engine produces byte-identical journals for the same
	// configuration.
	TracePipeline TraceLevel = TraceLevel(trace.LevelPipeline)
	// TraceFull adds engine-level events (fast-forward cycle jumps);
	// full journals are only byte-comparable between runs of the same
	// engine.
	TraceFull TraceLevel = TraceLevel(trace.LevelFull)
)

// String names the trace level (commits, pipeline, full).
func (l TraceLevel) String() string { return trace.Level(l).String() }

// ParseTraceLevel inverts TraceLevel.String.
func ParseTraceLevel(s string) (TraceLevel, error) {
	l, err := trace.ParseLevel(s)
	return TraceLevel(l), err
}

// WithTrace records the session's cycle-event journal into w, in the
// deterministic binary format of docs/TRACE_FORMAT.md (default level
// TracePipeline; see WithTraceLevel). The journal's trailer is written
// when the session seals — after Run returns or Step ends the run — so
// the session must be driven to its end for the journal to be
// complete; Run and Step surface journal write errors at that point.
// Recording never perturbs simulation results.
func WithTrace(w io.Writer) Option {
	return func(s *settings) {
		if w == nil {
			if s.err == nil {
				s.err = fmt.Errorf("sim: WithTrace requires a non-nil writer")
			}
			return
		}
		s.traceW = w
	}
}

// WithTraceLevel sets the journal's level (default TracePipeline).
// Requires WithTrace.
func WithTraceLevel(l TraceLevel) Option {
	return func(s *settings) {
		if l < TraceCommits || l > TraceFull {
			if s.err == nil {
				s.err = fmt.Errorf("sim: invalid trace level %d", int(l))
			}
			return
		}
		s.traceLevel = l
	}
}

// WithTraceWindow restricts the journal to events in cycles
// [first, last] (last == 0 leaves the window open-ended). The journal
// is marked windowed, which relaxes the replayer's pipeline-discipline
// checks. Requires WithTrace.
func WithTraceWindow(first, last uint64) Option {
	return func(s *settings) {
		if last != 0 && last < first {
			if s.err == nil {
				s.err = fmt.Errorf("sim: invalid trace window [%d, %d]", first, last)
			}
			return
		}
		s.traceFirst, s.traceLast, s.traceWindowed = first, last, true
	}
}

// WithConfigPatch applies patch to the session's configuration after
// the preceding options: the escape hatch to every core parameter the
// named options do not cover. The patched configuration is still
// validated as a whole by New.
func WithConfigPatch(patch func(*Config)) Option {
	return func(s *settings) {
		if patch != nil {
			patch(&s.cfg)
		}
	}
}
