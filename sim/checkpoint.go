package sim

import (
	"context"
	"errors"
	"fmt"
	"os"
	"time"

	"civect/internal/ckpt"
	"civect/internal/core"
)

// Checkpointing: a session can persist its full machine state — the
// architectural state plus every warm microarchitectural structure — as
// a CIVK container (docs/SAMPLING.md describes the format) and be
// rebuilt from it later such that the resumed run's final statistics
// are bit-identical to an uninterrupted run's. Memory is stored as
// sparse deltas against the workload's pristine initial image, so
// checkpoints reference registry workloads by name and Resume
// regenerates the image; Custom workloads (and registry workloads whose
// image was modified with SetWord) are not resumable.

// ckptStride is the cycle granularity of cancellation and cadence
// checks in a checkpointed run.
const ckptStride = 1024

// WithCheckpoint makes Run persist the session's state to path: every
// everyInstr committed instructions (0 saves only on cancellation), and
// always when the run is cancelled — so a killed run can continue from
// where it stopped via Resume. When the run completes, the checkpoint
// file is removed: a leftover file always means "resumable work".
// Incompatible with WithSampling.
func WithCheckpoint(path string, everyInstr uint64) Option {
	return func(s *settings) {
		if path == "" {
			if s.err == nil {
				s.err = errors.New("sim: WithCheckpoint requires a path")
			}
			return
		}
		s.ckptPath = path
		s.ckptEvery = everyInstr
	}
}

// Checkpoint writes the session's current state to path (atomically),
// without sealing the session: a step-driven driver can persist
// progress at any point between Steps. Sampled sessions cannot be
// checkpointed.
func (s *Session) Checkpoint(path string) error {
	if s.sampling != nil {
		return errors.New("sim: sampled sessions cannot be checkpointed")
	}
	if s.ckptBase == nil {
		s.ckptBase = s.w.newMem()
	}
	return ckpt.WriteFile(path, s.proc.SaveCheckpoint(s.ckptBase))
}

// Resume rebuilds a session from a checkpoint file. The checkpoint
// names its registry workload and configuration, so Resume needs
// nothing else; running the resumed session to completion yields final
// statistics bit-identical to an uninterrupted run's. The resumed
// session keeps path as its checkpoint file: a cancelled Run saves
// there again, so a job can be drained and resumed any number of
// times.
//
// Options may attach an observer, a trace journal or a checkpoint
// cadence/path override — but not change the machine: the checkpoint
// fixes the configuration, and any option that would alter it (mode,
// ports, budget, ...) is an error. WithSampling cannot resume. A
// panic while rebuilding the session is returned as a *PanicError.
func Resume(path string, opts ...Option) (_ *Session, err error) {
	defer recoverPanic(nil, &err)
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("sim: %w", err)
	}
	info, err := core.PeekCheckpoint(data)
	if err != nil {
		return nil, err
	}
	st, err := resolve(info.Config, opts)
	if err != nil {
		return nil, err
	}
	if st.sampling != nil {
		return nil, errors.New("sim: WithSampling cannot resume a checkpoint")
	}
	if st.cfg != info.Config {
		return nil, errors.New("sim: resume options cannot change the configuration; the checkpoint fixes the machine")
	}
	w, err := Load(info.Program)
	if err != nil {
		return nil, fmt.Errorf("sim: checkpoint program %q is not a registry workload: %w", info.Program, err)
	}
	base := w.newMem()
	p, err := core.RestoreCheckpoint(data, w.prog, base)
	if err != nil {
		return nil, err
	}
	if st.ckptPath == "" {
		st.ckptPath = path
	}
	s := &Session{w: w, cfg: info.Config, proc: p,
		ckptPath: st.ckptPath, ckptEvery: st.ckptEvery, ckptBase: base}
	if err := s.attach(&st); err != nil {
		return nil, err
	}
	return s, nil
}

// saveCheckpoint persists the running session's state to its configured
// path.
func (s *Session) saveCheckpoint() error {
	if s.ckptBase == nil {
		s.ckptBase = s.w.newMem()
	}
	return ckpt.WriteFile(s.ckptPath, s.proc.SaveCheckpoint(s.ckptBase))
}

// runCheckpointed is Run with checkpoint persistence: the same
// semantics (and bit-identical statistics — it steps the same engine),
// plus a state save on the configured cadence and on cancellation, and
// checkpoint removal on completion.
func (s *Session) runCheckpointed(ctx context.Context) (*Result, error) {
	budget := s.cfg.MaxInstr
	done := func() bool {
		return s.proc.Halted() || (budget > 0 && s.proc.Stats.Committed >= budget)
	}
	t0 := time.Now()
	lastSave := s.proc.Stats.Committed
	for !done() {
		if err := ctx.Err(); err != nil {
			s.wall += time.Since(t0)
			s.sealed = fmt.Errorf("%w: %v", ErrSessionEnded, err)
			s.closeTrace()
			serr := s.saveCheckpoint()
			stats := s.proc.Snapshot()
			res := s.makeResult(&stats, true)
			if serr != nil {
				return res, fmt.Errorf("%v; checkpoint: %w", err, serr)
			}
			return res, err
		}
		for i := 0; i < ckptStride && !done(); i++ {
			s.proc.Step()
		}
		if s.ckptEvery > 0 && s.proc.Stats.Committed-lastSave >= s.ckptEvery {
			if err := s.saveCheckpoint(); err != nil {
				s.wall += time.Since(t0)
				s.sealed = fmt.Errorf("%w: %v", ErrSessionEnded, err)
				s.closeTrace()
				return nil, err
			}
			lastSave = s.proc.Stats.Committed
		}
	}
	s.wall += time.Since(t0)
	if err := s.proc.Err(); err != nil {
		s.sealed = fmt.Errorf("%w: %v", ErrSessionEnded, err)
		s.closeTrace()
		return nil, err
	}
	s.finished = true
	s.sealed = fmt.Errorf("%w: run complete", ErrSessionEnded)
	stats := *s.proc.Finalize()
	res := s.makeResult(&stats, false)
	if err := os.Remove(s.ckptPath); err != nil && !os.IsNotExist(err) {
		return res, fmt.Errorf("sim: removing completed checkpoint: %w", err)
	}
	if terr := s.closeTrace(); terr != nil {
		return res, fmt.Errorf("sim: trace journal: %w", terr)
	}
	return res, nil
}
