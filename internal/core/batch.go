package core

import (
	"context"
	"errors"
	"fmt"

	"civect/internal/isa"
	"civect/internal/mem"
)

// Batched lockstep multi-configuration engine.
//
// A sweep runs many configuration points of the same workload; most of
// their construction work (program validation, per-PC predecode) and
// much of their per-cycle working set (the static program, the shared
// instruction metadata) is identical. BatchProc holds K independent
// pipeline states — one Proc per configuration lane — over one program
// (decoded once, see isa.Program.Decode), and steps the lanes in
// frontier-synchronized lockstep: each round advances every live lane
// to a common cycle frontier, so the shared read-only state stays hot
// across lanes while the per-lane mutable state (rename/ROB/SRSMT/cache
// arrays, themselves SoA-packed inside each Proc — see ci.TurnHeader)
// is touched in long dense chunks rather than cycle-by-cycle
// interleave.
//
// Lanes retire independently: a lane that halts or exhausts its
// committed-instruction budget leaves the rotation and reports its
// final statistics immediately, while the rest keep stepping. When
// divergence empties the rotation down to a single live lane, the
// engine falls back to running that lane straight through the existing
// per-lane fast-forward engine (no frontier bookkeeping) — lockstep
// pays only while there is cross-lane locality to exploit.
//
// Every lane steps through exactly the same Proc.step cycle loop a
// single-configuration run uses, so per-lane statistics are
// bit-identical to sequential runs by construction; the differential
// suite (batch_test.go) proves it per cell across all three engines.

// batchChunk is the lockstep round length in cycles. The trade is
// between rotation overhead and shared-state residency: each lane
// switch refills the cache with the incoming lane's private pipeline
// state (rename/ROB/SRSMT/cache arrays — much larger than the shared
// program metadata), so short rounds thrash. 4096-cycle rounds
// measured ~3-4% slower than running lanes back-to-back on
// `ciexp -exp all`; 64k-cycle rounds close that gap while still
// rotating every few milliseconds of wall clock.
const batchChunk = 65536

// watchdogCycles is the forward-progress bound shared by RunContext
// and the batch engine: a pipeline that commits nothing for this many
// cycles is a simulator bug and fails loudly instead of spinning.
const watchdogCycles = 500_000

// laneStatus reports why a lane's lockstep turn ended.
type laneStatus uint8

const (
	// laneAtFrontier: the round's cycle frontier was reached with work
	// remaining.
	laneAtFrontier laneStatus = iota
	// laneFinished: the program halted or the committed-instruction
	// budget is exhausted.
	laneFinished
	// laneCycleBound: the cycle safety bound was exceeded.
	laneCycleBound
	// laneStalled: the no-commit-progress watchdog tripped.
	laneStalled
	// laneCanceled: the run context fired at a cycle boundary.
	laneCanceled
)

// laneState is one configuration lane's stepping bookkeeping.
type laneState struct {
	p *Proc
	// maxCycles is the lane's cycle safety bound (Config.MaxCycles,
	// defaulted exactly as RunContext defaults it).
	maxCycles uint64
	// Watchdog state: the last observed committed count and the cycle
	// it moved.
	lastCommit      uint64
	lastCommitCycle uint64
	// ctxCheck counts steps down to the next context poll.
	ctxCheck int
	// done marks a lane out of the rotation (result already reported).
	done bool
}

// stepChunk advances the lane until the cycle frontier, a terminal
// condition, or a context poll stops it. It is the batched engine's
// per-lane hot loop: one tight rotation turn over Proc.step, with all
// error rendering kept out in the caller.
//
//civet:hotpath
func (ls *laneState) stepChunk(frontier uint64, done <-chan struct{}) laneStatus {
	p := ls.p
	for {
		if p.halted || (p.cfg.MaxInstr > 0 && p.Stats.Committed >= p.cfg.MaxInstr) {
			return laneFinished
		}
		if p.cycle >= frontier {
			return laneAtFrontier
		}
		if p.cycle >= ls.maxCycles {
			return laneCycleBound
		}
		if done != nil {
			if ls.ctxCheck--; ls.ctxCheck <= 0 {
				ls.ctxCheck = ctxCheckInterval
				select {
				case <-done:
					return laneCanceled
				default:
				}
			}
		}
		p.step()
		if p.Stats.Committed != ls.lastCommit {
			ls.lastCommit = p.Stats.Committed
			ls.lastCommitCycle = p.cycle
		} else if p.cycle-ls.lastCommitCycle > watchdogCycles {
			return laneStalled
		}
	}
}

// BatchProc steps K configuration lanes of one shared program in
// frontier-synchronized lockstep. Build with NewBatchProc, run with
// RunContext; single-use, not safe for concurrent use.
type BatchProc struct {
	lanes []laneState
	// chunk is the lockstep round length, batchChunk except in tests
	// that need several rounds out of short programs.
	chunk uint64
	ran   bool
}

// NewBatchProc builds one pipeline lane per configuration, all over
// the program prog. mems[i] is lane i's private initial data
// image (the lane owns and mutates it; nil means an empty image);
// len(mems) must equal len(cfgs). Every configuration is validated
// eagerly, so a BatchProc that constructs is guaranteed runnable.
func NewBatchProc(prog *isa.Program, cfgs []Config, mems []*mem.Memory) (*BatchProc, error) {
	if prog == nil {
		return nil, errors.New("core: nil program")
	}
	if len(cfgs) == 0 {
		return nil, errors.New("core: batch needs at least one lane")
	}
	if len(mems) != len(cfgs) {
		return nil, fmt.Errorf("core: batch has %d configs but %d memory images", len(cfgs), len(mems))
	}
	b := &BatchProc{lanes: make([]laneState, len(cfgs)), chunk: batchChunk}
	for i, cfg := range cfgs {
		p, err := New(cfg, prog, mems[i])
		if err != nil {
			return nil, fmt.Errorf("core: batch lane %d: %w", i, err)
		}
		maxCycles := cfg.MaxCycles
		if maxCycles == 0 {
			maxCycles = 200_000_000
		}
		b.lanes[i] = laneState{p: p, maxCycles: maxCycles, ctxCheck: ctxCheckInterval}
	}
	return b, nil
}

// Lanes returns the number of configuration lanes.
func (b *BatchProc) Lanes() int { return len(b.lanes) }

// Proc returns lane i's processor (observer/tracer wiring before the
// run, state inspection after it).
func (b *BatchProc) Proc(i int) *Proc { return b.lanes[i].p }

// laneError renders a lane's terminal status as RunContext would.
func laneError(ls *laneState, st laneStatus) error {
	p := ls.p
	switch st {
	case laneCycleBound:
		return fmt.Errorf("core: cycle bound %d exceeded (committed %d)", ls.maxCycles, p.Stats.Committed)
	case laneStalled:
		return fmt.Errorf("core: no commit progress for 500k cycles at cycle %d (mode %v, head state %v)",
			p.cycle, p.cfg.Mode, p.headState())
	}
	return nil
}

// finishLane finalizes a terminal lane and reports it. Statistics are
// nil for hard errors (cycle bound, watchdog), partial-but-well-formed
// for cancellation, final otherwise — the same contract as
// Proc.RunContext, per lane.
func (b *BatchProc) finishLane(i int, st laneStatus, ctx context.Context, onLane func(int, *Stats, error)) {
	ls := &b.lanes[i]
	ls.done = true
	switch st {
	case laneFinished:
		onLane(i, ls.p.Finalize(), nil)
	case laneCanceled:
		onLane(i, ls.p.Finalize(), ctx.Err())
	default:
		onLane(i, nil, laneError(ls, st))
	}
}

// RunContext runs every lane to its own halt or budget, reporting each
// lane's outcome through onLane(lane, stats, err) the moment the lane
// retires — lanes finish in simulation order, not lane order. The
// per-lane contract matches Proc.RunContext exactly: cancellation
// stops every remaining lane at its next cycle boundary and reports
// partial, well-formed statistics with ctx.Err(); cycle-bound and
// watchdog failures report a nil Stats with the lane's error.
// RunContext itself returns ctx.Err() on cancellation, else the first
// hard lane error, else nil. Single-use.
func (b *BatchProc) RunContext(ctx context.Context, onLane func(lane int, st *Stats, err error)) error {
	if b.ran {
		return errors.New("core: batch already ran")
	}
	b.ran = true
	if onLane == nil {
		onLane = func(int, *Stats, error) {}
	}
	done := ctx.Done()
	live := len(b.lanes)
	var firstErr error
	canceled := false

	// Frontier rounds: advance every live lane to a common cycle
	// frontier, retiring lanes as they finish. The frontier tracks the
	// laggard lane (max of lane cycles at round start + chunk), so a
	// lane whose fast-forward engine overshoots a round boundary simply
	// sits out rounds until the frontier catches up — divergent lanes
	// cost nothing.
	frontier := uint64(0)
	for live > 1 {
		frontier += b.chunk
		for i := range b.lanes {
			ls := &b.lanes[i]
			if ls.done {
				continue
			}
			st := ls.stepChunk(frontier, done)
			if st == laneAtFrontier {
				continue
			}
			if st == laneCanceled {
				canceled = true
				break
			}
			b.finishLane(i, st, ctx, onLane)
			live--
			if firstErr == nil {
				firstErr = laneError(ls, st)
			}
		}
		if canceled {
			break
		}
	}

	// Fallback: a single live lane (or a canceled run) has no
	// cross-lane locality left — run it straight through the per-lane
	// engine with no frontier bookkeeping.
	if !canceled && live == 1 {
		for i := range b.lanes {
			ls := &b.lanes[i]
			if ls.done {
				continue
			}
			st := ls.stepChunk(^uint64(0), done)
			if st == laneCanceled {
				canceled = true
				break
			}
			b.finishLane(i, st, ctx, onLane)
			if firstErr == nil {
				firstErr = laneError(ls, st)
			}
		}
	}

	if canceled {
		// Every remaining lane stops at its current cycle boundary with
		// partial statistics, exactly as a per-lane RunContext would.
		for i := range b.lanes {
			if !b.lanes[i].done {
				b.finishLane(i, laneCanceled, ctx, onLane)
			}
		}
		return ctx.Err()
	}
	return firstErr
}
