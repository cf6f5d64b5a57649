package core

import (
	"fmt"
	"os"

	"civect/internal/ci"
)

// completeStage retires finished executions: results are written to the
// register file, stores mark their address/value architectural-ready,
// and branches resolve. A mispredicted branch triggers recovery: the
// wrong path is squashed, fetch redirects, and — for hard-to-predict
// branches — the control-independence machinery activates (§2.3.1,
// §2.4.4). Replicas are not squashed.
func (p *Proc) completeStage() {
	if len(p.execQ) == 0 || p.cycle < p.execMinDone {
		// Nothing in flight can retire yet: execMinDone lower-bounds
		// every doneAt in the queue (an under-estimate after squashes
		// only costs a scan), so skipping the walk is exact.
		return
	}
	recoverIdx := -1
	var recoverSeq uint64
	next := ^uint64(0)
	out := p.execQ[:0]
	for _, w := range p.execQ {
		e := &p.rob[w.idx]
		if !e.valid || e.seq != w.seq || e.state != stExecuting {
			continue
		}
		if e.doneAt > p.cycle {
			if e.doneAt < next {
				next = e.doneAt
			}
			out = append(out, w)
			continue
		}
		e.state = stDone
		e.executed = true
		if e.hasDest {
			p.writeReg(int(e.physDest), e.value)
		}
		im := p.metaAt(int(e.pc))
		if im.IsLoad() && p.srsmt != nil && !e.fwdStore {
			// A completed strided load anchors a fresh replica batch if
			// the mechanism has selected it and no entry exists yet.
			p.maybeVectorizeLoad(int(e.pc), e.in, e.addr, e.seq)
		}
		if im.IsCondBranch() {
			// Train the direction predictor at resolution with the
			// history the prediction was made under.
			p.bp.TrainAt(uint64(e.pc), e.actTaken, e.histSnapshot)
			if e.mispredicted && (recoverIdx < 0 || e.seq < recoverSeq) {
				recoverIdx = w.idx
				recoverSeq = e.seq
			}
		}
	}
	p.execQ = out
	p.execMinDone = next
	if recoverIdx >= 0 {
		// The entry may have been squashed by an older branch resolving
		// in the same batch; recover only if it is still live.
		e := &p.rob[recoverIdx]
		if e.valid && e.seq == recoverSeq {
			p.recoverBranch(recoverIdx)
		}
	}
}

// nextCompletion returns the earliest cycle an in-flight execution can
// retire — the completion-queue contribution to the fast-forward
// engine's next-event aggregation. execMinDone can under-estimate
// after a squash (stale entries are dropped at the next scan); a jump
// landing on such a cycle just scans, finds nothing due, tightens the
// bound and re-skips, so the under-estimate costs a scan, never
// correctness.
func (p *Proc) nextCompletion() (uint64, bool) {
	if len(p.execQ) == 0 {
		return 0, false
	}
	return p.execMinDone, true
}

// recoverBranch performs misprediction recovery for the branch in ROB
// slot idx.
func (p *Proc) recoverBranch(idx int) {
	e := &p.rob[idx]
	p.Stats.Mispredicts++

	// CI: initialise the CRP mask with the registers the wrong path
	// wrote between the branch and the re-convergent point (§2.3.2:
	// "written since the branch was fetched and before the
	// re-convergent point is reached, in either the wrong or the
	// correct path"). The NRBQ's per-region masks are the paper's
	// hardware approximation of this; because our wrong paths run many
	// loop iterations deep, the region OR would cover the whole loop
	// body and disqualify everything (including the paper's own I11),
	// so we read the same information exactly from the in-flight
	// window before it is squashed. Accumulation continues on the
	// correct path via CRP.NoteFetch until the point is re-reached.
	hard := p.mbs.Hard(uint64(e.pc)) || p.cfg.DisableMBSGate
	reconv := ci.EstimateReconvergence(p.prog, int(e.pc))
	var mask ci.RegMask
	maskOK := p.nrbq != nil
	if maskOK {
		i := p.robIndexAfter(idx)
		for i != p.robTail {
			we := &p.rob[i]
			i = p.robIndexAfter(i)
			if !we.valid {
				continue
			}
			if int(we.pc) == reconv {
				break // wrong-path writes beyond the point do not count
			}
			if we.hasDest {
				mask.Set(we.logDest)
			}
		}
	}

	// Squash reuse (ci-iw): harvest completed control-independent
	// wrong-path results before they disappear.
	if p.iwTable != nil && hard && maskOK {
		p.captureIW(idx, reconv, mask)
	}

	p.squashAfter(idx)

	// Repair the global history: roll back to the branch's fetch-time
	// snapshot and shift in the actual outcome. (squashAfter restored
	// the history of the oldest squashed instruction; the branch's own
	// snapshot supersedes it.)
	p.bp.RestoreHistory(e.histSnapshot)
	p.bp.SpeculativeShift(e.actTaken)

	p.fetchPC = int(e.actTarget)
	p.fetchHalted = false
	p.fetchStallUntil = 0

	if debugTrace {
		//civet:allow hotalloc trace formatting only runs when CIVECT_TRACE is set; production runs never reach it
		fmt.Fprintf(os.Stderr, "[%d] mispredict pc=%d hard=%v maskOK=%v reconv=%d\n", p.cycle, e.pc, hard, maskOK, reconv)
	}
	// Episodes are scoped misprediction-to-misprediction: close the
	// previous one, then open a new one for hard branches (the only
	// ones the scheme activates for, §2.3.1).
	p.closeEpisode()
	if hard {
		p.Stats.HardMispredicts++
		if p.nrbq != nil && maskOK {
			p.openEpisode()
			p.crp.Activate(reconv, mask)
		}
	} else if p.nrbq != nil {
		p.crp.Deactivate()
	}

	// §2.4.4: copy commit into decode for every SRSMT entry; no replica
	// is squashed, no replica resource deallocated — except entries
	// whose DAEC reaches 2 (§2.4.2).
	if p.srsmt != nil {
		//civet:allow hotalloc non-escaping recovery callback; OnRecovery does not retain it (TestSteadyStateZeroAllocs pins zero allocs)
		p.srsmt.OnRecovery(!p.cfg.DisableDAEC, func(dead *ci.Entry) {
			p.wakeConsumers(dead)
			p.releaseEntryStorage(dead)
		})
		p.resyncValidatedCursors()
	}
	p.failBrokenSeeds()
}

// squashAfter removes every ROB entry younger than idx, restoring the
// rename map (tail-first), releasing rename registers, and cleaning the
// LSQ, NRBQ and fetch buffer. Freed registers are collected so pending
// replica seeds can be invalidated.
func (p *Proc) squashAfter(idx int) {
	keepSeq := p.rob[idx].seq
	p.clearFreed()

	// The discarded instructions' speculative branch-history shifts
	// must be undone: restore the snapshot of the oldest discarded
	// instruction. The fetch buffer is younger than everything in the
	// ROB, so any squashed ROB entry's snapshot supersedes it.
	if p.fetchLen() > 0 {
		p.bp.RestoreHistory(p.fetchFront().histSnapshot)
	}

	i := p.robIndexBefore(p.robTail)
	squashed := 0
	for p.robCount > 0 {
		e := &p.rob[i]
		if e.seq <= keepSeq {
			break
		}
		squashed++
		if p.metaAt(int(e.pc)).IsStore() {
			p.storeIndexRemove(i, e)
		}
		if e.hasDest {
			// The squashed writer's own map entry (restored over here, or
			// already moved into a younger sibling's checkpoint and
			// restored from it) dies with the squash: release its
			// stridedPC list before the overwrite.
			p.releaseStrided(&p.ren[e.logDest])
			p.ren[e.logDest] = e.oldRen
			p.rf.Release(int(e.physDest))
			p.noteFreed(int(e.physDest))
		}
		p.bp.RestoreHistory(e.histSnapshot)
		e.valid = false
		p.robTail = i
		p.robCount--
		p.Stats.SquashedBP++
		i = p.robIndexBefore(i)
	}

	// Drop squashed memory operations from the LSQ (double-buffered
	// with lsqFiltered to avoid per-squash allocation).
	keep := p.lsqFiltered[:0]
	for _, li := range p.lsq {
		if p.rob[li].valid && p.rob[li].seq <= keepSeq {
			keep = append(keep, li)
		}
	}
	p.lsqFiltered, p.lsq = p.lsq[:0], keep

	if p.nrbq != nil {
		p.nrbq.SquashYoungerThan(keepSeq)
	}
	p.fetchClear()
	if p.tracer != nil {
		p.tracer.OnTraceSquash(p.cycle, keepSeq, squashed)
	}
	// Entries created by squashed (wrong-path) instructions survive —
	// "no speculative vectorized instruction is squashed" (§2.4.4).
	// Stale state they may carry is caught piecemeal: broken recurrence
	// seeds by failBrokenSeeds, producer-cursor skew by the lockstep
	// invariant in tryValidate, and misanchored load batches by the
	// address check in advanceValidated.
}

// failBrokenSeeds marks replica recurrence seeds whose physical register
// was just released; their replica 0 can no longer produce a value. The
// watch list is compacted as seeds resolve.
func (p *Proc) failBrokenSeeds() {
	if len(p.seedWatch) == 0 || p.freedCount == 0 {
		return
	}
	live := p.seedWatch[:0]
	for _, ref := range p.seedWatch {
		if !ref.live() {
			continue
		}
		ent := ref.ent
		if ent.SeedCaptured || ent.SeedBroken || ent.SeedPhys < 0 {
			continue
		}
		if p.wasFreed(ent.SeedPhys) {
			ent.SeedBroken = true
			if p.eventSched {
				// Replica 0 may be parked on the seed; wake it so it
				// discovers the break and fails.
				p.unblockEntry(ent)
			}
			continue
		}
		live = append(live, ref)
	}
	p.seedWatch = live
}
