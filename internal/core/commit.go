package core

import (
	"fmt"

	"civect/internal/ci"
	"civect/internal/isa"
)

// commitStage retires up to CommitWidth instructions in order. Commit
// maintains the architectural register file and memory exactly; every
// reused (validated or squash-reuse) value is checked against an
// architectural recomputation and converted into a replay when wrong,
// so speculation can never corrupt architectural state. Committed
// stores write the data cache, and in vectorizing modes check the
// replica address ranges (§2.4.3: one extra commit slot per store, at
// most two stores per cycle).
func (p *Proc) commitStage() {
	width := p.cfg.CommitWidth
	storeBudget := 1 << 30
	vectorizing := p.cfg.Mode.Vectorizes()
	if vectorizing {
		storeBudget = 2
	}

	for width > 0 && p.robCount > 0 {
		idx := p.robHead
		h := &p.rob[idx]
		if h.state != stDone {
			return
		}
		in := h.in

		if in.Op == isa.OpHalt {
			if p.tracer != nil {
				p.tracer.OnTraceCommit(p.cycle, h.seq, h.pc, false, true)
			}
			p.Stats.Committed++
			p.halted = true
			return
		}

		// Architectural recomputation: exact at the head — and needed
		// only for instructions rooted in an unverified reused value
		// (h.tainted covers validated/reuseIW and their transitive
		// consumers). A clean instruction's issue-time result is exact
		// by construction: its operands came from clean producers that
		// all committed unchanged (a wrong reused value never reaches a
		// clean consumer's commit — the replay squashes the consumer
		// first), so recomputation is pure assertion. The reference
		// mode keeps asserting; differential tests compare the two.
		var archVal, archAddr uint64
		if h.tainted || p.cfg.CommitRecomputeAll {
			archVal, archAddr = p.archResult(in)
		} else {
			archVal, archAddr = h.value, h.addr
		}

		if h.validated || h.reuseIW {
			if h.value != archVal {
				// The reuse was wrong: repair and replay (§2.3.4's
				// final validation at commit, strengthened to a value
				// check).
				p.Stats.Replays++
				if in.IsLoad() {
					p.Stats.ReplayLoad++
				} else {
					p.Stats.ReplayArith++
				}
				h.value = archVal
				h.addr = archAddr
				p.writeReg(int(h.physDest), archVal)
				h.validated = false
				h.reuseIW = false
				p.replaySquash(idx)
				// Fall through and commit the corrected instruction.
			}
		} else if h.hasDest && h.value != archVal && h.executed {
			// A non-reused instruction with a wrong value is a
			// simulator bug, never a modeled event.
			panic(fmt.Sprintf("core: architectural mismatch at pc %d (%v): got %d want %d",
				h.pc, in, h.value, archVal))
		}

		im := p.metaAt(int(h.pc))
		switch {
		case im.IsStore():
			if storeBudget <= 0 {
				return
			}
			r := p.hier.DataAccess(archAddr, true)
			if !r.OK {
				return // no write port this cycle; retry
			}
			p.mem.Write64(archAddr, archVal)
			p.Stats.Stores++
			storeBudget--
			if vectorizing {
				// §2.4.3: committing a store costs an extra cycle; we
				// charge one extra commit slot.
				width--
				if p.storeRangeConflict(idx, archAddr) {
					// The conflicting entry was deallocated and younger
					// instructions squashed; commit of this store
					// already happened.
					p.finishCommit(idx, h)
					return
				}
			}
		case im.IsLoad():
			p.Stats.Loads++
			p.sp.Observe(uint64(h.pc), archAddr)
		case im.IsCondBranch():
			p.Stats.Branches++
			p.Stats.CondBranches++
			p.mbs.Update(uint64(h.pc), h.actTaken)
			if p.nrbq != nil {
				p.nrbq.RetireUpTo(h.seq)
			}
		case im.IsJump():
			p.Stats.Branches++
		}

		p.finishCommit(idx, h)
		width--
	}
}

// finishCommit applies the architectural register update, releases the
// previous mapping's register, advances replica commit cursors, and
// pops the ROB head.
func (p *Proc) finishCommit(idx int, h *robEntry) {
	if im := p.metaAt(int(h.pc)); im.IsMem() {
		p.lsqRemove(idx)
		if im.IsStore() {
			p.storeIndexRemove(idx, h)
		}
	}
	if h.hasDest {
		p.arf[h.logDest] = h.value
		// The previous-mapping checkpoint dies here: release its rename
		// register and its stridedPC list slot.
		p.releaseStrided(&h.oldRen)
		if h.oldRen.phys >= 0 {
			p.rf.Release(int(h.oldRen.phys))
			// A pending recurrence seed may have lived in that register.
			if len(p.seedWatch) > 0 {
				p.clearFreed()
				p.noteFreed(int(h.oldRen.phys))
				p.failBrokenSeeds()
			}
		}
	}

	if h.validated || h.reuseIW {
		p.Stats.CommittedReuse++
	}
	if p.tracer != nil {
		p.tracer.OnTraceCommit(p.cycle, h.seq, h.pc, h.validated || h.reuseIW, false)
	}
	// Every committed instance of a vectorized instruction advances the
	// entry's commit cursor, releasing the storage of the replica it
	// consumed (validated instances) or skipped past (normal ones),
	// and tops the batch back up.
	if p.srsmt != nil {
		if ent := p.srsmt.Lookup(uint64(h.pc)); ent != nil && h.seq > ent.CreatorSeq {
			eh := ent.TurnHeader
			if slot := ent.Slot(eh.Commit); slot != nil && slot.Dest >= 0 &&
				slot.State != ci.ReplicaIssued {
				if p.sm != nil {
					p.sm.Release(slot.Dest)
				} else {
					p.rf.Release(slot.Dest)
				}
				slot.Dest = -1
				if slot.State == ci.ReplicaWaiting {
					// Never issued and now past the commit point:
					// nothing will consume it.
					p.settleReplica(ent, slot, ci.ReplicaFailed)
				}
			}
			eh.Commit++
			p.spawnReplicas(ent)
			p.activateEntry(ent)
		}
	}

	p.Stats.Committed++
	h.valid = false
	p.robHead = p.robIndexAfter(p.robHead)
	p.robCount--
}

// storeRangeConflict implements the §2.4.3 memory-coherence check: a
// committed store whose address falls inside a vectorized load's replica
// range deallocates that entry and squashes the conventional
// instructions following the store. It reports whether a squash
// happened.
func (p *Proc) storeRangeConflict(storeIdx int, addr uint64) bool {
	conflict := false
	//civet:allow hotalloc non-escaping iterator callback; ForEachValid does not retain it (TestSteadyStateZeroAllocs pins zero allocs)
	p.srsmt.ForEachValid(func(ent *ci.Entry) bool {
		if ent.CoversAddr(addr) {
			conflict = true
			p.invalidateEntry(ent)
		}
		return true
	})
	if !conflict {
		return false
	}
	p.Stats.StoreConflicts++
	p.Stats.CoherenceSquashes++
	p.squashAfter(storeIdx)
	p.fetchPC = int(p.rob[storeIdx].pc) + 1
	p.fetchHalted = false
	p.fetchStallUntil = 0
	// Consumption cursors rewind to the committed point; DAEC is not a
	// branch-misprediction counter, so it does not tick here. Entries
	// it nonetheless reaps (DAEC already at 2, replicas now drained)
	// must wake their consumer chains and release their replica
	// storage, like every other teardown path.
	//civet:allow hotalloc non-escaping recovery callback; OnRecovery does not retain it (TestSteadyStateZeroAllocs pins zero allocs)
	p.srsmt.OnRecovery(false, func(dead *ci.Entry) {
		p.wakeConsumers(dead)
		p.releaseEntryStorage(dead)
	})
	p.resyncValidatedCursors()
	p.failBrokenSeeds()
	return true
}

// replaySquash discards everything younger than the repaired
// instruction and restarts fetch after it.
func (p *Proc) replaySquash(idx int) {
	p.squashAfter(idx)
	p.fetchPC = int(p.rob[idx].pc) + 1
	p.fetchHalted = false
	p.fetchStallUntil = 0
	if p.srsmt != nil {
		//civet:allow hotalloc non-escaping recovery callback; OnRecovery does not retain it (TestSteadyStateZeroAllocs pins zero allocs)
		p.srsmt.OnRecovery(false, func(dead *ci.Entry) {
			p.wakeConsumers(dead)
			p.releaseEntryStorage(dead)
		})
		p.resyncValidatedCursors()
	}
	p.failBrokenSeeds()
}
