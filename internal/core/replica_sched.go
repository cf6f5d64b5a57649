package core

import (
	"math/bits"

	"civect/internal/ci"
)

// Event-driven replica arbitration.
//
// The naive reference (the original scheduler, retained as EngineNaive)
// re-attempts every waiting replica every cycle: a replica blocked on
// its producer replica resolves its operands, discovers they are still
// in flight, and returns — ~10% of ci-mode CPU doing nothing. The
// event-driven engine parks such replicas (Entry.BlockedMask) and
// re-arms them only when something that could change the answer
// happens:
//
//   - a replica of the same entry settles (recurrence chains, and the
//     within-turn forward cascade of the naive ascending ring scan);
//   - a replica of a producer entry settles, the producer's allocation
//     frontier advances, or the producer dies (OperandVec chains,
//     via Entry.Consumers);
//   - the recurrence seed resolves or breaks.
//
// Arbitration order is preserved bit-for-bit. Entries wake through
// activateEntry, which re-inserts them at their creation-stamp
// position; when a wake lands mid-replicaTick the insertion index is
// reconciled with the tick cursor so an entry whose stamp position has
// already passed this cycle waits for the next one, exactly like the
// naive scan. Within an entry's turn, slots unblocked at or below the
// current scan position are deferred to the next cycle (the naive scan
// visits each ring index once, ascending), while slots above it are
// picked up this turn — the naive forward cascade.
//
// Squash/recycle hygiene: Settle clears both masks, ring reinit clears
// BlockedMask, and entry invalidation wakes the consumer chain before
// the way is cleared, so no blocked replica can survive into — or leak
// a wakeup into — a way's next incarnation.

// wheelSpan is the replica completion wheel's horizon in cycles: a
// power of two comfortably above the deepest cache-miss latency, so
// practically every in-flight completion gets an exact wake slot.
const wheelSpan = 512

// replicaTickEvent is the event-driven replicaTick. Entries whose
// every pending replica is blocked (and with no completion, seed or
// top-up work) park off the worklist entirely; entries only waiting
// out execution latency delist onto the completion wheel; everything
// else mirrors the naive turn.
//
//civet:hotpath
func (p *Proc) replicaTickEvent() {
	// Wake the entries whose completion cycle has arrived, before the
	// arbitration walk, so they take their stamp-ordered turn this
	// cycle exactly as a never-delisted scan would.
	slot := p.cycle & (wheelSpan - 1)
	bucket := p.doneWheel[slot]
	if len(bucket) > 0 {
		for _, ref := range bucket {
			if ref.live() {
				p.activateEntry(ref.ent)
			}
		}
		p.doneWheel[slot] = bucket[:0]
		p.wheelOcc[slot>>6] &^= 1 << (slot & 63)
	}
	p.inTick = true
	retired := 0
	for p.tickIdx = 0; p.tickIdx < len(p.activeEntries); p.tickIdx++ {
		ref := p.activeEntries[p.tickIdx]
		if ref.ent == nil {
			continue // listing retired earlier this tick
		}
		// The turn's skip/park decisions read the header through the
		// listing's own pointer into the packed side-array: one load
		// per field, adjacent listed ways sharing cache lines.
		h := ref.hdr
		if !ref.live() {
			p.activeEntries[p.tickIdx].ent = nil
			retired++
			continue
		}
		ent := ref.ent
		small := len(ent.Replicas) <= 64
		if h.Issue == 0 &&
			(h.SeedCaptured || h.SeedBroken || h.SeedPhys < 0) &&
			h.Alloc-h.Decode >= h.NRegs {
			idle := h.Pending == 0
			if small {
				// Blocked slots are wake-covered; only actionable ones
				// need a listing.
				idle = h.ActiveMask == 0
			}
			if idle {
				// Hysteresis: entries re-woken every cycle or two (the
				// steady commit-refill rhythm) keep their listing rather
				// than paying a sorted re-insertion per wake; only
				// persistently idle ones park.
				if h.Idle < 8 {
					h.Idle++
					continue
				}
				h.Listed = false
				p.activeEntries[p.tickIdx].ent = nil
				retired++
				continue
			}
			if p.issueBudget <= 0 {
				continue // nothing can issue; keep the listing
			}
		} else if small && p.cycle < h.NextDone &&
			h.ActiveMask&^h.IssuedMask == 0 &&
			(h.SeedCaptured || h.SeedBroken || h.SeedPhys < 0) &&
			h.Alloc-h.Decode >= h.NRegs {
			// Only in-flight executions remain and none retires yet:
			// every turn until NextDone would poll DoneAt and do
			// nothing else (NextDone never over-estimates). Sleep on
			// the completion wheel when its horizon covers the wait;
			// an intervening operand wake re-lists the entry early and
			// the then-redundant wheel wake is a no-op.
			if h.NextDone-p.cycle < wheelSpan {
				h.Listed = false
				p.activeEntries[p.tickIdx].ent = nil
				retired++
				b := h.NextDone & (wheelSpan - 1)
				p.doneWheel[b] = append(p.doneWheel[b], ref)
				p.wheelOcc[b>>6] |= 1 << (b & 63)
			}
			continue
		}
		h.Idle = 0
		if p.captureSeed(ent) {
			p.unblockEntry(ent)
		}
		if small {
			p.scanEnt, p.scanVisited = ent, 0
			p.turnNextDone = ^uint64(0)
			for {
				m := h.ActiveMask &^ p.scanVisited
				if m == 0 {
					break
				}
				j := bits.TrailingZeros64(m)
				p.scanPos = j
				p.scanVisited |= 1 << uint(j)
				p.replicaSlotTick(ent, &ent.Replicas[j])
			}
			p.scanEnt = nil
			h.NextDone = p.turnNextDone
		} else {
			for i := range ent.Replicas {
				if ent.Replicas[i].Abs < 0 {
					continue
				}
				p.replicaSlotTick(ent, &ent.Replicas[i])
			}
		}
		if h.Alloc-h.Decode < h.NRegs {
			p.spawnReplicas(ent)
		}
	}
	p.inTick = false
	if retired > 0 {
		live := p.activeEntries[:0]
		for _, ref := range p.activeEntries {
			if ref.ent != nil {
				live = append(live, ref)
			}
		}
		p.activeEntries = live
	}
}

// settleReplica retires a pending slot and fires the wakeups its state
// change enables: the entry's own chained replicas (recurrences) and
// the consumer entries reading this entry's replicas.
func (p *Proc) settleReplica(ent *ci.Entry, slot *ci.Replica, st ci.ReplicaState) {
	ent.Settle(slot, st)
	if p.eventSched {
		// Inline fast paths: most settles find nothing parked on them.
		h := ent.TurnHeader
		if h.BlockedMask != 0 || !h.Listed {
			p.unblockEntry(ent)
		}
		if len(ent.Consumers) != 0 {
			p.wakeConsumers(ent)
		}
	}
}

// blockSlot parks a waiting replica whose operand resolution returned
// inputWait. Rings beyond the mask width never block (they keep the
// naive per-cycle re-attempt), and the naive scheduler never blocks.
func (p *Proc) blockSlot(ent *ci.Entry, slot *ci.Replica) {
	if p.eventSched && len(ent.Replicas) <= 64 {
		ent.Block(slot)
	}
}

// unblockEntry re-arms an entry's blocked replicas and (re-)lists it
// for arbitration. When the entry is the one currently being scanned,
// slots at or below the scan position already had their naive-order
// look this cycle and are deferred to the next one.
func (p *Proc) unblockEntry(ent *ci.Entry) {
	if m := ent.Unblock(); m != 0 && ent == p.scanEnt {
		p.scanVisited |= m & (1<<uint(p.scanPos+1) - 1)
	}
	if !ent.Listed {
		p.activateEntry(ent)
	}
}

// wakeConsumers wakes every live entry chained to producer ent,
// compacting dead incarnations from the chain as it goes.
func (p *Proc) wakeConsumers(ent *ci.Entry) {
	if len(ent.Consumers) == 0 {
		return
	}
	live := ent.Consumers[:0]
	for _, c := range ent.Consumers {
		if !c.Live() {
			continue
		}
		p.unblockEntry(c.Ent)
		live = append(live, c)
	}
	ent.Consumers = live
}

// nextWheelWake returns the earliest cycle strictly after cur with a
// scheduled completion-wheel wake — the replica scheduler's
// earliest-wake bound for the fast-forward engine. The wheel's bucket
// for a cycle is drained on that cycle (and fast-forward never jumps
// past a set bucket), so every occupied bucket maps to the unique
// matching cycle within the next wheelSpan cycles; the occupancy
// bitmap makes the lookup a few word scans. Stale listings (dead
// incarnations) keep their bucket occupied until its cycle arrives —
// a jump may land on a wake that does nothing, never miss one.
func (p *Proc) nextWheelWake(cur uint64) (uint64, bool) {
	const words = wheelSpan / 64
	start := (cur + 1) & (wheelSpan - 1)
	for i := 0; i <= words; i++ {
		wi := (int(start)>>6 + i) & (words - 1)
		word := p.wheelOcc[wi]
		switch i {
		case 0:
			word &= ^uint64(0) << (start & 63)
		case words: // wrapped back to the first word: only the low bits remain
			word &= 1<<(start&63) - 1
		}
		if word != 0 {
			slot := uint64(wi<<6) + uint64(bits.TrailingZeros64(word))
			return cur + 1 + ((slot - start) & (wheelSpan - 1)), true
		}
	}
	return 0, false
}

// invalidateEntry tears an entry down: its consumer chain is woken (so
// their blocked replicas re-resolve and fail, exactly when the naive
// re-attempt would discover the death), its replica storage released,
// and the way invalidated.
func (p *Proc) invalidateEntry(ent *ci.Entry) {
	p.wakeConsumers(ent)
	p.releaseEntryStorage(ent)
	p.srsmt.Invalidate(ent)
}
