package core

import (
	"fmt"
	"math/bits"
	"os"

	"civect/internal/ci"
	"civect/internal/isa"
)

// debugTrace enables stderr event tracing of SRSMT lifecycle events.
var debugTrace = os.Getenv("CIVECT_TRACE") != ""

// valResult classifies a validation attempt (§2.3.4).
type valResult int

const (
	// valOK: the instruction reuses the next replica.
	valOK valResult = iota
	// valFail: operand identities or the stride changed; the entry is
	// torn down and the instruction re-vectorized with new operands.
	valFail
	// valNoReplica: the operands still match but no replica is
	// available yet; the instruction executes normally and the entry
	// survives.
	valNoReplica
)

// tryValidate checks a fetched instruction against its SRSMT entry and,
// on success, consumes the next replica (advancing the Decode cursor).
func (p *Proc) tryValidate(e *robEntry, ent *ci.Entry, snap []renEntry) valResult {
	h := ent.TurnHeader
	in := e.in
	if ent.Instr != in {
		// Different instruction aliased into the same PC slot (cannot
		// happen with PC-indexed programs, but stay defensive).
		return valFail
	}
	if ent.IsLoad {
		// "For a load, the stride must keep on being the same."
		se := p.sp.Lookup(uint64(e.pc))
		if se == nil || !se.Confident() || se.Stride != ent.Stride {
			p.Stats.ValFailStride++
			return valFail
		}
	} else {
		// Arithmetic: the producers currently found in the rename table
		// must match the seq1/seq2 identities recorded at vectorization.
		refs := [2]ci.OperandRef{ent.Src1, ent.Src2}
		for i := 0; i < int(e.nsrc); i++ {
			switch refs[i].Kind {
			case ci.OperandVec:
				// The operand must still be produced by the same static
				// instruction, its entry must still be the generation we
				// chained to, and the two instance streams must still be
				// in lockstep: the producer decodes exactly once per
				// consumer instance, so its cursor must sit at
				// Base + Decode + 1 when this instance validates.
				prod := p.srsmt.Lookup(refs[i].PC)
				if int64(snap[i].writerPC) != int64(refs[i].PC) ||
					prod == nil || prod.Gen != refs[i].Gen ||
					prod.Decode != refs[i].Base+h.Decode+1 {
					p.Stats.ValFailVec++
					return valFail
				}
			case ci.OperandSelf:
				// The accumulator must still be fed by this
				// instruction's own previous instance (validated or
				// not — the replica chain value is the same).
				if snap[i].writerPC != e.pc {
					p.Stats.ValFailSelf++
					return valFail
				}
			case ci.OperandScalar:
				// The scalar operand's value must be unchanged; an
				// unready or different value fails conservatively.
				if snap[i].vec || !p.rf.Ready(int(snap[i].phys)) ||
					p.rf.Value(int(snap[i].phys)) != refs[i].Value {
					p.Stats.ValFailScalar++
					return valFail
				}
			default:
				return valFail
			}
		}
	}
	slot := ent.Slot(h.Decode)
	if slot == nil && h.Alloc-h.Decode >= len(ent.Replicas) {
		// The cursor is stranded: recovery rollbacks have pushed it so
		// far behind the allocation frontier that its ring slot has
		// been recycled, and with the frontier this far ahead it can
		// never catch up. Tear the entry down; it will be recreated
		// anchored near the current frontier.
		p.Stats.ValFailSlot++
		return valFail
	}
	if slot == nil || slot.State == ci.ReplicaWaiting {
		// No replica was allocated for this instance, or it never got
		// an issue slot: there is no precomputed work to reuse, so
		// execute normally but keep the cursor aligned with the
		// instance stream. (An unissued replica's storage is reclaimed
		// when the commit cursor passes it.)
		h.Decode++
		p.srsmt.Touch(ent)
		p.activateEntry(ent)
		p.Stats.ValNoReplica++
		if debugTrace {
			//civet:allow hotalloc trace formatting only runs when CIVECT_TRACE is set; production runs never reach it
			fmt.Fprintf(os.Stderr, "[%d] noreplica pc=%d decode=%d alloc=%d commit=%d\n", p.cycle, e.pc, h.Decode-1, h.Alloc, h.Commit)
		}
		return valNoReplica
	}
	if slot.State == ci.ReplicaFailed {
		p.Stats.ValFailSlot++
		return valFail
	}
	e.validated = true
	e.valEntry = ent
	e.valGen = h.Gen
	e.valIdx = int32(h.Decode)
	h.Decode++
	p.srsmt.Touch(ent)
	p.spawnReplicas(ent)
	p.activateEntry(ent)
	return valOK
}

// maybeVectorizeLoad creates an SRSMT entry and replica batch for a
// strided load (§2.3.3). In ModeCI the load must have been selected
// (S flag); ModeVect vectorizes every confident strided load.
//
// Creation happens when an instance of the load completes execution:
// its effective address anchors the replica address sequence exactly.
// (If the instance turns out to be on a wrong path, the entry is torn
// down by the squash logic.) Instances already decoded when the entry
// appears can never validate, so the decode cursor starts at their
// count: the first replica lines up with the first instance that can
// actually validate against it.
func (p *Proc) maybeVectorizeLoad(pc int, in isa.Instr, addr uint64, creatorSeq uint64) {
	se := p.sp.Lookup(uint64(pc))
	if se == nil || !se.Confident() || se.Stride == 0 {
		return
	}
	if p.cfg.Mode == ModeCI && !se.S {
		return
	}
	if p.srsmt.Lookup(uint64(pc)) != nil {
		return
	}
	w := p.srsmt.AllocCandidate(uint64(pc))
	if w == nil {
		return
	}
	if w.Valid {
		p.invalidateEntry(w)
	}
	ent := p.srsmt.Init(w, uint64(pc), in)
	ent.IsLoad = true
	ent.Stride = se.Stride
	ent.CreatorSeq = creatorSeq
	// Replica abs reads BatchBase + Stride·(abs+1), with abs 0 being
	// the first instance after the creator. Instances already decoded
	// (they can never validate) advance the decode cursor; none of them
	// has committed yet, so the commit cursor starts at zero and
	// catches up as they retire.
	ent.BatchBase = addr
	skip := p.inflightInstances(pc, creatorSeq)
	ent.Decode, ent.Commit, ent.Alloc = skip, 0, skip
	p.initReplicaRing(ent)
	p.Stats.VectorizedEntries++
	if debugTrace {
		//civet:allow hotalloc trace formatting only runs when CIVECT_TRACE is set; production runs never reach it
		fmt.Fprintf(os.Stderr, "[%d] create-load pc=%d skip=%d\n", p.cycle, pc, skip)
	}
	p.enlistNew(ent)
	p.spawnReplicas(ent)
}

// enlistNew stamps a freshly created entry incarnation and appends it
// to the active worklist (stamps are monotonic, so appending keeps the
// list sorted).
func (p *Proc) enlistNew(ent *ci.Entry) {
	p.entryStamp++
	h := ent.TurnHeader
	h.Stamp = p.entryStamp
	h.Listed = true
	p.activeEntries = append(p.activeEntries, refTo(ent))
}

// activateEntry re-inserts a parked entry into the worklist at its
// stamp position, so it competes for replica issue bandwidth exactly
// where a never-parked scan would have placed it. Call it after any
// cursor movement that can create replica work, and from the wakeup
// engine. Wakes landing mid-replicaTick reconcile the insertion index
// with the tick cursor: an entry whose stamp position the tick has
// already passed keeps its listing but waits for the next cycle, just
// as the naive scan would have found nothing actionable at its turn.
func (p *Proc) activateEntry(ent *ci.Entry) {
	if ent.Listed || !ent.Valid {
		return // inlinable fast path: most activations find the entry listed
	}
	p.listEntry(ent)
}

// listEntry is activateEntry's insertion slow path.
func (p *Proc) listEntry(ent *ci.Entry) {
	h := ent.TurnHeader
	h.Listed = true
	h.Idle = 0
	i, j := 0, len(p.activeEntries)
	for i < j {
		m := (i + j) / 2
		if p.activeEntries[m].stamp < h.Stamp {
			i = m + 1
		} else {
			j = m
		}
	}
	p.activeEntries = append(p.activeEntries, entryRef{})
	copy(p.activeEntries[i+1:], p.activeEntries[i:])
	p.activeEntries[i] = refTo(ent)
	if p.inTick && i <= p.tickIdx {
		p.tickIdx++
	}
}

// inflightInstances counts decoded dynamic instances of the static
// instruction at pc younger than the creator. (Instructions in the
// fetch buffer have not decoded yet; they will find the entry and
// validate, so they are not skipped.)
func (p *Proc) inflightInstances(pc int, creatorSeq uint64) int {
	n := 0
	i := p.robHead
	for c := 0; c < p.robCount; c++ {
		if p.rob[i].valid && int(p.rob[i].pc) == pc && p.rob[i].seq > creatorSeq {
			n++
		}
		i = p.robIndexAfter(i)
	}
	return n
}

// maybeVectorizeArith vectorizes an instruction at least one of whose
// source operands is produced by a vectorized instruction ("every time
// an instruction is fetched, it is checked whether any of its source
// operands is the outcome of a previously vectorized instruction, and if
// this is the case, it is also speculatively vectorized").
//
// destPhys is the current (triggering) instance's own destination
// register: replica 0 corresponds to the NEXT dynamic instance, so a
// self-recurrence must seed from the triggering instance's result, not
// from the previous one's.
func (p *Proc) maybeVectorizeArith(pc int, in isa.Instr, snap []renEntry, destPhys int, creatorSeq uint64) {
	anyVec := false
	for i := range snap {
		if snap[i].vec {
			anyVec = true
			break
		}
	}
	if !anyVec || p.srsmt.Lookup(uint64(pc)) != nil {
		return
	}

	var refs [2]ci.OperandRef
	seedPhys := -1
	srcs := p.metaAt(pc).Srcs()
	for i := range snap {
		sn := snap[i]
		switch {
		case (srcs[i] == in.Rd && int(sn.writerPC) == pc) || (sn.vec && sn.vecPC == uint64(pc)):
			// A genuine loop-carried recurrence: the operand register
			// is this instruction's own destination AND its current
			// value comes from this instruction's previous instance.
			// Replica k chains on replica k-1, seeded by the
			// triggering instance's own result.
			refs[i] = ci.OperandRef{Kind: ci.OperandSelf}
			seedPhys = destPhys
		case sn.vec:
			prod := p.srsmt.Lookup(sn.vecPC)
			if prod == nil || prod.Gen != sn.vecGen {
				return // producer entry is gone; nothing to chain to
			}
			refs[i] = ci.OperandRef{Kind: ci.OperandVec, PC: sn.vecPC, Gen: sn.vecGen, Prod: prod, Base: prod.Decode}
		default:
			if !p.rf.Ready(int(sn.phys)) {
				// The paper stalls decode until the scalar value is
				// ready; we skip vectorizing this time instead.
				return
			}
			refs[i] = ci.OperandRef{Kind: ci.OperandScalar, Value: p.rf.Value(int(sn.phys))}
		}
	}

	w := p.srsmt.AllocCandidate(uint64(pc))
	if w == nil {
		return
	}
	if w.Valid {
		p.invalidateEntry(w)
	}
	ent := p.srsmt.Init(w, uint64(pc), in)
	ent.Src1, ent.Src2 = refs[0], refs[1]
	ent.NSrc = uint8(len(srcs))
	// Chain onto the producers' wakeup lists so replicas blocked on
	// their values are re-armed when those values settle. (AllocCandidate
	// may have recycled a producer's way for this very entry; the stale
	// generation in the ref makes such a chain resolve to inputFail, and
	// the registration is dropped on the first wake.)
	if p.eventSched {
		if ent.Src1.Kind == ci.OperandVec {
			ent.Src1.Prod.AddConsumer(ent)
		}
		if ent.Src2.Kind == ci.OperandVec && ent.Src2.Prod != ent.Src1.Prod {
			ent.Src2.Prod.AddConsumer(ent)
		}
	}
	ent.CreatorSeq = creatorSeq
	ent.SeedPhys = -1
	if seedPhys >= 0 {
		if p.rf.Ready(seedPhys) {
			v := p.rf.Value(seedPhys)
			if ent.Src1.Kind == ci.OperandSelf {
				ent.Src1.Value = v
			}
			if ent.Src2.Kind == ci.OperandSelf {
				ent.Src2.Value = v
			}
			ent.SeedCaptured = true
		} else {
			ent.SeedPhys = seedPhys
			p.seedWatch = append(p.seedWatch, refTo(ent))
		}
	} else {
		ent.SeedCaptured = true
	}
	p.initReplicaRing(ent)
	p.Stats.VectorizedEntries++
	p.enlistNew(ent)
	p.spawnReplicas(ent)
}

func (p *Proc) initReplicaRing(ent *ci.Entry) {
	ent.NRegs = p.cfg.Replicas
	ent.InitRing(2 * p.cfg.Replicas)
}

// needSpawn reports whether the batch is below its batch-ahead bound
// (the cheap guard call sites use before paying for spawnReplicas; the
// Alloc<Decode case is the cursor fixup spawnReplicas performs).
func needSpawn(ent *ci.Entry) bool {
	h := ent.TurnHeader
	return h.Alloc-h.Decode < h.NRegs
}

// spawnReplicas allocates replica instances up to the batch-ahead bound
// (NRegs past the Decode cursor), storage permitting. "In the case that
// not enough free registers are available for the desired number of
// replicas, a lower number of replicas or none at all are created."
// Instance indices that the Decode cursor has already passed are never
// allocated; they stay holes. The batch chases the decode frontier:
// ring slots whose replicas can no longer be consumed are reclaimed on
// overwrite, and a validation that finds its slot recycled simply falls
// back to normal execution.
func (p *Proc) spawnReplicas(ent *ci.Entry) {
	h := ent.TurnHeader
	allocBefore := h.Alloc
	if h.Alloc < h.Decode {
		h.Alloc = h.Decode
	}
	p.fillBatch(ent)
	// An allocation-frontier move changes what blocked replicas would
	// resolve: consumers may be parked on it (or on slots just recycled
	// or turned into holes by the cursor fixup), and the entry's own
	// recurrence chain may be parked on a predecessor slot that was
	// just overwritten. Re-arm both — including when fillBatch bailed
	// out on exhausted storage after a partial spawn.
	if h.Alloc != allocBefore && p.eventSched {
		p.unblockEntry(ent)
		p.wakeConsumers(ent)
	}
}

// fillBatch allocates replicas up to the batch-ahead bound, stopping
// early when replica storage runs out.
func (p *Proc) fillBatch(ent *ci.Entry) {
	h := ent.TurnHeader
	for h.Alloc-h.Decode < h.NRegs {
		var dest int
		if p.sm != nil {
			d, ok := p.sm.Alloc()
			if !ok {
				return
			}
			dest = d
		} else {
			if p.rf.FreeCount() <= p.cfg.ReplicaRegReserve {
				return
			}
			d, ok := p.rf.Alloc()
			if !ok {
				return
			}
			dest = d
		}
		slot := &ent.Replicas[h.Alloc&(len(ent.Replicas)-1)]
		// The ring slot may still hold a stale pre-Commit replica
		// (e.g. one skipped by the Decode cursor): release its
		// resources before reuse.
		if slot.Dest >= 0 {
			if p.sm != nil {
				p.sm.Release(slot.Dest)
			} else {
				p.rf.Release(slot.Dest)
			}
		}
		if slot.State == ci.ReplicaIssued {
			h.Issue--
			// NextDone may now under-estimate; that only costs a scan.
			h.IssuedMask &^= 1 << (uint(h.Alloc) & uint(len(ent.Replicas)-1) & 63)
		}
		// The new occupant is Waiting; count it unless the old occupant
		// was already Waiting/Issued (unused slots have Abs < 0).
		if slot.Abs < 0 || slot.State == ci.ReplicaDone || slot.State == ci.ReplicaFailed {
			h.Pending++
		}
		// The new occupant is actionable: arm its bit and clear any
		// blocked listing the overwritten slot left behind.
		bit := uint64(1) << (uint(h.Alloc) & uint(len(ent.Replicas)-1) & 63)
		h.ActiveMask |= bit
		h.BlockedMask &^= bit
		*slot = ci.Replica{State: ci.ReplicaWaiting, Abs: h.Alloc, Dest: dest}
		if ent.IsLoad {
			slot.Addr = ent.BatchBase + uint64(ent.Stride*int64(h.Alloc+1))
			if !ent.HasRange {
				ent.HasRange = true
				ent.RangeLo, ent.RangeHi = slot.Addr, slot.Addr
			} else {
				if slot.Addr < ent.RangeLo {
					ent.RangeLo = slot.Addr
				}
				if slot.Addr > ent.RangeHi {
					ent.RangeHi = slot.Addr
				}
			}
		}
		h.Alloc++
		p.Stats.ReplicasDispatched++
	}
}

// reclaimIdleEntries releases every deallocatable SRSMT entry (no
// validation in progress, no replica executing) so that scalar renaming
// can make progress when replica storage has consumed the register
// file. This is the replacement action AllocCandidate performs on
// conflict, applied under register pressure instead.
func (p *Proc) reclaimIdleEntries() {
	if p.srsmt == nil {
		return
	}
	//civet:allow hotalloc non-escaping iterator callback; ForEachValid does not retain it (TestSteadyStateZeroAllocs pins zero allocs)
	p.srsmt.ForEachValid(func(ent *ci.Entry) bool {
		if ent.Deallocatable() {
			p.invalidateEntry(ent)
		}
		return true
	})
}

// releaseEntryStorage frees the register-file registers or speculative
// memory positions still owned by an entry's replicas.
func (p *Proc) releaseEntryStorage(ent *ci.Entry) {
	h := ent.TurnHeader
	for abs := h.Commit; abs < h.Alloc; abs++ {
		slot := ent.Slot(abs)
		if slot == nil || slot.Dest < 0 {
			continue
		}
		if p.sm != nil {
			p.sm.Release(slot.Dest)
		} else {
			p.rf.Release(slot.Dest)
		}
		slot.Dest = -1
	}
}

// inputStatus classifies replica operand resolution.
type inputStatus int

const (
	inputReady inputStatus = iota
	inputWait
	inputFail
)

// resolveReplicaInput produces the value of one replica operand. The
// ref is taken by pointer: it is called for every waiting replica every
// cycle, and the OperandRef copy showed up in profiles.
func (p *Proc) resolveReplicaInput(ent *ci.Entry, ref *ci.OperandRef, abs int) (uint64, inputStatus) {
	switch ref.Kind {
	case ci.OperandScalar:
		return ref.Value, inputReady
	case ci.OperandSelf:
		if abs == 0 {
			h := ent.TurnHeader
			if h.SeedBroken {
				return 0, inputFail
			}
			if !h.SeedCaptured {
				return 0, inputWait
			}
			return ref.Value, inputReady
		}
		prev := ent.Slot(abs - 1)
		if prev == nil {
			return 0, inputFail
		}
		switch prev.State {
		case ci.ReplicaDone:
			return prev.Value, inputReady
		case ci.ReplicaFailed:
			return 0, inputFail
		default:
			return 0, inputWait
		}
	case ci.OperandVec:
		prod := ref.Prod
		if prod == nil {
			return 0, inputFail
		}
		ph := prod.TurnHeader
		if !ph.Valid || ph.Gen != ref.Gen {
			return 0, inputFail
		}
		pabs := ref.Base + abs
		if pabs >= ph.Alloc {
			return 0, inputWait
		}
		pslot := prod.Slot(pabs)
		if pslot == nil {
			return 0, inputFail
		}
		switch pslot.State {
		case ci.ReplicaDone:
			return pslot.Value, inputReady
		case ci.ReplicaFailed:
			return 0, inputFail
		default:
			return 0, inputWait
		}
	}
	return 0, inputReady
}

// replicaTick completes finished replicas (writing their storage,
// through the speculative memory's write ports when configured), then
// issues waiting replicas with the cycle's leftover issue bandwidth and
// functional units — replicas have lower priority than scalar
// instructions (§2.4.1) — and finally tops up the batches. The body
// below is the naive reference scan; the default event-driven engine
// lives in replica_sched.go.
//
//civet:hotpath
func (p *Proc) replicaTick() {
	if p.srsmt == nil {
		return
	}
	if p.eventSched {
		p.replicaTickEvent()
		return
	}
	live := p.activeEntries[:0]
	for _, ref := range p.activeEntries {
		h := ref.hdr
		if !ref.live() {
			// Config.EmulateAliasedWorklist: the PR 1 bug kept stale
			// listings alive as long as the way held any valid
			// incarnation, granting it double arbitration turns.
			if !p.aliasEmu || !h.Valid {
				continue // the incarnation died; drop the listing
			}
		}
		ent := ref.ent
		// Steady-state fast paths. An entry with no issued replica to
		// complete, the seed resolved and a full batch either has
		// nothing at all left (park it — validation and commit cursor
		// movement call activateEntry to bring it back), or only
		// waiting replicas an exhausted issue budget cannot serve this
		// cycle (skip the scan, keep it listed).
		if h.Issue == 0 &&
			(h.SeedCaptured || h.SeedBroken || h.SeedPhys < 0) &&
			h.Alloc-h.Decode >= h.NRegs {
			if h.Pending == 0 {
				h.Listed = false
				continue
			}
			if p.issueBudget <= 0 {
				live = append(live, ref)
				continue
			}
		}
		p.captureSeed(ent)

		if len(ent.Replicas) <= 64 {
			// Visit only actionable (Waiting/Issued) slots, in the same
			// ascending ring-index order as a full scan.
			for m := h.ActiveMask; m != 0; m &= m - 1 {
				p.replicaSlotTick(ent, &ent.Replicas[bits.TrailingZeros64(m)])
			}
		} else {
			for i := range ent.Replicas {
				if ent.Replicas[i].Abs < 0 {
					continue
				}
				p.replicaSlotTick(ent, &ent.Replicas[i])
			}
		}
		if needSpawn(ent) {
			p.spawnReplicas(ent)
		}
		live = append(live, ref)
	}
	p.activeEntries = live
}

// replicaSlotTick advances one actionable ring slot: completing it if
// issued and due, or attempting issue if waiting and consumable.
func (p *Proc) replicaSlotTick(ent *ci.Entry, slot *ci.Replica) {
	switch slot.State {
	case ci.ReplicaIssued:
		if slot.DoneAt <= p.cycle {
			if p.sm != nil {
				if slot.Dest < 0 || !p.sm.TryWrite(slot.Dest, slot.Value) {
					// Retry next cycle (write ports busy).
					if p.cycle+1 < p.turnNextDone {
						p.turnNextDone = p.cycle + 1
					}
					return
				}
			} else if slot.Dest >= 0 {
				p.rf.Write(slot.Dest, slot.Value)
			}
			p.settleReplica(ent, slot, ci.ReplicaDone)
			ent.Issue--
		} else if slot.DoneAt < p.turnNextDone {
			p.turnNextDone = slot.DoneAt
		}
	case ci.ReplicaWaiting:
		// Issue replicas the pipeline can still consume: those at or
		// past the commit cursor (earlier ones are dead).
		if slot.Abs >= ent.Commit && slot.Dest >= 0 && p.issueBudget > 0 {
			p.tryIssueReplica(ent, slot.Abs, slot)
		}
	}
}

// captureSeed latches a pending OperandSelf seed value once its
// physical register produces, or marks it broken if the register was
// reclaimed first. It reports whether the seed resolved either way,
// so the event-driven scheduler can wake replicas blocked on it.
// (Entries with a pending seed never park, so polling here keeps the
// exact naive capture timing.)
func (p *Proc) captureSeed(ent *ci.Entry) bool {
	h := ent.TurnHeader
	if h.SeedCaptured || h.SeedBroken || h.SeedPhys < 0 {
		return false
	}
	if !p.rf.Allocated(h.SeedPhys) {
		h.SeedBroken = true
		return true
	}
	if !p.rf.Ready(h.SeedPhys) {
		return false
	}
	v := p.rf.Value(h.SeedPhys)
	if ent.Src1.Kind == ci.OperandSelf {
		ent.Src1.Value = v
	}
	if ent.Src2.Kind == ci.OperandSelf {
		ent.Src2.Value = v
	}
	h.SeedCaptured = true
	return true
}

// tryIssueReplica attempts to issue one waiting replica.
func (p *Proc) tryIssueReplica(ent *ci.Entry, abs int, slot *ci.Replica) {
	if ent.IsLoad {
		r := p.hier.DataAccessReplica(slot.Addr)
		if !r.OK {
			return // no port this cycle
		}
		// The access may have latched a wide-bus line a blocked scalar
		// load could coalesce from next cycle; replica arbitration runs
		// after the issue scan, so tell the fast-forward engine its
		// no-issue observation is stale.
		p.readyDirty = true
		slot.Value = p.mem.Read64(slot.Addr)
		slot.State = ci.ReplicaIssued
		slot.DoneAt = p.cycle + uint64(r.Lat)
		ent.MarkIssued(slot)
		if slot.DoneAt < p.turnNextDone {
			p.turnNextDone = slot.DoneAt
		}
		ent.Issue++
		p.issueBudget--
		return
	}

	in := ent.Instr
	nsrc := int(ent.NSrc)
	refs := [2]*ci.OperandRef{&ent.Src1, &ent.Src2}
	var vals [2]uint64
	for i := 0; i < nsrc; i++ {
		v, st := p.resolveReplicaInput(ent, refs[i], abs)
		switch st {
		case inputFail:
			p.settleReplica(ent, slot, ci.ReplicaFailed)
			return
		case inputWait:
			p.blockSlot(ent, slot)
			return
		}
		vals[i] = v
	}
	useMul, lat := p.opLatency(in.Op)
	if useMul {
		if p.mulFree <= 0 {
			return
		}
		p.mulFree--
	} else {
		if p.aluFree <= 0 {
			return
		}
		p.aluFree--
	}
	slot.Value = execALU(in, vals[0], vals[1])
	slot.State = ci.ReplicaIssued
	slot.DoneAt = p.cycle + uint64(lat)
	ent.MarkIssued(slot)
	if slot.DoneAt < p.turnNextDone {
		p.turnNextDone = slot.DoneAt
	}
	ent.Issue++
	p.issueBudget--
}

// advanceValidated progresses validation-pending instructions: once the
// consumed replica completes, its value is copied into the validating
// instruction's destination register — instantaneous inside the
// monolithic register file, or through the speculative data memory's
// read ports with its access latency (§2.4.6). Validated loads first
// verify that the replica's address matches their own effective address
// (address generation still happens; only the memory access is
// skipped); a mismatch tears the entry down and re-executes. Broken
// validations (dead entry, failed replica, or a stuck producer) fall
// back to normal execution.
func (p *Proc) advanceValidated() {
	if len(p.validPend) == 0 {
		return
	}
	const validationPatience = 500
	out := p.validPend[:0]
	for _, w := range p.validPend {
		e := &p.rob[w.idx]
		if !e.valid || e.seq != w.seq || e.state != stValidPend {
			continue
		}
		ent := e.valEntry
		if ent == nil {
			p.fallbackToExec(w.idx)
			continue
		}
		if h := ent.TurnHeader; !h.Valid || h.Gen != e.valGen {
			p.fallbackToExec(w.idx)
			continue
		}
		slot := ent.Slot(int(e.valIdx))
		if slot == nil || slot.State == ci.ReplicaFailed {
			p.fallbackToExec(w.idx)
			continue
		}
		if ent.IsLoad && !e.executed {
			// Address check: wait for the base register, then compare.
			if !p.rf.Ready(int(e.srcPhys[0])) {
				if p.cycle-e.valSince > validationPatience {
					p.fallbackToExec(w.idx)
					continue
				}
				out = append(out, w)
				continue
			}
			addr := p.rf.Value(int(e.srcPhys[0])) + uint64(e.in.Imm)
			if addr != slot.Addr {
				// The replica sequence does not line up with this
				// dynamic instance: deallocate and re-vectorize later.
				p.Stats.ValidationFails++
				p.Stats.ValFailAddr++
				p.invalidateEntry(ent)
				p.fallbackToExec(w.idx)
				continue
			}
			e.addr = addr
			e.executed = true // address verified; only the access is skipped
		}
		if slot.State == ci.ReplicaDone {
			if p.sm == nil {
				e.value = slot.Value
				p.writeReg(int(e.physDest), e.value)
				e.state = stDone
				e.executed = true
				continue
			}
			// Copy micro-op through the speculative memory read ports.
			if !e.copySched {
				if slot.Dest < 0 {
					p.fallbackToExec(w.idx)
					continue
				}
				if v, lat, ok := p.sm.TryRead(slot.Dest); ok {
					e.copySched = true
					e.copyReadyAt = p.cycle + uint64(lat)
					e.value = v
					p.Stats.SpecMemCopies++
				}
				out = append(out, w)
				continue
			}
			if p.cycle >= e.copyReadyAt {
				p.writeReg(int(e.physDest), e.value)
				e.state = stDone
				e.executed = true
				continue
			}
			out = append(out, w)
			continue
		}
		if p.cycle-e.valSince > validationPatience {
			p.fallbackToExec(w.idx)
			continue
		}
		out = append(out, w)
	}
	p.validPend = out
}

// resyncValidatedCursors repairs SRSMT decode cursors after a squash.
// OnRecovery reset decode to commit (§2.4.4), but instructions that
// SURVIVED the squash have already been counted by the decode cursor
// (and validated ones hold consumed replicas); without re-applying
// them, new decodes would consume the same replica indices twice and
// validate against the wrong instances.
func (p *Proc) resyncValidatedCursors() {
	if p.srsmt == nil {
		return
	}
	i := p.robHead
	for c := 0; c < p.robCount; c++ {
		e := &p.rob[i]
		i = p.robIndexAfter(i)
		if !e.valid {
			continue
		}
		ent := p.srsmt.Lookup(uint64(e.pc))
		if ent == nil || e.seq <= ent.CreatorSeq {
			continue
		}
		ent.Decode++
		p.activateEntry(ent)
	}
}

// fallbackToExec converts a validation-pending instruction back into a
// normally executing one (the speculation could not be completed).
func (p *Proc) fallbackToExec(idx int) {
	e := &p.rob[idx]
	e.validated = false
	e.valEntry = nil
	e.copySched = false
	e.state = stWaiting
	if p.metaAt(int(e.pc)).IsMem() {
		p.lsqInsertOrdered(idx)
	}
	// Validated instances advertised themselves in the rename map
	// (V/S); the value will now come from normal execution, so clear
	// the vec bit if this instruction still owns the mapping.
	if e.hasDest && p.ren[e.logDest].writerSeq == e.seq {
		p.ren[e.logDest].vec = false
	}
	p.enqueueWaiting(idx, e)
}

// lsqInsertOrdered inserts a ROB index into the LSQ in sequence order
// (fallback instructions re-enter mid-queue).
func (p *Proc) lsqInsertOrdered(idx int) {
	seq := p.rob[idx].seq
	pos := len(p.lsq)
	for i, v := range p.lsq {
		if p.rob[v].seq > seq {
			pos = i
			break
		}
	}
	p.lsq = append(p.lsq, 0)
	copy(p.lsq[pos+1:], p.lsq[pos:])
	p.lsq[pos] = idx
}
