package core

// Event-driven issue scheduler.
//
// The naive scheduler (the original one, retained as EngineNaive, the
// differential-test reference) walks the entire waiting list every
// cycle and re-tests every instruction's operands even though most of
// them cannot possibly have become ready — profiling showed that scan
// at ~12% of ci-mode CPU. The event-driven scheduler replaces the scan
// with the classic operand-wakeup CAM of an out-of-order issue queue:
//
//   - an instruction with an unready source operand parks on the
//     physical register of its first unready operand (regWaiters);
//   - when that register is written (writeReg), the parked instructions
//     wake: each re-parks on its next unready operand or, with all
//     operands ready, moves to the ready list;
//   - issueStage arbitrates over the ready list only.
//
// Arbitration order is preserved bit-for-bit: every dispatch (and every
// fallback re-dispatch) draws a monotonically increasing stamp, and the
// ready list is kept stamp-sorted. The naive waiting list only ever
// appends at the tail, so its scan order *is* stamp order; the ready
// list presents the ready subsequence in exactly that order, and
// tryIssue has no side effects on instructions with unready operands,
// so the per-cycle sequence of issue attempts — and therefore cache
// port, ALU and budget consumption — is identical to the naive scan.
//
// Wakeup hygiene mirrors the replica worklist: squashed instructions
// are dropped lazily at wake (the (idx, seq) pair detects ROB-slot
// reuse), and a register freed by a squash only ever strands listings
// of instructions that were squashed with it — an instruction can only
// park on a register produced by an older instruction, so the producer
// cannot be squashed without the parked consumer dying too. Stranded
// listings are drained the next time the register is written.

// schedQuiescent reports whether the issue scheduler provably cannot
// act until an external event fires — the earliest-wake bound the
// fast-forward engine aggregates. With the event scheduler that holds
// in two cases: the ready list is empty (parked instructions wake only
// through writeReg, and every write is downstream of a completion
// event the aggregator already bounds), or the just-finished cycle
// scanned the whole ready list and issued nothing with no insertion
// since — the survivors are blocked on conditions that only events
// change (an older store's unknown address, a full MSHR file; tryIssue
// is side-effect-free on failure and per-cycle resources reset full,
// so a failed attempt fails identically every cycle until one fires).
// Validation in flight always disqualifies: advanceValidated polls
// per-cycle conditions (ports, patience deadlines) with no clean
// bound. The naive waiting list mixes ready and unready instructions,
// so it admits no such bound and never fast-forwards.
func (p *Proc) schedQuiescent() bool {
	if !p.eventSched || len(p.validPend) != 0 {
		return false
	}
	return len(p.readyQ) == 0 || (p.lastNoIssue && !p.readyDirty)
}

// enqueueWaiting places a dispatched (or validation-fallback)
// instruction on the scheduler with a fresh arbitration stamp.
func (p *Proc) enqueueWaiting(idx int, e *robEntry) {
	p.schedStamp++
	ref := waitRef{idx: idx, seq: e.seq, stamp: p.schedStamp}
	if !p.eventSched {
		p.waitQ = append(p.waitQ, ref)
		return
	}
	p.parkOrReady(ref, e)
}

// parkOrReady parks ref on its first unready source operand, or inserts
// it into the ready list when every operand is ready.
func (p *Proc) parkOrReady(ref waitRef, e *robEntry) {
	for i := 0; i < int(e.nsrc); i++ {
		if r := int(e.srcPhys[i]); !p.rf.Ready(r) {
			p.parkOn(r, ref)
			return
		}
	}
	p.readyInsert(ref)
}

// parkOn appends ref to register r's wakeup list.
func (p *Proc) parkOn(r int, ref waitRef) {
	if r >= len(p.regWaiters) {
		//civet:allow hotalloc amortized waiter-table doubling; grows O(log n) times, then never again
		grown := make([][]waitRef, max(2*len(p.regWaiters), r+64))
		copy(grown, p.regWaiters)
		p.regWaiters = grown
	}
	p.regWaiters[r] = append(p.regWaiters[r], ref)
}

// readyInsert inserts ref into the ready list at its stamp position.
// Dispatch stamps are monotonic, so the common case is an append; wakes
// of older instructions splice into the middle.
func (p *Proc) readyInsert(ref waitRef) {
	p.readyDirty = true
	q := p.readyQ
	if n := len(q); n == 0 || q[n-1].stamp < ref.stamp {
		p.readyQ = append(q, ref)
		return
	}
	i, j := 0, len(q)
	for i < j {
		m := (i + j) / 2
		if q[m].stamp < ref.stamp {
			i = m + 1
		} else {
			j = m
		}
	}
	q = append(q, waitRef{})
	copy(q[i+1:], q[i:])
	q[i] = ref
	p.readyQ = q
}

// writeReg writes a rename-visible physical register and wakes the
// instructions parked on it. Replica storage registers are written with
// plain rf.Write: no instruction ever parks on them (they never enter
// the rename map).
func (p *Proc) writeReg(r int, val uint64) {
	p.rf.Write(r, val)
	if p.eventSched {
		p.wakeReg(r)
	}
}

// wakeReg drains register r's wakeup list. Re-parks never target r
// again (r just became ready), so reusing the list's backing array
// under the iteration is safe.
func (p *Proc) wakeReg(r int) {
	if r >= len(p.regWaiters) || len(p.regWaiters[r]) == 0 {
		return
	}
	l := p.regWaiters[r]
	p.regWaiters[r] = l[:0]
	for _, ref := range l {
		e := &p.rob[ref.idx]
		if !e.valid || e.seq != ref.seq || e.state != stWaiting {
			continue // squashed or re-routed while parked
		}
		p.parkOrReady(ref, e)
	}
}
