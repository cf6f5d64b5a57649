package core

import "civect/internal/isa"

// issueStage issues up to IssueWidth ready instructions oldest-first,
// modeling functional-unit capacity, L1D port arbitration and
// load/store-queue disambiguation ("loads may execute when prior store
// addresses are known", with store-load forwarding). Values are
// computed functionally at issue; they become visible at writeback
// (doneAt).
//
// The arbitration list is the naive full waiting list or the
// event-driven ready list (sched.go); both are stamp-ordered, and
// tryIssue has no side effects on operand-unready instructions, so the
// two produce identical issue sequences. Entries that stay behind did
// so for per-cycle resources (units, ports, budget) — or, on the naive
// list, for operands — and are retried next cycle.
func (p *Proc) issueStage() {
	q := p.waitQ
	if p.eventSched {
		q = p.readyQ
	}
	issued := 0
	out := q[:0]
	for _, w := range q {
		e := &p.rob[w.idx]
		if !e.valid || e.seq != w.seq || e.state != stWaiting {
			continue // squashed, completed or re-routed
		}
		if issued < p.cfg.IssueWidth && p.tryIssue(w.idx, e) {
			issued++
			if p.tracer != nil {
				p.tracer.OnTraceIssue(p.cycle, e.seq, e.pc)
			}
			p.execQ = append(p.execQ, w)
			if e.doneAt < p.execMinDone {
				p.execMinDone = e.doneAt
			}
			continue
		}
		out = append(out, w)
	}
	if p.eventSched {
		p.readyQ = out
	} else {
		p.waitQ = out
	}
	p.issueBudget = p.cfg.IssueWidth - issued
	// Fast-forward bookkeeping: a scan that issued nothing left only
	// failures that persist until an external event (tryIssue is
	// side-effect-free on failure, and per-cycle resources reset full),
	// so the engine may skip over the survivors — unless something is
	// inserted after this scan (readyDirty, set by readyInsert), or a
	// stage running before the scan consumed a data port this cycle
	// (the commit stage's store write): that pressure resets at the
	// next BeginCycle, so a load that failed on it would issue next
	// cycle and the no-issue observation predicts nothing.
	p.lastNoIssue = issued == 0 && p.hier.PortsUsed() == 0
	p.readyDirty = false
}

func (p *Proc) tryIssue(idx int, e *robEntry) bool {
	// Operand readiness.
	for i := 0; i < int(e.nsrc); i++ {
		if !p.rf.Ready(int(e.srcPhys[i])) {
			return false
		}
	}
	in := e.in
	im := p.metaAt(int(e.pc))
	a, b := uint64(0), uint64(0)
	if e.nsrc > 0 {
		a = p.rf.Value(int(e.srcPhys[0]))
	}
	if e.nsrc > 1 {
		b = p.rf.Value(int(e.srcPhys[1]))
	}

	switch {
	case im.IsLoad():
		return p.tryIssueLoad(idx, e, a)
	case im.IsStore():
		// Stores compute address and value at issue (AGU, 1 cycle); the
		// cache write happens at commit.
		if p.aluFree <= 0 {
			return false
		}
		p.aluFree--
		e.addr = a + uint64(in.Imm)
		e.value = b
		e.doneAt = p.cycle + uint64(p.cfg.LatIntALU)
		e.state = stExecuting
		p.storeAddrKnown(idx, e)
		return true
	case im.IsCondBranch():
		if p.aluFree <= 0 {
			return false
		}
		p.aluFree--
		e.actTaken = (in.Op == isa.OpBEQZ && a == 0) || (in.Op == isa.OpBNEZ && a != 0)
		if e.actTaken {
			e.actTarget = int32(in.Target)
		} else {
			e.actTarget = e.pc + 1
		}
		e.mispredicted = e.actTaken != e.predTaken
		e.doneAt = p.cycle + uint64(p.cfg.LatIntALU)
		e.state = stExecuting
		return true
	default:
		useMul, lat := p.opLatency(in.Op)
		if useMul {
			if p.mulFree <= 0 {
				return false
			}
			p.mulFree--
		} else {
			if p.aluFree <= 0 {
				return false
			}
			p.aluFree--
		}
		e.value = execALU(in, a, b)
		e.doneAt = p.cycle + uint64(lat)
		e.state = stExecuting
		return true
	}
}

// tryIssueLoad resolves memory disambiguation and either forwards from
// an older store or accesses the data cache. Disambiguation is O(1)
// via the per-word last-store index (lsqindex.go) instead of the
// per-attempt LSQ walk the seed shipped: an older store with an
// unknown address blocks the load; otherwise the youngest older store
// to the same word forwards its value (computed together with the
// address at store issue).
func (p *Proc) tryIssueLoad(idx int, e *robEntry, base uint64) bool {
	addr := base + uint64(e.in.Imm)
	word := addr &^ 7

	if len(p.storeUnknown) > 0 && p.storeUnknown[0] < e.seq {
		return false // an older store's address is not known yet
	}
	if l := p.wordStores[word]; len(l) > 0 {
		for i := len(l) - 1; i >= 0; i-- {
			se := &p.rob[l[i]]
			if se.seq < e.seq {
				e.addr = addr
				e.value = se.value
				e.fwdStore = true
				e.doneAt = p.cycle + 1
				e.state = stExecuting
				return true
			}
		}
	}

	r := p.hier.DataAccess(addr, false)
	if !r.OK {
		return false // no port or MSHR this cycle
	}
	e.addr = addr
	e.value = p.mem.Read64(addr)
	e.doneAt = p.cycle + uint64(r.Lat)
	e.state = stExecuting
	return true
}
