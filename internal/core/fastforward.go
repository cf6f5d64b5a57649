package core

// Stall-cycle fast-forward engine.
//
// Memory-bound runs (mcf, the .big tier) spend long stretches with the
// window full behind an outstanding miss: fetch is blocked, the ready
// list is empty, every SRSMT entry is parked, and the only future work
// is a handful of in-flight completions. The stepped loop still pays
// the full per-cycle fixed costs on each of those cycles —
// hier.BeginCycle, rf.Sample, budget resets, the stage-header checks —
// doing provably nothing. This engine skips them: when the coming
// cycle is inert (ffIdle) it computes the earliest cycle at which any
// stage could act (ffNextEvent: the completion-queue lower bound, the
// replica completion wheel, the fetch unstall time and the front-end
// decode-ready time) and jumps p.cycle straight to the cycle before
// it, batching the skipped cycles' per-cycle bookkeeping into catch-up
// calls (regfile.File.SampleN, cache.Hierarchy.AdvanceTo) so every
// statistic — including Cycles and RegAvgInUse — stays bit-identical
// to the stepped reference.
//
// The inertness proof leans on the event-driven structures: an empty
// ready list stays empty because instructions only enter it from
// rename (inert) or a register write (only completions write), an
// empty active-entry worklist stays empty because entries are only
// re-listed by cursor movement or wakeups (only events move cursors),
// and a pending recurrence seed keeps its entry listed, so seed
// capture never needs polling across a skip. The naive scheduler has
// none of those guarantees, so it never fast-forwards; the stepped
// event engine is retained as EngineEvent, the differential-test
// reference (ff_diff_test.go proves skip-vs-step
// equivalence cycle for cycle).

// ffIdle reports whether the coming cycle (p.cycle+1) is provably
// inert: no stage can commit, complete, validate, issue, arbitrate a
// replica, rename or fetch. Conservative by design — any doubt keeps
// the stepped path, which is always correct.
func (p *Proc) ffIdle() bool {
	// Issue, validation and replica arbitration: the event-driven
	// queues say directly whether any work is armed.
	if !p.schedQuiescent() || len(p.activeEntries) != 0 {
		return false
	}
	// Commit: only a done head retires (and only completions, which are
	// future events, can make it done).
	if p.robCount > 0 && p.rob[p.robHead].state == stDone {
		return false
	}
	next := p.cycle + 1
	// Fetch runs unless it is halted, I-miss-stalled past next, or the
	// fetch buffer is full (and a full buffer stays full: only rename
	// drains it, and rename must be inert too — checked below).
	if !p.fetchHalted && next >= p.fetchStallUntil && p.fetchLen() < p.fetchCap() {
		return false
	}
	// Rename runs when a buffered instruction has cleared the decode
	// stages and no structural hazard blocks it.
	if p.fetchLen() > 0 && p.fetchFront().readyAt <= next && !p.renameBlocked() {
		return false
	}
	return true
}

// renameBlocked reports whether the front buffered instruction is held
// by a structural hazard that only an event can clear: a full window
// or LSQ (drained at commit, downstream of a completion), or an
// exhausted rename pool (registers free at commit/squash, also
// downstream of events). Rename is in-order, so the front instruction
// blocking blocks the whole stage; tryRename is side-effect-free on
// these refusals (the shared renameHazardFor is the one definition of
// them), except that with an empty window it reclaims idle SRSMT
// entries instead of waiting — that case reports unblocked.
func (p *Proc) renameBlocked() bool {
	switch p.renameHazardFor(p.metaAt(p.fetchFront().pc)) {
	case hazardWindow, hazardLSQ:
		return true
	case hazardRegs:
		return p.robCount > 0
	}
	return false
}

// ffNextEvent returns the earliest cycle strictly after p.cycle at
// which a stage could act, assuming ffIdle held: the minimum over the
// in-flight completion bound, the replica completion wheel, the fetch
// unstall cycle and the front-end decode-ready cycle. ok is false when
// no future event exists at all (a truly wedged pipeline; the caller
// falls back to stepping and Run's watchdog reports it).
func (p *Proc) ffNextEvent() (uint64, bool) {
	t := ^uint64(0)
	if c, ok := p.nextCompletion(); ok && c < t {
		t = c
	}
	if w, ok := p.nextWheelWake(p.cycle); ok && w < t {
		t = w
	}
	// A ready list of blocked instructions may hold loads waiting on a
	// free MSHR; the next miss retirement can unblock them. (With an
	// empty ready list nothing can attempt a data access, so the bound
	// is irrelevant.)
	if len(p.readyQ) > 0 {
		if m, ok := p.hier.NextMissRetire(); ok && m < t {
			t = m
		}
	}
	// Fetch wakes when an I-miss stall expires — but only if the buffer
	// has room for the fetched instructions (a full buffer waits on
	// rename instead, which the other events bound).
	if !p.fetchHalted && p.fetchStallUntil > p.cycle+1 && p.fetchLen() < p.fetchCap() {
		if p.fetchStallUntil < t {
			t = p.fetchStallUntil
		}
	}
	// Rename wakes when the buffered head emerges from the decode
	// stages — unless a structural hazard holds it, in which case the
	// completion events above already bound the wake.
	if p.fetchLen() > 0 && !p.renameBlocked() {
		if r := p.fetchFront().readyAt; r < t {
			t = r
		}
	}
	if t == ^uint64(0) {
		return 0, false
	}
	return t, true
}

// maybeFastForward performs the skip when the coming cycle is inert
// and the next event is more than one cycle out. Called at the top of
// step, before the cycle counter advances; afterwards the normal step
// lands exactly on the event cycle.
//
//civet:hotpath
func (p *Proc) maybeFastForward() {
	if !p.ffIdle() {
		return
	}
	t, ok := p.ffNextEvent()
	if !ok || t <= p.cycle+1 {
		return
	}
	n := t - p.cycle - 1
	// Batched per-cycle bookkeeping for the skipped range: one
	// occupancy sample per skipped cycle at the (unchanging) current
	// occupancy, and the hierarchy's miss retirement up to the last
	// skipped cycle. Everything else per-cycle (port budgets, issue
	// budget, spec-mem ports) is reset state nothing read.
	p.rf.SampleN(n)
	p.hier.AdvanceTo(t - 1)
	from := p.cycle
	p.cycle = t - 1
	p.ffJumps++
	p.ffSkipped += n
	if p.obs != nil {
		p.obs.OnCycleJump(from, p.cycle)
	}
	if p.tracer != nil {
		p.tracer.OnTraceJump(from, p.cycle)
	}
}

// FastForward reports the engine's activity: how many skips happened
// and how many stall cycles they absorbed. Deliberately not part of
// Stats so fast-forwarded and stepped runs stay comparable with plain
// struct equality.
func (p *Proc) FastForward() (jumps, skippedCycles uint64) {
	return p.ffJumps, p.ffSkipped
}
