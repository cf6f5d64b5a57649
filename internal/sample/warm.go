package sample

import (
	"fmt"
	"math/bits"
	"runtime/debug"
	"sync/atomic"

	"civect/internal/bpred"
	"civect/internal/cache"
	"civect/internal/core"
	"civect/internal/emu"
	"civect/internal/isa"
	"civect/internal/stride"
)

// Functional warming (the SMARTS discipline): the microarchitectural
// structures with long thermal time constants — the 64K-entry gshare,
// the cache tag arrays, the MBS and stride tables — depend only on the
// committed instruction stream, which the functional pass produces
// exactly. The warmer replays that stream into private copies of the
// structures during fast-forward; at each sample start the warm state
// transplants into the fresh detailed machine (core.AdoptWarmState),
// so the detailed warmup only has to re-fill the short-time-constant
// state (pipeline, SRSMT, wide-bus latches) the warmer cannot model.
//
// The warming walk runs in two stages on two goroutines, joined by
// fixed-size batches of event records passed in stream order. Stage 1
// runs the emulator on the calling goroutine and owns L1I: it
// collapses a run of fetches from one L1I line into one Access plus an
// exact batched hit update (cache.RepeatHits), and records what stage
// 2 needs — every conditional branch with its outcome, every memory
// operation with its address, and every L1I miss. Stage 2 owns the
// rest: gshare, MBS, the stride predictor, L1D, L2 and L3. An L1I miss
// reaches L2 as a record, so L2 sees fetch and data misses in exactly
// the serial order, and every structure sees its updates in stream
// order. Before the caller reads or copies the structures (sync),
// stage 1 waits until stage 2 has applied every record, so both stages
// stand at the same point of the stream. The placement keeps the
// stages' busy times closest: the emulator dominates stage 1.

// batchLen is the number of records in one batch, batchCount the
// number of batches circulating between the stages: stage 1 fills one
// while stage 2 applies the others.
const (
	batchLen   = 4096
	batchCount = 4
)

// event is one record for stage 2: op holds the PC above the two-bit
// kind.
type event struct {
	addr uint64
	op   uint64
}

// The record kinds.
const (
	evBranch    = iota // a conditional branch at PC op>>2, taken if addr is 1
	evLoad             // a load from addr at PC op>>2
	evStore            // a store to addr
	evFetchMiss        // an L1I miss on the fetch of addr
)

// batch is a run of records in stream order.
type batch struct {
	n  int
	ev [batchLen]event
}

// warmer tracks functionally-warmed structures during the emulation
// pass. A *warmer is the warming passes' emu.Walk observer; its fields
// are split by the stage that writes them. newWarmer starts stage 2,
// and stop ends it.
type warmer struct {
	// Stage 1, on the walking goroutine.
	l1i cache.Cache
	// line is the L1I line number (address >> lineShift) of the last
	// fetch; run counts its fetches after the Access, not yet applied.
	line, run uint64
	lineShift uint
	cur       *batch // the batch being filled
	// spare holds empty batches; inflight counts those stage 2 holds.
	spare        []*batch
	inflight     int
	stage2Raised bool // stage 1 has re-raised stage2Panic

	// The pads keep each stage's fields off the cache lines the other
	// stage writes: a line both write would move between the cores on
	// nearly every update.
	_ [128]byte

	// Stage 2, on its own goroutine.
	g           bpred.Gshare
	mbs         bpred.MBS
	sp          stride.Predictor
	l1d, l2, l3 cache.Cache
	stage2Panic atomic.Pointer[measurePanic] // set once, before the batch goes back

	_ [128]byte

	// Set by newWarmer, then only read. full and free each hold every
	// batch there is, so no send on them blocks.
	full, free chan *batch   // filled batches to stage 2, applied ones back
	exited     chan struct{} // closed as stage 2 returns
}

// noLine is a line number no fetch has: fetch addresses are multiples
// of core.InstBytes.
const noLine = ^uint64(0)

func newWarmer(cfg *core.Config) *warmer {
	w := &warmer{
		line:      noLine,
		lineShift: uint(bits.TrailingZeros(uint(cfg.Hier.L1I.LineBytes))),
		cur:       new(batch),
		spare:     make([]*batch, 0, batchCount),
		full:      make(chan *batch, batchCount),
		free:      make(chan *batch, batchCount),
		exited:    make(chan struct{}),
	}
	w.l1i.Reset(cfg.Hier.L1I)
	w.g.Reset(cfg.GshareEntries)
	w.mbs.Reset(cfg.MBSSets, cfg.MBSAssoc)
	w.sp.Reset(cfg.StrideSets, cfg.StrideAssoc)
	w.l1d.Reset(cfg.Hier.L1D)
	w.l2.Reset(cfg.Hier.L2)
	w.l3.Reset(cfg.Hier.L3)
	for range batchCount - 1 {
		w.spare = append(w.spare, new(batch))
	}
	go w.stage2()
	return w
}

// Observe is stage 1's part of one architecturally executed
// instruction: the fetch accesses L1I, and a conditional branch or a
// memory operation becomes a record for stage 2.
//
//civet:hotpath
func (w *warmer) Observe(pc int, in isa.Instr, addr, _ uint64, taken bool) {
	op := in.Op
	fetch := uint64(pc) * core.InstBytes
	if line := fetch >> w.lineShift; line == w.line {
		w.run++
	} else {
		w.fetch(fetch, line)
	}
	// The opcodes of IsCondBranch, IsLoad and IsStore: switching on a
	// copy keeps the instruction dead across the fetch call.
	switch op {
	case isa.OpBEQZ, isa.OpBNEZ:
		var t uint64
		if taken {
			t = 1
		}
		w.put(t, uint64(pc)<<2|evBranch)
	case isa.OpLd:
		w.put(addr, uint64(pc)<<2|evLoad)
	case isa.OpSt:
		w.put(addr, uint64(pc)<<2|evStore)
	}
}

// fetch applies the finished run of fetches, then accesses L1I at addr,
// the first fetch from line, recording a miss for L2.
func (w *warmer) fetch(addr, line uint64) {
	w.l1i.RepeatHits(w.line<<w.lineShift, w.run)
	w.line, w.run = line, 0
	if hit, _ := w.l1i.Access(addr, false); !hit {
		w.put(addr, evFetchMiss)
	}
}

// put appends a record, shipping the batch when it is full.
func (w *warmer) put(addr, op uint64) {
	b := w.cur
	b.ev[b.n%batchLen] = event{addr, op}
	if b.n++; b.n == batchLen {
		w.ship()
	}
}

// ship hands the current batch to stage 2 and takes an empty one,
// waiting for stage 2 to give one back when none is spare.
//
//civet:coldpath
func (w *warmer) ship() {
	w.full <- w.cur
	w.inflight++
	if n := len(w.spare); n > 0 {
		w.cur, w.spare = w.spare[n-1], w.spare[:n-1]
		return
	}
	w.cur = w.receive()
}

// receive takes a batch back from stage 2, re-raising stage 2's panic
// if it has panicked.
func (w *warmer) receive() *batch {
	b := <-w.free
	w.inflight--
	if w.stage2Panic.Load() != nil {
		w.reraise()
	}
	return b
}

// reraise re-raises stage 2's panic on stage 1.
func (w *warmer) reraise() {
	w.stage2Raised = true
	panic(w.stage2Panic.Load())
}

// sync returns once every structure reflects the stream up to the
// last instruction walked: stage 1's pending fetch hits are applied,
// and stage 2 has applied every record and handed every batch back.
func (w *warmer) sync() {
	w.l1i.RepeatHits(w.line<<w.lineShift, w.run)
	w.run = 0
	if w.cur.n > 0 {
		w.ship()
	}
	for w.inflight > 0 {
		w.spare = append(w.spare, w.receive())
	}
}

// stage2 applies batches and hands them back until stop closes full.
// After a panic it keeps handing them back unapplied, so stage 1 never
// waits on a dead stage; the panic, kept with its stack, reaches stage
// 1 with the next batch it takes back.
func (w *warmer) stage2() {
	defer close(w.exited)
	for b := range w.full {
		if w.stage2Panic.Load() == nil {
			w.applyRecovering(b)
		}
		b.n = 0
		w.free <- b
	}
}

// applyRecovering applies b, keeping a panic for stage 1 to re-raise.
func (w *warmer) applyRecovering(b *batch) {
	defer func() {
		if v := recover(); v != nil {
			w.stage2Panic.Store(&measurePanic{Value: v, Stack: debug.Stack(), Helper: "warming stage-2"})
		}
	}()
	w.apply(b)
}

// apply replays one batch into stage 2's structures at the detailed
// machine's training points: a branch trains gshare and MBS on its
// outcome, a load the stride predictor on its address, and a memory
// access walks outward on a miss (L1D, then L2, then L3; an L1I miss
// enters at L2).
func (w *warmer) apply(b *batch) {
	if warmHook != nil {
		warmHook()
	}
	for _, e := range b.ev[:b.n] {
		pc := e.op >> 2
		switch e.op & 3 {
		case evBranch:
			w.g.Update(pc, e.addr == 1)
			w.mbs.Update(pc, e.addr == 1)
			continue
		case evFetchMiss:
			w.l2.Access(e.addr, false)
			continue
		case evLoad:
			w.sp.Observe(pc, e.addr)
		}
		write := e.op&3 == evStore
		if hit, _ := w.l1d.Access(e.addr, write); !hit {
			if h2, _ := w.l2.Access(e.addr, write); !h2 {
				w.l3.Access(e.addr, write)
			}
		}
	}
}

// warmHook, when set, runs on stage 2 before each batch: the tests'
// way to make stage 2 panic.
var warmHook func()

// stop ends stage 2 and waits for it to exit. A stage-2 panic stage 1
// has not re-raised yet is re-raised here. stop is safe after a
// panic, an error or a cancellation at any point of the walk.
func (w *warmer) stop() {
	close(w.full)
	<-w.exited
	if w.stage2Panic.Load() != nil && !w.stage2Raised {
		w.reraise()
	}
}

// warmTo walks cpu up to instruction start with w observing, and
// reports an error if the stream halts first. On success every
// structure stands at start (sync).
func (w *warmer) warmTo(cpu *emu.CPU, prog *isa.Program, start, sampleStart uint64) error {
	// A zero limit would mean no limit; Walk fails only with ErrLimit,
	// which is reaching start.
	if cpu.Executed < start {
		_ = emu.Walk(cpu, prog, start, w)
	}
	if cpu.Executed != start {
		return fmt.Errorf("sample: stream ended at %d before sample start %d (stale plan?)", cpu.Executed, sampleStart)
	}
	w.sync()
	return nil
}

// adoptInto transplants the warm state into a fresh detailed machine.
// The caller has synced w (warmTo).
func (w *warmer) adoptInto(p *core.Proc) error {
	return p.AdoptWarmState(&w.g, &w.mbs, &w.sp, &w.l1i, &w.l1d, &w.l2, &w.l3)
}
