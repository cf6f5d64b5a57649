package core

import (
	"context"
	"errors"
	"fmt"
	"math"

	"civect/internal/bpred"
	"civect/internal/cache"
	"civect/internal/ci"
	"civect/internal/isa"
	"civect/internal/mem"
	"civect/internal/regfile"
	"civect/internal/stride"
)

// instState tracks a ROB entry through the pipeline.
type instState uint8

const (
	stWaiting   instState = iota // dispatched, waiting for operands/resources
	stExecuting                  // issued, in a functional unit
	stDone                       // result produced
	stValidPend                  // SRSMT-validated, waiting for its replica value
)

// maxStridedPCs bounds Config.StridedPCsPerEntry so the stridedPC list
// fits inline in every rename entry (Figure 4 sweeps 1/2/4); renaming
// then never allocates for slice propagation.
const maxStridedPCs = 4

// renEntry is one rename-map entry, including the paper's extensions:
// the stridedPC list (§2.3.2) and the V/S bit plus producer sequence of
// Figure 7. The struct is copied constantly — source snapshots at every
// rename, oldRen checkpoints in every ROB entry, tail-first restores at
// every squash — so the hot fields are packed into 32-bit slots and the
// cold stridedPC payload lives out of line in the processor's stride
// pool; at 40 bytes the copies compile to plain moves instead of the
// duffcopy calls the 80+-byte inline layout cost (~4% of ci-mode CPU).
type renEntry struct {
	// writerSeq is the dynamic sequence number of the last writer
	// (0 when the value is architectural).
	writerSeq uint64
	// vecGen is the SRSMT generation backing vec; vecPC the writer's PC
	// (the Seq field of Figure 7).
	vecGen uint64
	vecPC  uint64
	// phys is the physical register (int32: register files are far
	// below 2^31).
	phys int32
	// writerPC is the static instruction that last wrote the register
	// (-1 initially); recurrence validation checks that an accumulator
	// is still fed by its own previous instance.
	writerPC int32
	// strideRef indexes the stride pool's list slot; meaningful only
	// when nStrided > 0. Ownership is linear: the slot moves with the
	// entry (rename map -> oldRen checkpoint -> back on squash) and is
	// released exactly once, at commit or squash-restore, by whoever
	// overwrites or discards the owning copy. Source snapshots borrow.
	strideRef int32
	// vec marks the last writer as a vectorized (validated) instruction
	// (the V/S bit).
	vec bool
	// dirty marks the register's value as (transitively) derived from a
	// reused result that has not been commit-verified yet: the writer
	// was validated/squash-reused itself, or read a dirty source.
	// Commit recomputes dirty-rooted instructions architecturally and
	// skips the recomputation for clean ones, whose issue-time result
	// is exact by construction. Conservative — the flag never clears on
	// verification, only on overwrite by a clean writer.
	dirty bool
	// nStrided is the live length of the strideRef list.
	nStrided uint8
}

// stridePool stores the rename entries' stridedPC lists out of line, so
// rename-map snapshot copies move 40 bytes instead of 100+. Slots are
// recycled through a free list; see renEntry.strideRef for ownership.
type stridePool struct {
	lists [][maxStridedPCs]uint64
	free  []int32
}

// alloc takes a (dirty) list slot.
func (sp *stridePool) alloc() int32 {
	if n := len(sp.free); n > 0 {
		i := sp.free[n-1]
		sp.free = sp.free[:n-1]
		return i
	}
	sp.lists = append(sp.lists, [maxStridedPCs]uint64{})
	return int32(len(sp.lists) - 1)
}

// release returns a list slot to the free list.
func (sp *stridePool) release(i int32) { sp.free = append(sp.free, i) }

// inUse returns the number of live slots (accounting tests).
func (sp *stridePool) inUse() int { return len(sp.lists) - len(sp.free) }

// strided returns the live portion of a rename entry's stridedPC list.
func (p *Proc) strided(r *renEntry) []uint64 {
	if r.nStrided == 0 {
		return nil
	}
	return p.stridePC.lists[r.strideRef][:r.nStrided]
}

// releaseStrided returns r's list slot to the pool. Call exactly once,
// on the owning copy, when it dies (commit frees the oldRen checkpoint,
// squash-restore frees the overwritten map entry).
func (p *Proc) releaseStrided(r *renEntry) {
	if r.nStrided != 0 {
		p.stridePC.release(r.strideRef)
	}
}

// robEntry is one in-flight instruction. It is zeroed at every rename
// (robAlloc) and its scheduler-visible head is read constantly, so the
// narrow fields are packed (int32 indices: windows, register files and
// programs are all far below 2^31) and the flags share padding slots.
type robEntry struct {
	valid bool
	state instState

	hasDest      bool
	predTaken    bool
	actTaken     bool
	mispredicted bool
	executed     bool // value/addr computed (for stores: ready for commit)
	fwdStore     bool // load forwarded from an older store (no cache access)

	ciSelected bool // control independent per the CRP mask
	afterCRP   bool // fetched after the re-convergent point was reached
	validated  bool // reused a precomputed value
	reuseIW    bool // ci-iw squash reuse
	tainted    bool // reused, or renamed with a dirty source (see renEntry.dirty)

	// Speculative-memory copy micro-op state (§2.4.6).
	copySched bool

	logDest isa.Reg
	nsrc    uint8

	pc        int32
	physDest  int32
	actTarget int32
	valIdx    int32
	srcPhys   [2]int32

	seq uint64
	in  isa.Instr

	oldRen renEntry

	histSnapshot uint64

	// Memory bookkeeping (set at execute).
	addr  uint64
	value uint64

	doneAt uint64

	// CI bookkeeping.
	ciEpisode uint64 // episode during which it was selected
	valEntry  *ci.Entry
	valGen    uint64
	valSince  uint64 // cycle validation started (watchdog)

	// srcWriterSeq records the dynamic producers of the source operands
	// at rename time (squash-reuse matching).
	srcWriterSeq [2]uint64

	copyReadyAt uint64
}

// fetchedInstr sits in the fetch buffer between fetch and rename. The
// instruction itself is not carried along: rename re-reads it from the
// (cache-hot) static program, which keeps the per-fetch buffer copies
// at half the size.
type fetchedInstr struct {
	pc           int
	predTaken    bool
	histSnapshot uint64
	// readyAt is the cycle the instruction emerges from the front-end
	// decode stages and may rename.
	readyAt uint64
}

// iwReuse is a squash-reuse record (ModeCIIW): the result of a
// control-independent wrong-path instruction kept across the recovery.
type iwReuse struct {
	pc        int
	seq       uint64 // dynamic seq of the captured wrong-path instance
	writerSeq [2]uint64
	nsrc      int
	value     uint64
}

// waitRef identifies a ROB entry on one of the scheduler lists; seq
// detects slot reuse after squashes. stamp is the dispatch order the
// event-driven scheduler sorts the ready list by — the naive waiting
// list only appends at the tail, so stamp order is its scan order.
type waitRef struct {
	idx   int
	seq   uint64
	stamp uint64
}

// entryRef identifies one incarnation of an SRSMT way on a worklist.
// Ways are recycled in place (Invalidate + Init), so a bare pointer is
// ambiguous: a stale listing would alias the way's next incarnation and
// give it two turns per cycle at replica arbitration. The generation
// pins the listing to the incarnation that was enqueued.
type entryRef struct {
	ent *ci.Entry
	// hdr is ent's turn header, captured at insertion (fixed for the
	// way's lifetime): the arbitration walk reads its idle/skip fields
	// straight out of the packed header side-array, one load per field
	// instead of re-deriving the header pointer through the entry.
	hdr *ci.TurnHeader
	gen uint64
	// stamp snapshots ent.Stamp at insertion; the worklist is kept
	// sorted by it (see activateEntry).
	stamp uint64
}

// refTo builds the worklist listing for ent's current incarnation.
func refTo(ent *ci.Entry) entryRef {
	h := ent.TurnHeader
	return entryRef{ent: ent, hdr: h, gen: h.Gen, stamp: h.Stamp}
}

// live reports whether the listing still refers to the incarnation it
// was created for.
func (r entryRef) live() bool { return r.hdr.Valid && r.hdr.Gen == r.gen }

// Proc is the processor. Create one with New (or Reset one that has
// run before), run with Run.
type Proc struct {
	cfg  Config
	prog *isa.Program
	// imeta is the program's shared decode table (predecode.go); hot
	// stages read instruction classes and operands from it instead of
	// re-deriving them with opcode switches every cycle.
	imeta []isa.Decoded
	mem   *mem.Memory

	// Architectural committed state.
	arf    [isa.NumLogical]uint64
	halted bool

	cycle uint64
	seq   uint64

	ren [isa.NumLogical]renEntry
	// stridePC backs the rename entries' out-of-line stridedPC lists.
	stridePC stridePool
	rf       *regfile.File
	sm       *regfile.SpecMem

	rob      []robEntry
	robHead  int
	robTail  int
	robCount int

	// lsq holds ROB indices of in-flight memory instructions in program
	// order.
	lsq []int
	// Per-word last-store disambiguation index (lsqindex.go):
	// storeUnknown is the ascending seq list of in-flight stores with
	// uncomputed addresses, wordStores maps an aligned word to the
	// in-flight address-known stores writing it (ROB indices in seq
	// order), and wordListFree pools emptied word lists.
	storeUnknown []uint64
	wordStores   map[uint64][]int32
	wordListFree [][]int32

	fetchPC         int
	fetchHalted     bool
	fetchStallUntil uint64
	// fetchQ is consumed from fetchQHead instead of re-slicing from the
	// front, so renaming does not memmove the buffer per instruction;
	// fetchLen/fetchFront/fetchPop are the accessors.
	fetchQ     []fetchedInstr
	fetchQHead int

	hier *cache.Hierarchy
	bp   *bpred.Gshare
	mbs  *bpred.MBS
	sp   *stride.Predictor

	nrbq  *ci.NRBQ
	crp   ci.CRP
	srsmt *ci.SRSMT
	// activeEntries lists SRSMT entry incarnations with replica work
	// pending, sorted by creation stamp (arbitration order).
	activeEntries []entryRef
	// entryStamp numbers entry incarnations in creation order.
	entryStamp uint64
	// seedWatch lists entries whose recurrence seed register has not
	// produced yet; commit- and squash-time register frees consult it.
	seedWatch []entryRef

	// Episode statistics (Figure 5).
	episodeOpen     bool
	episodeSelected bool
	episodeReused   bool

	// ci-iw squash-reuse table (per PC, in wrong-path capture order, so
	// several loop iterations can be reused), plus the remap from
	// captured wrong-path producer seqs to their reused correct-path
	// reincarnations (so dependence chains of reused instructions
	// cascade). The table is dense — indexed by PC, with iwHead the
	// per-PC consumption cursor and iwPCs/iwLive tracking occupancy so
	// each capture clears only what it wrote. The remap is two parallel
	// append-only slices reset at each capture; both replace the maps a
	// profile showed on the rename hot path.
	iwTable     [][]iwReuse
	iwHead      []int
	iwPCs       []int
	iwLive      int
	iwRemapFrom []uint64
	iwRemapTo   []uint64
	// iwChain is captureIW's physDest→value scratch, epoch-stamped so a
	// capture starts empty without clearing.
	iwChainVal   []uint64
	iwChainMark  []uint64
	iwChainEpoch uint64

	// Scheduler lists: dispatched-not-issued, executing, and
	// validation-pending ROB entries. waitQ is the naive scheduler's
	// scanned list; the event-driven scheduler (sched.go) replaces it
	// with readyQ (operand-ready, stamp-sorted) plus the per-register
	// park lists in regWaiters.
	waitQ     []waitRef
	execQ     []waitRef
	validPend []waitRef
	// execMinDone lower-bounds every doneAt in execQ so completeStage
	// can skip whole scans while nothing is due.
	execMinDone uint64

	// Event-driven scheduler state (off only on EngineNaive).
	eventSched bool
	readyQ     []waitRef
	regWaiters [][]waitRef
	schedStamp uint64

	// Replica-wakeup scan state (replica_sched.go): the worklist tick
	// cursor (so mid-tick wakes insert consistently) and the slot-scan
	// position of the entry currently being arbitrated (so within-turn
	// unblocks respect the naive ascending ring order).
	inTick      bool
	tickIdx     int
	scanEnt     *ci.Entry
	scanVisited uint64
	scanPos     int
	// turnNextDone accumulates the earliest in-flight replica
	// completion seen during the current entry turn; the turn stores it
	// into Entry.NextDone.
	turnNextDone uint64
	// doneWheel is the replica-completion timing wheel: an entry whose
	// only remaining work is in-flight executions delists and schedules
	// a wake in the bucket of its NextDone cycle, so waiting out
	// functional-unit and cache latency costs nothing per cycle. The
	// wheel spans wheelSpan cycles; rarer longer waits keep polling.
	// wheelOcc is its one-bit-per-bucket occupancy map, maintained at
	// every park and drain, so the fast-forward engine finds the next
	// scheduled wake with a few word scans (nextWheelWake).
	doneWheel [wheelSpan][]entryRef
	wheelOcc  [wheelSpan / 64]uint64

	// Stall fast-forward engine state (fastforward.go): enabled on
	// EngineFastForward, plus the jump/skipped-cycle activity counters
	// (kept out of Stats so fast-forwarded and stepped runs compare
	// with struct equality).
	// lastNoIssue records that the just-finished cycle's issue scan
	// issued nothing, and readyDirty that the ready list changed after
	// that scan — together they prove a non-empty ready list holds only
	// instructions blocked until the next event.
	fastFwd     bool
	lastNoIssue bool
	readyDirty  bool
	ffJumps     uint64
	ffSkipped   uint64

	// Registered observer (observer.go) and its batching cursors: the
	// stats values already reported, and the committed count at the
	// last progress callback.
	obs              Observer
	obsProgressEvery uint64
	obsCommitted     uint64
	obsReused        uint64
	obsLastProgress  uint64

	// Registered per-event tracer (observer.go). Nil in production
	// runs: every emission point is gated on one nil check.
	tracer Tracer

	// Per-cycle budgets.
	aluFree, mulFree int
	issueBudget      int

	// Scratch buffers reused across cycles.
	pcScratch   []uint64
	lsqFiltered []int

	// freedMark is the freed-register set consulted by failBrokenSeeds,
	// epoch-stamped per physical register: register r is in the set iff
	// freedMark[r] == freedEpoch, so clearing is one increment.
	freedMark  []uint64
	freedEpoch uint64
	freedCount int

	Stats Stats

	// fault is the inconsistency that stopped the machine: a state no
	// run of the modeled pipeline reaches, which only a simulator bug or
	// forged checkpoint state produces. The machine halts on it, and
	// RunContext and Err report it.
	fault error

	// spare keeps the components this mode does not use for a later
	// Reset. It sits last so the hot fields keep their offsets.
	spare spares
}

// New builds a processor over prog and data memory m (which it owns and
// mutates at commit; nil m means an empty image): a zero Proc, Reset.
// The configuration is validated. The program is validated and decoded
// on its first use only (isa.Program.Decode), so building many
// processors over one program — a sweep's configuration points, a
// sampled run's sample machines — costs each one only its own pipeline
// state.
func New(cfg Config, prog *isa.Program, m *mem.Memory) (*Proc, error) {
	p := new(Proc)
	if err := p.Reset(cfg, prog, m); err != nil {
		return nil, err
	}
	return p, nil
}

// spares holds the mode-dependent components the current configuration
// does not use, so a later Reset to a mode that does use them finds
// their tables instead of allocating them.
type spares struct {
	nrbq    *ci.NRBQ
	srsmt   *ci.SRSMT
	sm      *regfile.SpecMem
	iwTable [][]iwReuse
	iwHead  []int
}

// Reset turns p into the processor New(cfg, prog, m) would build, in
// place. It is the only initializer — New is a zero Proc plus Reset —
// so no field can survive from p's previous run: Reset zeroes the whole
// struct and re-initializes every component, keeping only storage. A
// table or array is reused when the new configuration needs exactly its
// size, and cleared; scratch lists keep their capacity at length zero;
// components the new mode does not use are set aside for a later Reset.
// A machine reset this way runs bit-identically to a fresh one, and a
// sweep that resets one machine per worker allocates almost nothing per
// point. An invalid program or configuration is reported before p
// changes; whatever state p is in — mid-run, panicked, a failed
// restore — the next Reset starts it over.
func (p *Proc) Reset(cfg Config, prog *isa.Program, m *mem.Memory) error {
	if prog == nil {
		return errors.New("core: nil program")
	}
	imeta, err := prog.Decode()
	if err != nil {
		return err
	}
	if err := cfg.Validate(); err != nil {
		return err
	}
	if m == nil {
		m = mem.New()
	}
	hcfg := cfg.Hier
	hcfg.DL1Ports = cfg.DL1Ports
	hcfg.WideBus = cfg.Mode.UsesWideBus()

	old := *p
	*p = Proc{cfg: cfg, prog: prog, imeta: imeta, mem: m}
	sp := old.spare
	sp.nrbq = either(old.nrbq, sp.nrbq)
	sp.srsmt = either(old.srsmt, sp.srsmt)
	sp.sm = either(old.sm, sp.sm)
	if old.iwTable != nil {
		sp.iwTable, sp.iwHead = old.iwTable, old.iwHead
	}

	p.hier = orNew(old.hier)
	p.hier.Reset(hcfg)
	p.bp = orNew(old.bp)
	p.bp.Reset(cfg.GshareEntries)
	p.mbs = orNew(old.mbs)
	p.mbs.Reset(cfg.MBSSets, cfg.MBSAssoc)
	p.sp = orNew(old.sp)
	p.sp.Reset(cfg.StrideSets, cfg.StrideAssoc)
	p.rf = orNew(old.rf)
	p.rf.Reset(cfg.PhysRegs)
	p.rob = reuse(old.rob, cfg.WindowSize)
	if cfg.Mode == ModeCI || cfg.Mode == ModeCIIW {
		p.nrbq, sp.nrbq = orNew(sp.nrbq), nil
		p.nrbq.Reset(cfg.NRBQEntries)
	}
	if cfg.Mode.Vectorizes() {
		p.srsmt, sp.srsmt = orNew(sp.srsmt), nil
		p.srsmt.Reset(cfg.SRSMTSets, cfg.SRSMTAssoc)
		if cfg.SpecMemSize > 0 {
			p.sm, sp.sm = orNew(sp.sm), nil
			p.sm.Reset(cfg.SpecMemSize, cfg.SpecMemLat)
		}
	}
	if cfg.Mode == ModeCIIW {
		p.iwTable, p.iwHead = reuse(sp.iwTable, prog.Len()), reuse(sp.iwHead, prog.Len())
		sp.iwTable, sp.iwHead = nil, nil
	}
	p.spare = sp

	// In-flight stores are bounded by the LSQ and the window, so the
	// word index stops growing once it has seen the peak occupancy.
	p.wordStores = old.wordStores
	if p.wordStores == nil {
		p.wordStores = make(map[uint64][]int32, min(cfg.LSQSize, cfg.WindowSize))
	}
	clear(p.wordStores)
	p.wordListFree = old.wordListFree
	p.stridePC = stridePool{lists: old.stridePC.lists[:0], free: old.stridePC.free[:0]}
	p.lsq, p.lsqFiltered, p.storeUnknown = old.lsq[:0], old.lsqFiltered[:0], old.storeUnknown[:0]
	p.fetchQ, p.pcScratch = old.fetchQ[:0], old.pcScratch[:0]
	p.activeEntries, p.seedWatch = old.activeEntries[:0], old.seedWatch[:0]
	p.waitQ, p.execQ, p.validPend, p.readyQ = old.waitQ[:0], old.execQ[:0], old.validPend[:0], old.readyQ[:0]
	p.iwPCs, p.iwRemapFrom, p.iwRemapTo = old.iwPCs[:0], old.iwRemapFrom[:0], old.iwRemapTo[:0]
	// Epoch-stamped sets are cleared, not truncated: a stale stamp
	// would read as a member once the epoch counts up to it again.
	p.freedMark, p.iwChainVal, p.iwChainMark = old.freedMark, old.iwChainVal, old.iwChainMark
	clear(p.freedMark)
	clear(p.iwChainMark)

	// Epoch 0 would make the zero-valued freedMark read as all-freed.
	p.freedEpoch = 1
	p.eventSched = cfg.engine != EngineNaive
	// Fast-forward needs the event scheduler's quiescence guarantees;
	// the naive reference always steps.
	p.fastFwd = cfg.engine == EngineFastForward
	// The wakeup structures are pre-sized so the steady state stays
	// allocation-free: park lists for every physical register (bounded
	// files; unbounded ones grow on demand) and completion wheel
	// buckets. Deeper lists and buckets grow once and keep their
	// capacity, across Resets too.
	if p.eventSched && cfg.PhysRegs > 0 {
		if len(old.regWaiters) == cfg.PhysRegs {
			p.regWaiters = old.regWaiters
			for r := range p.regWaiters {
				p.regWaiters[r] = p.regWaiters[r][:0]
			}
		} else {
			// Park lists routinely reach a dozen waiters on a hot value
			// register; 16 slots up front keeps per-run growth to the
			// few registers that go deeper.
			const parkCap = 16
			p.regWaiters = make([][]waitRef, cfg.PhysRegs)
			slab := make([]waitRef, len(p.regWaiters)*parkCap)
			for r := range p.regWaiters {
				p.regWaiters[r] = slab[r*parkCap : r*parkCap : (r+1)*parkCap]
			}
		}
	}
	if old.doneWheel[0] != nil {
		for i := range p.doneWheel {
			p.doneWheel[i] = old.doneWheel[i][:0]
		}
	} else if p.eventSched {
		const bucketCap = 4
		wslab := make([]entryRef, wheelSpan*bucketCap)
		for i := range p.doneWheel {
			p.doneWheel[i] = wslab[i*bucketCap : i*bucketCap : (i+1)*bucketCap]
		}
	}
	// Bind each logical register to a committed physical register.
	for r := 0; r < isa.NumLogical; r++ {
		phys, ok := p.rf.Alloc()
		if !ok {
			return fmt.Errorf("core: register file too small for architectural state")
		}
		p.rf.Write(phys, 0)
		p.ren[r] = renEntry{phys: int32(phys), writerPC: -1}
	}
	return nil
}

// either returns a, or b when a is nil.
func either[T any](a, b *T) *T {
	if a != nil {
		return a
	}
	return b
}

// orNew returns c, or a new zero T when c is nil.
func orNew[T any](c *T) *T {
	if c == nil {
		return new(T)
	}
	return c
}

// reuse returns s cleared when it holds exactly n elements, else a new
// slice of n.
func reuse[T any](s []T, n int) []T {
	if len(s) != n {
		return make([]T, n)
	}
	clear(s)
	return s
}

// Run simulates until the program halts, the committed-instruction
// budget is exhausted, or the cycle safety bound trips. It returns the
// final statistics.
func (p *Proc) Run() (*Stats, error) {
	return p.RunContext(context.Background())
}

// ctxCheckInterval is how many simulated cycles RunContext advances
// between context polls. Checks land only on whole-cycle boundaries —
// never inside a fast-forward jump — so a cancelled run's statistics
// are a well-formed prefix of the uncancelled run's. 1024 steps is
// microseconds of wall time, and with a Background context (nil Done
// channel) the polling is skipped entirely.
const ctxCheckInterval = 1024

// watchdogCycles is RunContext's forward-progress bound: a pipeline
// that commits nothing for this many cycles is a simulator bug and
// fails loudly instead of spinning.
const watchdogCycles = 500_000

// runStop reports why runLoop returned.
type runStop uint8

const (
	// runFinished: the program halted or the committed-instruction
	// budget is exhausted.
	runFinished runStop = iota
	// runCycleBound: the cycle safety bound was exceeded.
	runCycleBound
	// runStalled: the no-commit-progress watchdog tripped.
	runStalled
	// runCanceled: the run context fired at a cycle boundary.
	runCanceled
)

// runLoop steps the pipeline until it halts or has committed limit
// instructions, trips the cycle bound or the watchdog, or a context poll
// sees done closed. It is the cycle loop of every detailed run; error
// rendering stays in runTo, out of the hot loop.
//
//civet:hotpath
func (p *Proc) runLoop(limit, maxCycles uint64, done <-chan struct{}) runStop {
	lastCommit, lastCommitCycle := p.Stats.Committed, p.cycle
	ctxCheck := ctxCheckInterval
	for {
		if p.halted || p.Stats.Committed >= limit {
			return runFinished
		}
		if p.cycle >= maxCycles {
			return runCycleBound
		}
		if done != nil {
			if ctxCheck--; ctxCheck <= 0 {
				ctxCheck = ctxCheckInterval
				select {
				case <-done:
					return runCanceled
				default:
				}
			}
		}
		p.step()
		if p.Stats.Committed != lastCommit {
			lastCommit, lastCommitCycle = p.Stats.Committed, p.cycle
		} else if p.cycle-lastCommitCycle > watchdogCycles {
			return runStalled
		}
	}
}

// RunContext is Run under a context: cancellation or an expired
// deadline stops the simulation at the next cycle boundary. On
// cancellation it returns the partial statistics accumulated so far
// together with ctx.Err(), so callers can report work done before the
// cut; every other error returns nil stats as Run does.
func (p *Proc) RunContext(ctx context.Context) (*Stats, error) {
	limit := p.cfg.MaxInstr
	if limit == 0 {
		limit = math.MaxUint64
	}
	stop, err := p.runTo(limit, ctx.Done())
	if err != nil {
		return nil, err
	}
	if stop == runCanceled {
		return p.Finalize(), ctx.Err()
	}
	return p.Finalize(), nil
}

// RunTo steps the machine until it halts or has committed n
// instructions, under Run's cycle bound and forward-progress watchdog,
// and returns the error Run would. The sampled-simulation driver
// measures each sample with it: a sample's configuration comes from a
// state file, and one with an absurd latency must stop with an error,
// not step for ever.
func (p *Proc) RunTo(n uint64) error {
	_, err := p.runTo(n, nil)
	return err
}

// runTo runs the cycle loop and renders the stops that are errors.
func (p *Proc) runTo(limit uint64, done <-chan struct{}) (runStop, error) {
	maxCycles := p.cfg.MaxCycles
	if maxCycles == 0 {
		maxCycles = 200_000_000
	}
	stop := p.runLoop(limit, maxCycles, done)
	if p.fault != nil {
		return stop, p.fault
	}
	switch stop {
	case runCycleBound:
		return stop, fmt.Errorf("core: cycle bound %d exceeded (committed %d)", maxCycles, p.Stats.Committed)
	case runStalled:
		return stop, fmt.Errorf("core: no commit progress for 500k cycles at cycle %d (mode %v, head state %v)",
			p.cycle, p.cfg.Mode, p.headState())
	}
	return stop, nil
}

// Step advances the pipeline by one cycle (a no-op once the program
// has halted). It exposes the cycle loop to microbenchmarks and tools
// that measure steady-state slices instead of whole runs; Run remains
// the way to simulate a program to completion.
//
//civet:hotpath
func (p *Proc) Step() {
	if !p.halted {
		p.step()
	}
}

// Halted reports whether the program has halted or the machine faulted.
func (p *Proc) Halted() bool { return p.halted }

// Err reports the inconsistency that stopped the machine, or nil.
func (p *Proc) Err() error { return p.fault }

func (p *Proc) headState() string {
	if p.robCount == 0 {
		return "empty ROB"
	}
	h := &p.rob[p.robHead]
	return fmt.Sprintf("pc=%d op=%v state=%d validated=%v", h.pc, h.in.Op, h.state, h.validated)
}

// step advances one cycle, processing stages in reverse pipeline order
// so that each stage sees the previous cycle's outputs. When the
// coming cycle is provably inert, the fast-forward engine first jumps
// the cycle counter to just before the next actionable cycle
// (fastforward.go), so the step below lands exactly on it.
func (p *Proc) step() {
	if p.fastFwd {
		p.maybeFastForward()
	}
	p.cycle++
	p.hier.BeginCycle(p.cycle)
	if p.sm != nil {
		p.sm.BeginCycle()
	}
	p.aluFree = p.cfg.IntALUs
	p.mulFree = p.cfg.IntMulDivs
	p.rf.Sample()

	p.commitStage()
	if p.obs != nil {
		p.observeCommits()
	}
	if p.halted {
		return
	}
	p.completeStage()
	p.advanceValidated()
	p.issueStage()
	p.replicaTick()
	p.renameStage()
	p.fetchStage()
}

func (p *Proc) finalizeStats() {
	p.Stats.Cycles = p.cycle
	p.Stats.RegAvgInUse = p.rf.AvgInUse()
	p.Stats.RegPeak = p.rf.Peak()
	p.Stats.L1I = p.hier.L1I.Stats
	p.Stats.L1D = p.hier.L1D.Stats
	p.Stats.L2 = p.hier.L2.Stats
	p.Stats.L3 = p.hier.L3.Stats
}

// Finalize performs the end-of-run bookkeeping Run does on its own
// terminal paths — closing the open CI episode and filling the derived
// statistics — and returns the final stats. Step-driven callers ending
// a run themselves (budget reached, halt observed) call it so their
// statistics match a Run to the same point exactly. Idempotent.
func (p *Proc) Finalize() *Stats {
	p.closeEpisode()
	p.finalizeStats()
	return &p.Stats
}

// Snapshot returns a copy of the statistics as of now with the
// end-of-run derived fields (cycle count, register occupancy, cache
// snapshots) filled in. Unlike the end-of-run finalization it does not
// close the open CI episode, so snapshotting mid-run never perturbs
// the remainder of the simulation.
func (p *Proc) Snapshot() Stats {
	st := p.Stats
	st.Cycles = p.cycle
	st.RegAvgInUse = p.rf.AvgInUse()
	st.RegPeak = p.rf.Peak()
	st.L1I = p.hier.L1I.Stats
	st.L1D = p.hier.L1D.Stats
	st.L2 = p.hier.L2.Stats
	st.L3 = p.hier.L3.Stats
	return st
}

// ARF returns the committed architectural register values.
func (p *Proc) ARF() [isa.NumLogical]uint64 { return p.arf }

// Mem returns the architectural data memory.
func (p *Proc) Mem() *mem.Memory { return p.mem }

// robIndexAfter returns the ring index following i.
func (p *Proc) robIndexAfter(i int) int {
	i++
	if i == len(p.rob) {
		return 0
	}
	return i
}

// robIndexBefore returns the ring index preceding i.
func (p *Proc) robIndexBefore(i int) int {
	if i == 0 {
		return len(p.rob) - 1
	}
	return i - 1
}

// robAlloc appends a ROB entry at the tail, returning its index.
func (p *Proc) robAlloc() int {
	i := p.robTail
	p.robTail = p.robIndexAfter(p.robTail)
	p.robCount++
	p.rob[i] = robEntry{valid: true}
	return i
}

// lsqRemove deletes a ROB index from the LSQ.
func (p *Proc) lsqRemove(robIdx int) {
	for i, v := range p.lsq {
		if v == robIdx {
			p.lsq = append(p.lsq[:i], p.lsq[i+1:]...)
			return
		}
	}
}

// fetchLen returns the number of buffered fetched instructions.
func (p *Proc) fetchLen() int { return len(p.fetchQ) - p.fetchQHead }

// fetchFront returns the oldest buffered instruction.
func (p *Proc) fetchFront() *fetchedInstr { return &p.fetchQ[p.fetchQHead] }

// fetchPop consumes the oldest buffered instruction, compacting the
// buffer when the dead prefix gets large so growth stays bounded.
func (p *Proc) fetchPop() {
	p.fetchQHead++
	if p.fetchQHead == len(p.fetchQ) {
		p.fetchQ = p.fetchQ[:0]
		p.fetchQHead = 0
	} else if p.fetchQHead >= 128 {
		p.fetchQ = p.fetchQ[:copy(p.fetchQ, p.fetchQ[p.fetchQHead:])]
		p.fetchQHead = 0
	}
}

// fetchClear empties the fetch buffer (squash).
func (p *Proc) fetchClear() {
	p.fetchQ = p.fetchQ[:0]
	p.fetchQHead = 0
}

// clearFreed empties the freed-register set (one epoch bump).
func (p *Proc) clearFreed() {
	p.freedEpoch++
	p.freedCount = 0
}

// noteFreed adds a physical register to the freed set.
func (p *Proc) noteFreed(reg int) {
	if reg >= len(p.freedMark) {
		//civet:allow hotalloc amortized freed-set doubling; grows O(log n) times, then never again
		grown := make([]uint64, max(2*len(p.freedMark), reg+64))
		copy(grown, p.freedMark)
		p.freedMark = grown
	}
	p.freedMark[reg] = p.freedEpoch
	p.freedCount++
}

// wasFreed reports membership in the freed set.
func (p *Proc) wasFreed(reg int) bool {
	return reg < len(p.freedMark) && p.freedMark[reg] == p.freedEpoch
}

func (p *Proc) closeEpisode() {
	if !p.episodeOpen {
		return
	}
	if p.episodeSelected {
		p.Stats.EpisodesSelected++
	}
	if p.episodeReused {
		p.Stats.EpisodesReused++
	}
	p.episodeOpen = false
	p.episodeSelected = false
	p.episodeReused = false
}

func (p *Proc) openEpisode() {
	p.closeEpisode()
	p.episodeOpen = true
}
