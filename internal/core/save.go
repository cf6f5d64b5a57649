package core

import (
	"fmt"
	"slices"

	"civect/internal/bpred"
	"civect/internal/cache"
	"civect/internal/ci"
	"civect/internal/ckpt"
	"civect/internal/isa"
	"civect/internal/mem"
	"civect/internal/stride"
)

// Full-machine checkpointing.
//
// A checkpoint captures the processor at a cycle boundary — between two
// Step calls — completely enough that RestoreCheckpoint rebuilds a Proc
// whose remaining run is bit-identical to the original's: same cycle
// count, same statistics struct, same architectural state. That is a
// stronger contract than architectural checkpointing (registers +
// memory), and it has to be: in-flight pipeline state (the ROB, the
// scheduler lists, cache tags, predictor counters, SRSMT replica rings)
// all shape future timing, so any of it left out would make a restored
// run diverge from the run it checkpointed. The differential suite in
// save_test.go proves the property across engines, modes and workloads.
//
// Each structure has one walk that both saves and loads it (a
// ckpt.Codec runs in one direction), so every field's place in the
// format is written once. A load fills the machine Reset built for the
// checkpoint's configuration and checks geometry against it.
//
// What is deliberately NOT serialized:
//
//   - intra-cycle scratch (inTick/tickIdx/scan*, turnNextDone, per-cycle
//     budgets, pcScratch/lsqFiltered, the iwChain capture scratch,
//     wordListFree): dead between cycles by construction;
//   - observer/tracer wiring and their batching cursors: attachments are
//     per-session, never part of machine state, and cannot affect stats;
//   - derived mode flags (eventSched, fastFwd, aliasEmu): recomputed
//     from the serialized Config exactly as build does.
//
// Pointer-shaped state is index-encoded: SRSMT worklist/watch listings
// and ROB value-entry pointers travel as way indices, re-linked against
// the restored table's fixed way storage.

// CheckpointVersion is the CIVK payload format version for full-machine
// processor checkpoints. Bump on any layout change.
const CheckpointVersion = 1

// CheckpointInfo is the cheap-to-decode prefix of a checkpoint:
// everything a tool needs to identify what the checkpoint is without
// deserializing machine state.
type CheckpointInfo struct {
	Config      Config
	Program     string
	ProgramLen  int
	ProgramHash uint64
	Cycle       uint64
	Committed   uint64
}

// HashProgram returns prog.Hash(), the program digest checkpoints and
// sample-state files carry; perfbench's tests still call it.
func HashProgram(prog *isa.Program) uint64 { return prog.Hash() }

// WalkConfig saves or loads a Config. Sample-state files share the
// checkpoint's encoding: they carry the detailed-machine configuration
// their measurements assume.
func WalkConfig(c *ckpt.Codec, cfg *Config) {
	c.Tag("config")
	walkFields(c, configFields(cfg))
}

// configFields lists c's serialized fields in CIVK order.
func configFields(c *Config) []any {
	f := []any{&c.Mode, &c.FetchWidth, &c.DecodeWidth, &c.IssueWidth, &c.CommitWidth,
		&c.FrontEndDepth, &c.WindowSize, &c.LSQSize, &c.IntALUs, &c.IntMulDivs,
		&c.LatIntALU, &c.LatIntMul, &c.LatIntDiv, &c.PhysRegs, &c.GshareEntries}
	for _, l := range []*cache.Config{&c.Hier.L1I, &c.Hier.L1D, &c.Hier.L2, &c.Hier.L3} {
		f = append(f, &l.SizeBytes, &l.LineBytes, &l.Assoc, &l.HitLat, &l.MissLat)
	}
	return append(f, &c.Hier.DL1Ports, &c.Hier.WideBus, &c.Hier.WideLoadsPerAccess,
		&c.Hier.MaxOutstandingMisses, &c.DL1Ports, &c.Replicas, &c.StridedPCsPerEntry,
		&c.StrideSets, &c.StrideAssoc, &c.SRSMTSets, &c.SRSMTAssoc, &c.MBSSets, &c.MBSAssoc,
		&c.NRBQEntries, &c.SpecMemSize, &c.SpecMemLat, &c.ReplicaRegReserve, &c.RenameRegHeadroom,
		&c.DisableDAEC, &c.DisableMBSGate, &c.NaiveScheduler, &c.NoFastForward,
		&c.CommitRecomputeAll, &c.EmulateAliasedWorklist, &c.MaxInstr, &c.MaxCycles)
}

// statsFields lists the serialized statistics in CIVK order. Cache-level
// snapshots are not among them: Finalize/Snapshot re-derive them from
// the hierarchy, which serializes its own stats.
func statsFields(s *Stats) []any {
	return []any{
		&s.Cycles, &s.Committed, &s.CommittedReuse, &s.Fetched, &s.SquashedBP,
		&s.ReplicasDispatched, &s.Branches, &s.CondBranches, &s.Mispredicts,
		&s.HardMispredicts, &s.EpisodesSelected, &s.EpisodesReused, &s.Loads,
		&s.Stores, &s.StoreConflicts, &s.CoherenceSquashes, &s.VectorizedEntries,
		&s.ValidationFails, &s.ValFailStride, &s.ValFailVec, &s.ValFailSelf,
		&s.ValFailScalar, &s.ValFailSlot, &s.ValFailAddr, &s.ReplayLoad,
		&s.ReplayArith, &s.IWCaptured, &s.ValNoReplica, &s.Replays, &s.CISelected,
		&s.StridedPCsSum, &s.StridedPCsCount, &s.RegAvgInUse, &s.RegPeak,
		&s.SpecMemCopies,
	}
}

// walkFields walks each field of a field list by its type.
func walkFields(c *ckpt.Codec, fields []any) {
	for _, f := range fields {
		switch f := f.(type) {
		case *Mode:
			c.Int((*int)(f))
		case *int:
			c.Int(f)
		case *bool:
			c.Bool(f)
		case *uint64:
			c.U64(f)
		case *float64:
			c.F64(f)
		default:
			panic(fmt.Sprintf("core: no checkpoint encoding for %T", f))
		}
	}
}

// walk saves or loads the checkpoint's identity prefix.
func (info *CheckpointInfo) walk(c *ckpt.Codec) {
	c.Tag("proc")
	WalkConfig(c, &info.Config)
	c.Tag("prog")
	c.Str(&info.Program)
	c.Int(&info.ProgramLen)
	c.U64(&info.ProgramHash)
	c.Tag("arch")
	c.U64(&info.Cycle)
	c.U64(&info.Committed) // duplicated from the statistics so a peek stays cheap
}

// walk saves or loads the machine state that follows the identity
// prefix, section by section. Data memory travels as sparse deltas
// against base, through mem's SaveDelta/LoadDelta pair.
func (p *Proc) walk(c *ckpt.Codec, base *mem.Memory) {
	c.U64(&p.seq)
	c.Bool(&p.halted)
	for i := range p.arf {
		c.U64(&p.arf[i])
	}
	if c.Decoding() {
		p.mem = mem.LoadDelta(c, base)
	} else {
		p.mem.SaveDelta(c, base)
	}

	c.Tag("rename")
	for i := range p.ren {
		walkRen(c, &p.ren[i])
	}
	ckpt.Slice(c, &p.stridePC.lists, func(l *[maxStridedPCs]uint64) {
		for j := range l {
			c.U64(&l[j])
		}
	})
	ckpt.Slice(c, &p.stridePC.free, c.Int32)
	p.rf.Walk(c)
	walkPresent(c, p.sm != nil, "spec memory", p.sm.Walk)

	c.Tag("rob")
	c.Size(len(p.rob), "ROB size")
	c.Int(&p.robHead)
	c.Int(&p.robTail)
	c.Int(&p.robCount)
	for i := range p.rob {
		p.walkROB(c, &p.rob[i])
	}

	c.Tag("lsq")
	ckpt.Slice(c, &p.lsq, c.Int)
	ckpt.Slice(c, &p.storeUnknown, c.U64)
	p.walkWordStores(c)

	c.Tag("fetch")
	c.Int(&p.fetchPC)
	c.Bool(&p.fetchHalted)
	c.U64(&p.fetchStallUntil)
	q := p.fetchQ[p.fetchQHead:]
	ckpt.Slice(c, &q, func(f *fetchedInstr) {
		c.Int(&f.pc)
		c.Bool(&f.predTaken)
		c.U64(&f.histSnapshot)
		c.U64(&f.readyAt)
	})
	if c.Decoding() {
		p.fetchQ, p.fetchQHead = q, 0
	}

	p.hier.Walk(c)
	p.bp.Walk(c)
	p.mbs.Walk(c)
	p.sp.Walk(c)

	c.Tag("ci")
	walkPresent(c, p.nrbq != nil, "NRBQ", p.nrbq.Walk)
	c.Bool(&p.crp.Valid)
	c.Int(&p.crp.PC)
	c.Bool(&p.crp.Reached)
	c.U64((*uint64)(&p.crp.Mask))
	c.U64(&p.crp.Episode)
	c.Bool(&p.episodeOpen)
	c.Bool(&p.episodeSelected)
	c.Bool(&p.episodeReused)
	walkPresent(c, p.srsmt != nil, "SRSMT", p.srsmt.Walk)
	c.U64(&p.entryStamp)
	p.walkRefs(c, &p.activeEntries)
	p.walkRefs(c, &p.seedWatch)

	c.Tag("ciiw")
	p.walkSquashReuse(c)

	c.Tag("sched")
	walkWaits(c, &p.waitQ)
	walkWaits(c, &p.execQ)
	walkWaits(c, &p.validPend)
	c.U64(&p.execMinDone)
	walkWaits(c, &p.readyQ)
	p.walkParkLists(c)
	c.U64(&p.schedStamp)
	c.Bool(&p.lastNoIssue)
	c.Bool(&p.readyDirty)

	c.Tag("wheel")
	for i := range p.doneWheel {
		p.walkRefs(c, &p.doneWheel[i])
	}
	for i := range p.wheelOcc {
		c.U64(&p.wheelOcc[i])
	}
	c.U64(&p.ffJumps)
	c.U64(&p.ffSkipped)

	c.Tag("freed")
	c.U64(&p.freedEpoch)
	c.Int(&p.freedCount)
	p.walkFreed(c)

	c.Tag("stats")
	walkFields(c, statsFields(&p.Stats))
	c.Tag("end")
}

// walkPresent walks whether a mode-dependent structure exists, then the
// structure if it does. A load fails unless the configuration built it.
func walkPresent(c *ckpt.Codec, present bool, what string, walk func(*ckpt.Codec)) {
	has := present
	c.Bool(&has)
	if has != present {
		c.Fail("%s presence mismatch between checkpoint and configuration", what)
	} else if present {
		walk(c)
	}
}

func walkRen(c *ckpt.Codec, r *renEntry) {
	c.U64(&r.writerSeq)
	c.U64(&r.vecGen)
	c.U64(&r.vecPC)
	c.Int32(&r.phys)
	c.Int32(&r.writerPC)
	c.Int32(&r.strideRef)
	c.Bool(&r.vec)
	c.Bool(&r.dirty)
	c.U8(&r.nStrided)
}

func (p *Proc) walkROB(c *ckpt.Codec, r *robEntry) {
	c.Bool(&r.valid)
	c.U8((*uint8)(&r.state))
	c.Bool(&r.hasDest)
	c.Bool(&r.predTaken)
	c.Bool(&r.actTaken)
	c.Bool(&r.mispredicted)
	c.Bool(&r.executed)
	c.Bool(&r.fwdStore)
	c.Bool(&r.ciSelected)
	c.Bool(&r.afterCRP)
	c.Bool(&r.validated)
	c.Bool(&r.reuseIW)
	c.Bool(&r.tainted)
	c.Bool(&r.copySched)
	c.U8((*uint8)(&r.logDest))
	c.U8(&r.nsrc)
	c.Int32(&r.pc)
	c.Int32(&r.physDest)
	c.Int32(&r.actTarget)
	c.Int32(&r.valIdx)
	c.Int32(&r.srcPhys[0])
	c.Int32(&r.srcPhys[1])
	c.U64(&r.seq)
	ci.WalkInstr(c, &r.in)
	walkRen(c, &r.oldRen)
	c.U64(&r.histSnapshot)
	c.U64(&r.addr)
	c.U64(&r.value)
	c.U64(&r.doneAt)
	c.U64(&r.ciEpisode)
	p.srsmt.WalkRef(c, &r.valEntry, "ROB value-entry")
	c.U64(&r.valGen)
	c.U64(&r.valSince)
	c.U64(&r.srcWriterSeq[0])
	c.U64(&r.srcWriterSeq[1])
	c.U64(&r.copyReadyAt)
}

// walkWordStores walks the word-store index. It is a map, so its
// non-empty lists go in key order: the encoding of a given machine
// state is unique (the determinism invariant).
func (p *Proc) walkWordStores(c *ckpt.Codec) {
	var keys []uint64
	if !c.Decoding() {
		for k, l := range p.wordStores {
			if len(l) > 0 {
				keys = append(keys, k)
			}
		}
		slices.Sort(keys)
	}
	ckpt.Slice(c, &keys, func(k *uint64) {
		c.U64(k)
		l := p.wordStores[*k]
		ckpt.Slice(c, &l, c.Int32)
		if c.Decoding() {
			p.wordStores[*k] = l
		}
	})
}

// walkRefs walks an SRSMT worklist, each listing as its way, generation
// and stamp. A listing with no entry is saved as way -1 alone and
// dropped on load.
func (p *Proc) walkRefs(c *ckpt.Codec, l *[]entryRef) {
	n, saved := len(*l), *l
	c.Count(&n)
	if c.Decoding() {
		*l = (*l)[:0]
	}
	for i := 0; i < n; i++ {
		var r entryRef
		if !c.Decoding() {
			r = saved[i]
		}
		p.srsmt.WalkRef(c, &r.ent, "worklist")
		if r.ent == nil {
			continue
		}
		c.U64(&r.gen)
		c.U64(&r.stamp)
		if c.Decoding() {
			r.hdr = r.ent.TurnHeader
			*l = append(*l, r)
		}
	}
}

func walkWaits(c *ckpt.Codec, l *[]waitRef) {
	ckpt.Slice(c, l, func(r *waitRef) {
		c.Int(&r.idx)
		c.U64(&r.seq)
		c.U64(&r.stamp)
	})
}

// walkSquashReuse walks the ci-iw squash-reuse table: every PC the last
// capture wrote, with its cursor and records. A load recounts iwLive,
// the records not yet reused, from the lists and cursors.
func (p *Proc) walkSquashReuse(c *ckpt.Codec) {
	pcs := p.iwPCs
	ckpt.Slice(c, &pcs, func(pc *int) {
		c.Int(pc)
		var head int
		var l []iwReuse
		if !c.Decoding() {
			head, l = p.iwHead[*pc], p.iwTable[*pc]
		}
		c.Int(&head)
		ckpt.Slice(c, &l, func(r *iwReuse) {
			c.Int(&r.pc)
			c.U64(&r.seq)
			c.U64(&r.writerSeq[0])
			c.U64(&r.writerSeq[1])
			c.Int(&r.nsrc)
			c.U64(&r.value)
		})
		if !c.Decoding() || c.Err() != nil {
			return
		}
		if *pc < 0 || *pc >= len(p.iwTable) || head < 0 || head > len(l) {
			c.Fail("squash-reuse PC %d or cursor %d outside the program or its %d records", *pc, head, len(l))
			return
		}
		p.iwTable[*pc], p.iwHead[*pc] = l, head
		p.iwLive += len(l) - head
	})
	if c.Decoding() {
		p.iwPCs = pcs
	}
	n := len(p.iwRemapFrom)
	c.Count(&n)
	if c.Decoding() {
		p.iwRemapFrom, p.iwRemapTo = make([]uint64, n), make([]uint64, n)
	}
	for i := range n {
		c.U64(&p.iwRemapFrom[i])
		c.U64(&p.iwRemapTo[i])
	}
	c.U64(&p.iwChainEpoch)
}

// maxRestoredRegs bounds the register numbers a load accepts: every
// physical register costs the payload 10 bytes.
func maxRestoredRegs(c *ckpt.Codec) int { return len(c.Payload()) / 10 }

// walkParkLists walks the per-register park lists: the table's length,
// then each non-empty list by its register.
func (p *Proc) walkParkLists(c *ckpt.Codec) {
	n := len(p.regWaiters)
	c.Int(&n)
	if c.Decoding() && c.Err() == nil {
		// The table is at most twice the register count plus the
		// growth slack (parkOn).
		if n < 0 || n > 2*maxRestoredRegs(c)+64 {
			c.Fail("park-list table of %d registers exceeds the %d-byte checkpoint", n, len(c.Payload()))
		} else if n > len(p.regWaiters) {
			// Unbounded register files grow the waiter table on demand;
			// match the checkpointed size.
			grown := make([][]waitRef, n)
			copy(grown, p.regWaiters)
			p.regWaiters = grown
		}
	}
	var regs []int
	if !c.Decoding() {
		for r, l := range p.regWaiters {
			if len(l) > 0 {
				regs = append(regs, r)
			}
		}
	}
	ckpt.Slice(c, &regs, func(r *int) {
		c.Int(r)
		if *r < 0 || *r >= len(p.regWaiters) {
			c.Fail("park-list register %d out of range (%d)", *r, len(p.regWaiters))
			return
		}
		walkWaits(c, &p.regWaiters[*r])
	})
}

// walkFreed walks the registers freed in the current epoch.
func (p *Proc) walkFreed(c *ckpt.Codec) {
	var freed []int
	if !c.Decoding() {
		for r := range p.freedMark {
			if p.freedMark[r] == p.freedEpoch {
				freed = append(freed, r)
			}
		}
	}
	ckpt.Slice(c, &freed, func(r *int) {
		c.Int(r)
		if !c.Decoding() || c.Err() != nil {
			return
		}
		if *r < 0 || *r > maxRestoredRegs(c) {
			c.Fail("freed register %d out of range", *r)
			return
		}
		if *r >= len(p.freedMark) {
			grown := make([]uint64, *r+64)
			copy(grown, p.freedMark)
			p.freedMark = grown
		}
		p.freedMark[*r] = p.freedEpoch
	})
}

// SaveCheckpoint serializes the processor into a sealed CIVK container.
// It must be called at a cycle boundary (between Step calls — never
// from inside an observer hook). base is the workload's pristine
// initial memory image: data memory is stored as sparse deltas against
// it, and RestoreCheckpoint must be given the same image; nil encodes
// the full memory against the empty image.
func (p *Proc) SaveCheckpoint(base *mem.Memory) []byte {
	var c ckpt.Codec
	info := CheckpointInfo{Config: p.cfg, Program: p.prog.Name, ProgramLen: p.prog.Len(),
		ProgramHash: p.prog.Hash(), Cycle: p.cycle, Committed: p.Stats.Committed}
	info.walk(&c)
	p.walk(&c, base)
	return ckpt.Seal(CheckpointVersion, c.Payload())
}

// openCheckpoint validates a checkpoint container and decodes its
// identity prefix, returning the codec positioned after it.
func openCheckpoint(data []byte) (*ckpt.Codec, CheckpointInfo, error) {
	var info CheckpointInfo
	payload, err := ckpt.Open(data, CheckpointVersion)
	if err != nil {
		return nil, info, err
	}
	c := ckpt.Decode(payload)
	info.walk(c)
	return c, info, c.Err()
}

// PeekCheckpoint decodes a checkpoint's identity prefix: configuration,
// program name/hash, and progress counters.
func PeekCheckpoint(data []byte) (CheckpointInfo, error) {
	_, info, err := openCheckpoint(data)
	if err != nil {
		return CheckpointInfo{}, err
	}
	return info, nil
}

// RestoreCheckpoint rebuilds a processor from a sealed checkpoint
// container. prog must be the program the checkpoint was taken over
// (verified by name, length and hash); base must be the same pristine
// initial memory image passed to SaveCheckpoint (nil if it was nil).
// The restored processor carries no observer or tracer. Hostile input
// is an error, never a panic, and never a machine that panics when
// stepped: every decoded index is checked against its table.
func RestoreCheckpoint(data []byte, prog *isa.Program, base *mem.Memory) (*Proc, error) {
	p := new(Proc)
	if err := p.restore(data, prog, base); err != nil {
		return nil, err
	}
	return p, nil
}

// restore is RestoreCheckpoint into an existing machine: a Reset to the
// checkpoint's configuration, then the decoding walk. A failed restore
// leaves p unusable until its next Reset.
func (p *Proc) restore(data []byte, prog *isa.Program, base *mem.Memory) error {
	c, info, err := openCheckpoint(data)
	if err != nil {
		return err
	}
	if prog == nil {
		return fmt.Errorf("core: restore needs a program")
	}
	if prog.Name != info.Program || prog.Len() != info.ProgramLen || prog.Hash() != info.ProgramHash {
		return fmt.Errorf("core: checkpoint was taken over program %q (len %d, hash %016x), not the supplied %q (len %d, hash %016x)",
			info.Program, info.ProgramLen, info.ProgramHash, prog.Name, prog.Len(), prog.Hash())
	}
	cfg := info.Config
	if err := cfg.Validate(); err != nil {
		return fmt.Errorf("core: restore: %w", err)
	}
	if err := FitsPayload(&cfg, len(c.Payload())); err != nil {
		return fmt.Errorf("core: restore: %w", err)
	}
	if err := p.Reset(cfg, prog, mem.New()); err != nil {
		return fmt.Errorf("core: restore: %w", err)
	}
	p.cycle = info.Cycle
	p.walk(c, base)
	if err := c.Err(); err != nil {
		return err
	}
	if c.Remaining() != 0 {
		return fmt.Errorf("core: checkpoint payload has %d trailing bytes", c.Remaining())
	}
	return p.checkRestored()
}

// checkRestored validates every index a restore decoded against the
// table it indexes, and the register and speculative-memory ownership
// the pipeline frees by, so a CRC-valid checkpoint that would index out
// of range or free a register twice on a later Step is refused here.
func (p *Proc) checkRestored() error {
	var err error
	check := func(ok bool, format string, args ...any) {
		if !ok && err == nil {
			err = fmt.Errorf("core: restore: "+format, args...)
		}
	}
	nprog, nrob, nregs := p.prog.Len(), len(p.rob), p.rf.Len()
	inProg := func(pc int) bool { return pc >= 0 && pc < nprog }
	isReg := func(r int) bool { return r >= 0 && r < nregs }
	check(p.cfg.PhysRegs == max(p.rf.Size(), 0), "register file of %d, configured %d", p.rf.Size(), p.cfg.PhysRegs)
	check(p.robHead >= 0 && p.robHead < nrob && p.robCount >= 0 && p.robCount <= nrob &&
		p.robTail == (p.robHead+p.robCount)%nrob, "ROB head %d, tail %d, count %d in %d entries", p.robHead, p.robTail, p.robCount, nrob)
	check(inProg(p.fetchPC), "fetch PC %d outside the program", p.fetchPC)
	for _, f := range p.fetchQ {
		check(inProg(f.pc), "fetched PC %d outside the program", f.pc)
	}
	if err != nil {
		return err
	}

	ren := func(r *renEntry) {
		check(r.writerPC == -1 || inProg(int(r.writerPC)), "rename writer PC %d outside the program", r.writerPC)
		check(isReg(int(r.phys)) && (r.nStrided == 0 || r.nStrided <= maxStridedPCs && r.strideRef >= 0 &&
			int(r.strideRef) < len(p.stridePC.lists)), "rename entry out of range")
	}
	for i := range p.ren {
		ren(&p.ren[i])
	}
	for _, i := range p.stridePC.free {
		check(i >= 0 && int(i) < len(p.stridePC.lists), "free stridedPC list %d out of range", i)
	}
	var seq uint64
	for c := range p.robCount {
		i := (p.robHead + c) % nrob
		e := &p.rob[i]
		check(e.valid && inProg(int(e.pc)) && inProg(int(e.actTarget)) && e.seq > seq && e.seq <= p.seq,
			"ROB entry %d: invalid, out of order, or PC %d or target %d outside the program", i, e.pc, e.actTarget)
		if err != nil {
			return err
		}
		seq = e.seq
		im := p.metaAt(int(e.pc))
		check(e.in == p.prog.At(int(e.pc)) && e.hasDest == im.HasDest() && e.logDest == im.Dest() &&
			int(e.nsrc) == len(im.Srcs()) && e.state <= stValidPend && (e.hasDest && isReg(int(e.physDest)) ||
			!e.hasDest && e.physDest == -1 && !e.validated && !e.reuseIW) &&
			isReg(int(e.srcPhys[0])) && isReg(int(e.srcPhys[1])), "ROB entry %d does not describe the instruction at PC %d", i, e.pc)
		ren(&e.oldRen)
	}
	for i := range p.rob {
		check(p.rob[i].valid == ((i-p.robHead+nrob)%nrob < p.robCount), "ROB entry %d valid outside the window", i)
	}
	if err != nil {
		return err
	}

	// Unwinding the window from its tail, as a squash does, each
	// writer's destination must be its register's current mapping and
	// its checkpoint the mapping before it. What is left is the
	// committed map. held then counts what will free each physical
	// register and spec memory position — the committed map, the
	// in-flight destinations and the replica slots holding results —
	// and each may be held at most once, and only while allocated, so
	// nothing is freed twice. (Allocated but unheld is possible: replica
	// storage the commit cursor passed while it executed stays
	// allocated after its entry dies.)
	held, smHeld := make([]int, nregs), make([]int, p.cfg.SpecMemSize)
	hold := func(h []int, r int) {
		check(r >= 0 && r < len(h), "register or spec memory position %d out of range", r)
		if err == nil {
			h[r]++
		}
	}
	mapped := p.ren
	for c := p.robCount - 1; c >= 0; c-- {
		if e := &p.rob[(p.robHead+c)%nrob]; e.hasDest {
			check(mapped[e.logDest].phys == e.physDest, "ROB destination %d is not mapped", e.physDest)
			hold(held, int(e.physDest))
			mapped[e.logDest] = e.oldRen
		}
	}
	for _, r := range mapped {
		hold(held, int(r.phys))
	}
	if p.srsmt != nil {
		replicaHeld := held
		if p.sm != nil {
			replicaHeld = smHeld
		}
		p.srsmt.ForEachValid(func(ent *ci.Entry) bool {
			check(ent.SeedPhys == -1 || isReg(ent.SeedPhys), "SRSMT seed register %d out of range", ent.SeedPhys)
			for _, r := range ent.Replicas {
				if r.Abs >= 0 && r.Dest >= 0 {
					hold(replicaHeld, r.Dest)
				}
			}
			return err == nil
		})
	}
	for r, n := range held {
		check(n == 0 || n == 1 && p.rf.Allocated(r), "physical register %d held %d times, allocated=%t", r, n, p.rf.Allocated(r))
	}
	for pos, n := range smHeld {
		check(n == 0 || n == 1 && p.sm.Allocated(pos), "spec memory position %d held %d times", pos, n)
	}

	isROB := func(idx int) bool { return idx >= 0 && idx < nrob }
	for _, idx := range p.lsq {
		check(isROB(idx), "LSQ ROB index %d out of range", idx)
	}
	for _, l := range p.wordStores {
		for _, idx := range l {
			check(isROB(int(idx)), "word-store ROB index %d out of range", idx)
		}
	}
	for _, l := range append([][]waitRef{p.waitQ, p.execQ, p.validPend, p.readyQ}, p.regWaiters...) {
		for _, w := range l {
			check(isROB(w.idx), "scheduler ROB index %d out of range", w.idx)
		}
	}
	return err
}

// FitsPayload rejects a checkpointed configuration whose machine the
// payload cannot describe, before anything is sized from it: every
// cache line, predictor entry, ROB entry, physical register, spec
// memory position and wide-bus latch is encoded, at no fewer bytes
// each than counted here, so a forged header cannot make a restore
// allocate more than a small multiple of the file. The SRSMT and NRBQ
// encode only live entries; their tables are capped outright, far
// above any real geometry. A sample-state file, which repeats the
// predictors and caches in every record, is held to the same bound.
// c must have passed Validate.
func FitsPayload(c *Config, n int) error {
	lines := 0
	for _, l := range []cache.Config{c.Hier.L1I, c.Hier.L1D, c.Hier.L2, c.Hier.L3} {
		if l.Sets() > n/l.Assoc {
			return fmt.Errorf("cache of %d sets x %d ways exceeds the %d-byte checkpoint", l.Sets(), l.Assoc, n)
		}
		lines += l.Sets() * l.Assoc
	}
	for _, f := range []struct {
		what         string
		count, ways  int
		bytesPerItem int
	}{
		{"cache lines", lines, 1, 18},
		{"gshare entries", c.GshareEntries, 1, 1},
		{"MBS ways", c.MBSSets, c.MBSAssoc, 20},
		{"stride ways", c.StrideSets, c.StrideAssoc, 34},
		{"ROB entries", c.WindowSize, 1, 100},
		{"physical registers", c.PhysRegs, 1, 10},
		{"spec memory positions", c.SpecMemSize, 1, 10},
		{"wide-bus latches", c.DL1Ports, 1, 33},
	} {
		// count·ways is compared by division so it cannot overflow.
		if f.count > n/f.bytesPerItem/max(f.ways, 1) {
			return fmt.Errorf("%d x %d %s exceed the %d-byte checkpoint", f.count, f.ways, f.what, n)
		}
	}
	const maxTable = 1 << 16
	if c.SRSMTSets > maxTable/max(c.SRSMTAssoc, 1) || c.NRBQEntries > maxTable {
		return fmt.Errorf("SRSMT %dx%d or NRBQ %d above %d entries", c.SRSMTSets, c.SRSMTAssoc, c.NRBQEntries, maxTable)
	}
	return nil
}

// AdoptWarmState installs functionally-warmed microarchitectural state
// — branch predictor, MBS filter, stride predictor and the four cache
// levels' tag/LRU arrays — into a freshly built processor, SMARTS-style:
// the sampled-simulation driver warms these structures during its
// functional fast-forward pass (they depend only on the committed
// instruction stream, which the emulator produces exactly) so a sample
// machine starts with the thermal state a detailed run would have
// reached, instead of paying the full structures' warmup transient
// inside the measured interval. Geometries must match the
// configuration; like SetArchState it is only legal before the first
// cycle. Each argument may be nil to leave that structure cold.
func (p *Proc) AdoptWarmState(g *bpred.Gshare, mbs *bpred.MBS, sp *stride.Predictor, l1i, l1d, l2, l3 *cache.Cache) error {
	if p.cycle != 0 || p.seq != 0 || p.Stats.Committed != 0 {
		return fmt.Errorf("core: AdoptWarmState on a processor that has already run (cycle %d)", p.cycle)
	}
	// Each structure is copied field for field into its counterpart of
	// the same geometry; a mismatch fails before that structure changes.
	for _, st := range []struct {
		cold bool
		copy func() error
	}{
		{g == nil, func() error { return p.bp.CopyFrom(g) }},
		{mbs == nil, func() error { return p.mbs.CopyFrom(mbs) }},
		{sp == nil, func() error { return p.sp.CopyFrom(sp) }},
		{l1i == nil, func() error { return p.hier.L1I.CopyFrom(l1i) }},
		{l1d == nil, func() error { return p.hier.L1D.CopyFrom(l1d) }},
		{l2 == nil, func() error { return p.hier.L2.CopyFrom(l2) }},
		{l3 == nil, func() error { return p.hier.L3.CopyFrom(l3) }},
	} {
		if st.cold {
			continue
		}
		if err := st.copy(); err != nil {
			return fmt.Errorf("core: warm-state transplant: %w", err)
		}
	}
	return nil
}

// WalkWarmState saves or loads the functionally-warmed structures —
// gshare, MBS, stride, L1I, L1D, L2, L3, in that order — as a
// sample-state record carries them.
func WalkWarmState(c *ckpt.Codec, g *bpred.Gshare, mbs *bpred.MBS, sp *stride.Predictor, l1i, l1d, l2, l3 *cache.Cache) {
	g.Walk(c)
	mbs.Walk(c)
	sp.Walk(c)
	l1i.Walk(c)
	l1d.Walk(c)
	l2.Walk(c)
	l3.Walk(c)
}

// LoadWarmState decodes functionally-warmed state straight into a
// freshly built processor: the structures AdoptWarmState would copy,
// walked by WalkWarmState. It restores a captured sample without a
// staging copy of the structures. Like AdoptWarmState it is only legal
// before the first cycle; a decoding failure returns the codec's
// latched error.
func (p *Proc) LoadWarmState(c *ckpt.Codec) error {
	if p.cycle != 0 || p.seq != 0 || p.Stats.Committed != 0 {
		return fmt.Errorf("core: LoadWarmState on a processor that has already run (cycle %d)", p.cycle)
	}
	WalkWarmState(c, p.bp, p.mbs, p.sp, p.hier.L1I, p.hier.L1D, p.hier.L2, p.hier.L3)
	return c.Err()
}

// InstBytes scales instruction indices to byte addresses the way the
// fetch stage does; the functional warmer must mirror it so warmed
// I-cache tags match the addresses detailed fetch will present.
const InstBytes = instBytes

// SetArchState warm-starts a freshly built processor's architectural
// state: register values and the fetch PC. It is the sampled-simulation
// entry point — the functional emulator fast-forwards to a sample start,
// and the detailed processor picks up from its registers and memory
// image. It must be called before the first cycle; anything later is a
// programming error.
func (p *Proc) SetArchState(regs [isa.NumLogical]uint64, pc int) error {
	if p.cycle != 0 || p.seq != 0 || p.Stats.Committed != 0 {
		return fmt.Errorf("core: SetArchState on a processor that has already run (cycle %d)", p.cycle)
	}
	if pc < 0 || pc >= p.prog.Len() {
		return fmt.Errorf("core: SetArchState with PC %d outside the program (length %d)", pc, p.prog.Len())
	}
	p.arf = regs
	for r := 0; r < isa.NumLogical; r++ {
		p.rf.Write(int(p.ren[r].phys), regs[r])
	}
	p.fetchPC = pc
	return nil
}
