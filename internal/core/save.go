package core

import (
	"fmt"

	"civect/internal/bpred"
	"civect/internal/cache"
	"civect/internal/ci"
	"civect/internal/ckpt"
	"civect/internal/isa"
	"civect/internal/mem"
	"civect/internal/regfile"
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
// and ROB value-entry pointers become (way index, generation) pairs
// re-linked against the restored table's fixed way storage.

// CheckpointVersion is the CIVK payload format version for full-machine
// processor checkpoints. Bump on any layout change.
const CheckpointVersion = 1

// CheckpointInfo is the cheap-to-decode prefix of a checkpoint:
// everything a tool needs to identify what the checkpoint is without
// deserializing machine state.
type CheckpointInfo struct {
	Config      Config
	Program     string
	ProgramHash uint64
	Cycle       uint64
	Committed   uint64
}

// HashProgram exposes the checkpoint program digest to sibling
// serializers (internal/sample's state files carry the same triple —
// name, length, hash — and must refuse the same mismatches). The digest
// is computed once per program (isa.Program.Hash).
func HashProgram(prog *isa.Program) uint64 { return prog.Hash() }

// SaveConfigState / LoadConfigState expose the checkpoint Config
// encoding for the same reason: a sample-state file is self-describing,
// carrying the detailed-machine configuration its measurements assume.
func SaveConfigState(e *ckpt.Encoder, c *Config) { saveConfig(e, c) }

// LoadConfigState decodes a Config written by SaveConfigState.
func LoadConfigState(d *ckpt.Decoder) Config { return loadConfig(d) }

func saveConfig(e *ckpt.Encoder, c *Config) {
	e.Tag("config")
	e.Int(int(c.Mode))
	e.Int(c.FetchWidth)
	e.Int(c.DecodeWidth)
	e.Int(c.IssueWidth)
	e.Int(c.CommitWidth)
	e.Int(c.FrontEndDepth)
	e.Int(c.WindowSize)
	e.Int(c.LSQSize)
	e.Int(c.IntALUs)
	e.Int(c.IntMulDivs)
	e.Int(c.LatIntALU)
	e.Int(c.LatIntMul)
	e.Int(c.LatIntDiv)
	e.Int(c.PhysRegs)
	e.Int(c.GshareEntries)
	for _, cc := range []struct{ SizeBytes, LineBytes, Assoc, HitLat, MissLat int }{
		{c.Hier.L1I.SizeBytes, c.Hier.L1I.LineBytes, c.Hier.L1I.Assoc, c.Hier.L1I.HitLat, c.Hier.L1I.MissLat},
		{c.Hier.L1D.SizeBytes, c.Hier.L1D.LineBytes, c.Hier.L1D.Assoc, c.Hier.L1D.HitLat, c.Hier.L1D.MissLat},
		{c.Hier.L2.SizeBytes, c.Hier.L2.LineBytes, c.Hier.L2.Assoc, c.Hier.L2.HitLat, c.Hier.L2.MissLat},
		{c.Hier.L3.SizeBytes, c.Hier.L3.LineBytes, c.Hier.L3.Assoc, c.Hier.L3.HitLat, c.Hier.L3.MissLat},
	} {
		e.Int(cc.SizeBytes)
		e.Int(cc.LineBytes)
		e.Int(cc.Assoc)
		e.Int(cc.HitLat)
		e.Int(cc.MissLat)
	}
	e.Int(c.Hier.DL1Ports)
	e.Bool(c.Hier.WideBus)
	e.Int(c.Hier.WideLoadsPerAccess)
	e.Int(c.Hier.MaxOutstandingMisses)
	e.Int(c.DL1Ports)
	e.Int(c.Replicas)
	e.Int(c.StridedPCsPerEntry)
	e.Int(c.StrideSets)
	e.Int(c.StrideAssoc)
	e.Int(c.SRSMTSets)
	e.Int(c.SRSMTAssoc)
	e.Int(c.MBSSets)
	e.Int(c.MBSAssoc)
	e.Int(c.NRBQEntries)
	e.Int(c.SpecMemSize)
	e.Int(c.SpecMemLat)
	e.Int(c.ReplicaRegReserve)
	e.Int(c.RenameRegHeadroom)
	e.Bool(c.DisableDAEC)
	e.Bool(c.DisableMBSGate)
	e.Bool(c.NaiveScheduler)
	e.Bool(c.NoFastForward)
	e.Bool(c.CommitRecomputeAll)
	e.Bool(c.EmulateAliasedWorklist)
	e.U64(c.MaxInstr)
	e.U64(c.MaxCycles)
}

func loadConfig(d *ckpt.Decoder) Config {
	d.Tag("config")
	var c Config
	c.Mode = Mode(d.Int())
	c.FetchWidth = d.Int()
	c.DecodeWidth = d.Int()
	c.IssueWidth = d.Int()
	c.CommitWidth = d.Int()
	c.FrontEndDepth = d.Int()
	c.WindowSize = d.Int()
	c.LSQSize = d.Int()
	c.IntALUs = d.Int()
	c.IntMulDivs = d.Int()
	c.LatIntALU = d.Int()
	c.LatIntMul = d.Int()
	c.LatIntDiv = d.Int()
	c.PhysRegs = d.Int()
	c.GshareEntries = d.Int()
	for _, lvl := range []*struct{ SizeBytes, LineBytes, Assoc, HitLat, MissLat *int }{
		{&c.Hier.L1I.SizeBytes, &c.Hier.L1I.LineBytes, &c.Hier.L1I.Assoc, &c.Hier.L1I.HitLat, &c.Hier.L1I.MissLat},
		{&c.Hier.L1D.SizeBytes, &c.Hier.L1D.LineBytes, &c.Hier.L1D.Assoc, &c.Hier.L1D.HitLat, &c.Hier.L1D.MissLat},
		{&c.Hier.L2.SizeBytes, &c.Hier.L2.LineBytes, &c.Hier.L2.Assoc, &c.Hier.L2.HitLat, &c.Hier.L2.MissLat},
		{&c.Hier.L3.SizeBytes, &c.Hier.L3.LineBytes, &c.Hier.L3.Assoc, &c.Hier.L3.HitLat, &c.Hier.L3.MissLat},
	} {
		*lvl.SizeBytes = d.Int()
		*lvl.LineBytes = d.Int()
		*lvl.Assoc = d.Int()
		*lvl.HitLat = d.Int()
		*lvl.MissLat = d.Int()
	}
	c.Hier.DL1Ports = d.Int()
	c.Hier.WideBus = d.Bool()
	c.Hier.WideLoadsPerAccess = d.Int()
	c.Hier.MaxOutstandingMisses = d.Int()
	c.DL1Ports = d.Int()
	c.Replicas = d.Int()
	c.StridedPCsPerEntry = d.Int()
	c.StrideSets = d.Int()
	c.StrideAssoc = d.Int()
	c.SRSMTSets = d.Int()
	c.SRSMTAssoc = d.Int()
	c.MBSSets = d.Int()
	c.MBSAssoc = d.Int()
	c.NRBQEntries = d.Int()
	c.SpecMemSize = d.Int()
	c.SpecMemLat = d.Int()
	c.ReplicaRegReserve = d.Int()
	c.RenameRegHeadroom = d.Int()
	c.DisableDAEC = d.Bool()
	c.DisableMBSGate = d.Bool()
	c.NaiveScheduler = d.Bool()
	c.NoFastForward = d.Bool()
	c.CommitRecomputeAll = d.Bool()
	c.EmulateAliasedWorklist = d.Bool()
	c.MaxInstr = d.U64()
	c.MaxCycles = d.U64()
	return c
}

func saveRenEntry(e *ckpt.Encoder, r *renEntry) {
	e.U64(r.writerSeq)
	e.U64(r.vecGen)
	e.U64(r.vecPC)
	e.Int(int(r.phys))
	e.Int(int(r.writerPC))
	e.Int(int(r.strideRef))
	e.Bool(r.vec)
	e.Bool(r.dirty)
	e.U8(r.nStrided)
}

func loadRenEntry(d *ckpt.Decoder, r *renEntry) {
	r.writerSeq = d.U64()
	r.vecGen = d.U64()
	r.vecPC = d.U64()
	r.phys = int32(d.Int())
	r.writerPC = int32(d.Int())
	r.strideRef = int32(d.Int())
	r.vec = d.Bool()
	r.dirty = d.Bool()
	r.nStrided = d.U8()
}

// saveEntryRef encodes an SRSMT worklist listing as (way, gen, stamp).
func (p *Proc) saveEntryRef(e *ckpt.Encoder, r *entryRef) {
	if r.ent == nil {
		e.Int(-1)
		return
	}
	e.Int(p.srsmt.WayOf(r.ent))
	e.U64(r.gen)
	e.U64(r.stamp)
}

func (p *Proc) loadEntryRef(d *ckpt.Decoder) (entryRef, bool) {
	w := d.Int()
	if w < 0 || d.Err() != nil {
		return entryRef{}, false
	}
	if p.srsmt == nil || w >= p.srsmt.NumWays() {
		d.Fail("worklist way %d out of range", w)
		return entryRef{}, false
	}
	ent := p.srsmt.Way(w)
	return entryRef{ent: ent, hdr: ent.TurnHeader, gen: d.U64(), stamp: d.U64()}, true
}

func saveWaitRef(e *ckpt.Encoder, r waitRef) {
	e.Int(r.idx)
	e.U64(r.seq)
	e.U64(r.stamp)
}

func loadWaitRef(d *ckpt.Decoder) waitRef {
	return waitRef{idx: d.Int(), seq: d.U64(), stamp: d.U64()}
}

func saveWaitList(e *ckpt.Encoder, l []waitRef) {
	e.Int(len(l))
	for _, r := range l {
		saveWaitRef(e, r)
	}
}

func loadWaitList(d *ckpt.Decoder) []waitRef {
	n := d.Count()
	if n == 0 {
		return nil
	}
	l := make([]waitRef, n)
	for i := range l {
		l[i] = loadWaitRef(d)
	}
	return l
}

func (p *Proc) saveROBEntry(e *ckpt.Encoder, r *robEntry) {
	e.Bool(r.valid)
	e.U8(uint8(r.state))
	e.Bool(r.hasDest)
	e.Bool(r.predTaken)
	e.Bool(r.actTaken)
	e.Bool(r.mispredicted)
	e.Bool(r.executed)
	e.Bool(r.fwdStore)
	e.Bool(r.ciSelected)
	e.Bool(r.afterCRP)
	e.Bool(r.validated)
	e.Bool(r.reuseIW)
	e.Bool(r.tainted)
	e.Bool(r.copySched)
	e.U8(uint8(r.logDest))
	e.U8(r.nsrc)
	e.Int(int(r.pc))
	e.Int(int(r.physDest))
	e.Int(int(r.actTarget))
	e.Int(int(r.valIdx))
	e.Int(int(r.srcPhys[0]))
	e.Int(int(r.srcPhys[1]))
	e.U64(r.seq)
	e.U8(uint8(r.in.Op))
	e.U8(uint8(r.in.Rd))
	e.U8(uint8(r.in.Ra))
	e.U8(uint8(r.in.Rb))
	e.I64(r.in.Imm)
	e.Int(r.in.Target)
	saveRenEntry(e, &r.oldRen)
	e.U64(r.histSnapshot)
	e.U64(r.addr)
	e.U64(r.value)
	e.U64(r.doneAt)
	e.U64(r.ciEpisode)
	if r.valEntry != nil {
		e.Int(p.srsmt.WayOf(r.valEntry))
	} else {
		e.Int(-1)
	}
	e.U64(r.valGen)
	e.U64(r.valSince)
	e.U64(r.srcWriterSeq[0])
	e.U64(r.srcWriterSeq[1])
	e.U64(r.copyReadyAt)
}

func (p *Proc) loadROBEntry(d *ckpt.Decoder, r *robEntry) {
	r.valid = d.Bool()
	r.state = instState(d.U8())
	r.hasDest = d.Bool()
	r.predTaken = d.Bool()
	r.actTaken = d.Bool()
	r.mispredicted = d.Bool()
	r.executed = d.Bool()
	r.fwdStore = d.Bool()
	r.ciSelected = d.Bool()
	r.afterCRP = d.Bool()
	r.validated = d.Bool()
	r.reuseIW = d.Bool()
	r.tainted = d.Bool()
	r.copySched = d.Bool()
	r.logDest = isa.Reg(d.U8())
	r.nsrc = d.U8()
	r.pc = int32(d.Int())
	r.physDest = int32(d.Int())
	r.actTarget = int32(d.Int())
	r.valIdx = int32(d.Int())
	r.srcPhys[0] = int32(d.Int())
	r.srcPhys[1] = int32(d.Int())
	r.seq = d.U64()
	r.in.Op = isa.Op(d.U8())
	r.in.Rd = isa.Reg(d.U8())
	r.in.Ra = isa.Reg(d.U8())
	r.in.Rb = isa.Reg(d.U8())
	r.in.Imm = d.I64()
	r.in.Target = d.Int()
	loadRenEntry(d, &r.oldRen)
	r.histSnapshot = d.U64()
	r.addr = d.U64()
	r.value = d.U64()
	r.doneAt = d.U64()
	r.ciEpisode = d.U64()
	w := d.Int()
	if w >= 0 {
		if p.srsmt == nil || w >= p.srsmt.NumWays() {
			d.Fail("ROB value-entry way %d out of range", w)
			return
		}
		r.valEntry = p.srsmt.Way(w)
	} else {
		r.valEntry = nil
	}
	r.valGen = d.U64()
	r.valSince = d.U64()
	r.srcWriterSeq[0] = d.U64()
	r.srcWriterSeq[1] = d.U64()
	r.copyReadyAt = d.U64()
}

func (p *Proc) saveStats(e *ckpt.Encoder) {
	e.Tag("stats")
	s := &p.Stats
	e.U64(s.Cycles)
	e.U64(s.Committed)
	e.U64(s.CommittedReuse)
	e.U64(s.Fetched)
	e.U64(s.SquashedBP)
	e.U64(s.ReplicasDispatched)
	e.U64(s.Branches)
	e.U64(s.CondBranches)
	e.U64(s.Mispredicts)
	e.U64(s.HardMispredicts)
	e.U64(s.EpisodesSelected)
	e.U64(s.EpisodesReused)
	e.U64(s.Loads)
	e.U64(s.Stores)
	e.U64(s.StoreConflicts)
	e.U64(s.CoherenceSquashes)
	e.U64(s.VectorizedEntries)
	e.U64(s.ValidationFails)
	e.U64(s.ValFailStride)
	e.U64(s.ValFailVec)
	e.U64(s.ValFailSelf)
	e.U64(s.ValFailScalar)
	e.U64(s.ValFailSlot)
	e.U64(s.ValFailAddr)
	e.U64(s.ReplayLoad)
	e.U64(s.ReplayArith)
	e.U64(s.IWCaptured)
	e.U64(s.ValNoReplica)
	e.U64(s.Replays)
	e.U64(s.CISelected)
	e.U64(s.StridedPCsSum)
	e.U64(s.StridedPCsCount)
	e.F64(s.RegAvgInUse)
	e.Int(s.RegPeak)
	e.U64(s.SpecMemCopies)
	// Cache-level snapshots are not saved here: Finalize/Snapshot
	// re-derive them from the hierarchy, which serializes its own stats.
}

func (p *Proc) loadStats(d *ckpt.Decoder) {
	d.Tag("stats")
	s := &p.Stats
	s.Cycles = d.U64()
	s.Committed = d.U64()
	s.CommittedReuse = d.U64()
	s.Fetched = d.U64()
	s.SquashedBP = d.U64()
	s.ReplicasDispatched = d.U64()
	s.Branches = d.U64()
	s.CondBranches = d.U64()
	s.Mispredicts = d.U64()
	s.HardMispredicts = d.U64()
	s.EpisodesSelected = d.U64()
	s.EpisodesReused = d.U64()
	s.Loads = d.U64()
	s.Stores = d.U64()
	s.StoreConflicts = d.U64()
	s.CoherenceSquashes = d.U64()
	s.VectorizedEntries = d.U64()
	s.ValidationFails = d.U64()
	s.ValFailStride = d.U64()
	s.ValFailVec = d.U64()
	s.ValFailSelf = d.U64()
	s.ValFailScalar = d.U64()
	s.ValFailSlot = d.U64()
	s.ValFailAddr = d.U64()
	s.ReplayLoad = d.U64()
	s.ReplayArith = d.U64()
	s.IWCaptured = d.U64()
	s.ValNoReplica = d.U64()
	s.Replays = d.U64()
	s.CISelected = d.U64()
	s.StridedPCsSum = d.U64()
	s.StridedPCsCount = d.U64()
	s.RegAvgInUse = d.F64()
	s.RegPeak = d.Int()
	s.SpecMemCopies = d.U64()
}

// SaveCheckpoint serializes the processor into a sealed CIVK container.
// It must be called at a cycle boundary (between Step calls — never
// from inside an observer hook). base is the workload's pristine
// initial memory image: data memory is stored as sparse deltas against
// it, and RestoreCheckpoint must be given the same image; nil encodes
// the full memory against the empty image.
func (p *Proc) SaveCheckpoint(base *mem.Memory) []byte {
	var e ckpt.Encoder
	e.Tag("proc")
	saveConfig(&e, &p.cfg)

	e.Tag("prog")
	e.Str(p.prog.Name)
	e.Int(p.prog.Len())
	e.U64(p.prog.Hash())

	e.Tag("arch")
	e.U64(p.cycle)
	e.U64(p.Stats.Committed) // duplicated here so PeekCheckpoint stays cheap
	e.U64(p.seq)
	e.Bool(p.halted)
	for _, v := range p.arf {
		e.U64(v)
	}

	p.mem.SaveDelta(&e, base)

	e.Tag("rename")
	for i := range p.ren {
		saveRenEntry(&e, &p.ren[i])
	}
	e.Int(len(p.stridePC.lists))
	for i := range p.stridePC.lists {
		for _, v := range p.stridePC.lists[i] {
			e.U64(v)
		}
	}
	e.Int(len(p.stridePC.free))
	for _, v := range p.stridePC.free {
		e.Int(int(v))
	}

	p.rf.SaveState(&e)
	e.Bool(p.sm != nil)
	if p.sm != nil {
		p.sm.SaveState(&e)
	}

	e.Tag("rob")
	e.Int(len(p.rob))
	e.Int(p.robHead)
	e.Int(p.robTail)
	e.Int(p.robCount)
	for i := range p.rob {
		p.saveROBEntry(&e, &p.rob[i])
	}

	e.Tag("lsq")
	e.Int(len(p.lsq))
	for _, v := range p.lsq {
		e.Int(v)
	}
	e.Int(len(p.storeUnknown))
	for _, v := range p.storeUnknown {
		e.U64(v)
	}
	// wordStores is a map: emit in sorted key order so the encoding of a
	// given machine state is unique (the determinism invariant).
	keys := make([]uint64, 0, len(p.wordStores))
	for k, l := range p.wordStores {
		if len(l) > 0 {
			keys = append(keys, k) //civet:allow mapdet sortU64 sorts keys right below, before any use
		}
	}
	sortU64(keys)
	e.Int(len(keys))
	for _, k := range keys {
		e.U64(k)
		l := p.wordStores[k]
		e.Int(len(l))
		for _, idx := range l {
			e.Int(int(idx))
		}
	}

	e.Tag("fetch")
	e.Int(p.fetchPC)
	e.Bool(p.fetchHalted)
	e.U64(p.fetchStallUntil)
	n := p.fetchLen()
	e.Int(n)
	for i := 0; i < n; i++ {
		f := &p.fetchQ[p.fetchQHead+i]
		e.Int(f.pc)
		e.Bool(f.predTaken)
		e.U64(f.histSnapshot)
		e.U64(f.readyAt)
	}

	p.hier.SaveState(&e)
	p.bp.SaveState(&e)
	p.mbs.SaveState(&e)
	p.sp.SaveState(&e)

	e.Tag("ci")
	e.Bool(p.nrbq != nil)
	if p.nrbq != nil {
		p.nrbq.SaveState(&e)
	}
	e.Bool(p.crp.Valid)
	e.Int(p.crp.PC)
	e.Bool(p.crp.Reached)
	e.U64(uint64(p.crp.Mask))
	e.U64(p.crp.Episode)
	e.Bool(p.episodeOpen)
	e.Bool(p.episodeSelected)
	e.Bool(p.episodeReused)
	e.Bool(p.srsmt != nil)
	if p.srsmt != nil {
		p.srsmt.SaveState(&e)
	}
	e.U64(p.entryStamp)
	e.Int(len(p.activeEntries))
	for i := range p.activeEntries {
		p.saveEntryRef(&e, &p.activeEntries[i])
	}
	e.Int(len(p.seedWatch))
	for i := range p.seedWatch {
		p.saveEntryRef(&e, &p.seedWatch[i])
	}

	e.Tag("ciiw")
	e.Int(p.iwLive)
	for _, pc := range p.iwPCs[:p.iwLive] {
		e.Int(pc)
		e.Int(p.iwHead[pc])
		l := p.iwTable[pc]
		e.Int(len(l))
		for i := range l {
			e.Int(l[i].pc)
			e.U64(l[i].seq)
			e.U64(l[i].writerSeq[0])
			e.U64(l[i].writerSeq[1])
			e.Int(l[i].nsrc)
			e.U64(l[i].value)
		}
	}
	e.Int(len(p.iwRemapFrom))
	for i := range p.iwRemapFrom {
		e.U64(p.iwRemapFrom[i])
		e.U64(p.iwRemapTo[i])
	}
	e.U64(p.iwChainEpoch)

	e.Tag("sched")
	saveWaitList(&e, p.waitQ)
	saveWaitList(&e, p.execQ)
	saveWaitList(&e, p.validPend)
	e.U64(p.execMinDone)
	saveWaitList(&e, p.readyQ)
	e.Int(len(p.regWaiters))
	nonEmpty := 0
	for _, l := range p.regWaiters {
		if len(l) > 0 {
			nonEmpty++
		}
	}
	e.Int(nonEmpty)
	for r, l := range p.regWaiters {
		if len(l) == 0 {
			continue
		}
		e.Int(r)
		saveWaitList(&e, l)
	}
	e.U64(p.schedStamp)
	e.Bool(p.lastNoIssue)
	e.Bool(p.readyDirty)

	e.Tag("wheel")
	for i := range p.doneWheel {
		b := p.doneWheel[i]
		e.Int(len(b))
		for j := range b {
			p.saveEntryRef(&e, &b[j])
		}
	}
	for _, w := range p.wheelOcc {
		e.U64(w)
	}
	e.U64(p.ffJumps)
	e.U64(p.ffSkipped)

	e.Tag("freed")
	e.U64(p.freedEpoch)
	e.Int(p.freedCount)
	nFreed := 0
	for r := range p.freedMark {
		if p.freedMark[r] == p.freedEpoch {
			nFreed++
		}
	}
	e.Int(nFreed)
	for r := range p.freedMark {
		if p.freedMark[r] == p.freedEpoch {
			e.Int(r)
		}
	}

	p.saveStats(&e)
	e.Tag("end")
	return ckpt.Seal(CheckpointVersion, e.Bytes())
}

// sortU64 sorts in place (insertion for short, else a simple
// bottom-up merge via the stdlib would pull in sort; the word-store
// index is small, so insertion sort is fine and allocation-free).
func sortU64(a []uint64) {
	for i := 1; i < len(a); i++ {
		for j := i; j > 0 && a[j] < a[j-1]; j-- {
			a[j], a[j-1] = a[j-1], a[j]
		}
	}
}

// PeekCheckpoint decodes a checkpoint's identity prefix: configuration,
// program name/hash, and progress counters.
func PeekCheckpoint(data []byte) (CheckpointInfo, error) {
	payload, err := ckpt.Open(data, CheckpointVersion)
	if err != nil {
		return CheckpointInfo{}, err
	}
	d := ckpt.NewDecoder(payload)
	d.Tag("proc")
	info := CheckpointInfo{Config: loadConfig(d)}
	d.Tag("prog")
	info.Program = d.Str()
	d.Int() // program length
	info.ProgramHash = d.U64()
	d.Tag("arch")
	info.Cycle = d.U64()
	info.Committed = d.U64()
	if err := d.Err(); err != nil {
		return CheckpointInfo{}, err
	}
	return info, nil
}

// RestoreCheckpoint rebuilds a processor from a sealed checkpoint
// container. prog must be the program the checkpoint was taken over
// (verified by name, length and hash); base must be the same pristine
// initial memory image passed to SaveCheckpoint (nil if it was nil).
// The restored processor carries no observer or tracer.
func RestoreCheckpoint(data []byte, prog *isa.Program, base *mem.Memory) (*Proc, error) {
	payload, err := ckpt.Open(data, CheckpointVersion)
	if err != nil {
		return nil, err
	}
	d := ckpt.NewDecoder(payload)
	d.Tag("proc")
	cfg := loadConfig(d)

	d.Tag("prog")
	name := d.Str()
	plen := d.Int()
	phash := d.U64()
	if err := d.Err(); err != nil {
		return nil, err
	}
	if prog == nil {
		return nil, fmt.Errorf("core: restore needs a program")
	}
	if prog.Name != name || prog.Len() != plen || prog.Hash() != phash {
		return nil, fmt.Errorf("core: checkpoint was taken over program %q (len %d, hash %016x), not the supplied %q (len %d, hash %016x)",
			name, plen, phash, prog.Name, prog.Len(), prog.Hash())
	}

	p, err := New(cfg, prog, mem.New())
	if err != nil {
		return nil, fmt.Errorf("core: restore: %w", err)
	}

	d.Tag("arch")
	p.cycle = d.U64()
	d.U64() // committed (peek duplicate; authoritative copy is in stats)
	p.seq = d.U64()
	p.halted = d.Bool()
	for i := range p.arf {
		p.arf[i] = d.U64()
	}

	p.mem = mem.LoadDelta(d, base)

	d.Tag("rename")
	for i := range p.ren {
		loadRenEntry(d, &p.ren[i])
	}
	nlists := d.Count()
	p.stridePC.lists = make([][maxStridedPCs]uint64, nlists)
	for i := range p.stridePC.lists {
		for j := range p.stridePC.lists[i] {
			p.stridePC.lists[i][j] = d.U64()
		}
	}
	nfree := d.Count()
	p.stridePC.free = make([]int32, nfree)
	for i := range p.stridePC.free {
		p.stridePC.free[i] = int32(d.Int())
	}

	p.rf = regfile.LoadFile(d)
	if d.Bool() {
		p.sm = regfile.LoadSpecMem(d)
	} else {
		p.sm = nil
	}

	d.Tag("rob")
	nrob := d.Int()
	if d.Err() == nil && nrob != len(p.rob) {
		d.Fail("ROB size mismatch: checkpoint %d, config %d", nrob, len(p.rob))
	}
	p.robHead = d.Int()
	p.robTail = d.Int()
	p.robCount = d.Int()
	if d.Err() == nil {
		for i := range p.rob {
			p.loadROBEntry(d, &p.rob[i])
		}
	}

	d.Tag("lsq")
	nlsq := d.Count()
	p.lsq = make([]int, nlsq)
	for i := range p.lsq {
		p.lsq[i] = d.Int()
	}
	nsu := d.Count()
	p.storeUnknown = make([]uint64, nsu)
	for i := range p.storeUnknown {
		p.storeUnknown[i] = d.U64()
	}
	nwords := d.Count()
	for i := 0; i < nwords; i++ {
		k := d.U64()
		nl := d.Count()
		l := make([]int32, nl)
		for j := range l {
			l[j] = int32(d.Int())
		}
		p.wordStores[k] = l
	}

	d.Tag("fetch")
	p.fetchPC = d.Int()
	p.fetchHalted = d.Bool()
	p.fetchStallUntil = d.U64()
	nfq := d.Count()
	p.fetchQ = make([]fetchedInstr, nfq)
	p.fetchQHead = 0
	for i := range p.fetchQ {
		p.fetchQ[i].pc = d.Int()
		p.fetchQ[i].predTaken = d.Bool()
		p.fetchQ[i].histSnapshot = d.U64()
		p.fetchQ[i].readyAt = d.U64()
	}

	p.hier.LoadState(d)
	p.bp.LoadState(d)
	p.mbs.LoadState(d)
	p.sp.LoadState(d)

	d.Tag("ci")
	hasNRBQ := d.Bool()
	if hasNRBQ != (p.nrbq != nil) {
		d.Fail("NRBQ presence mismatch between checkpoint and configuration")
	} else if p.nrbq != nil {
		p.nrbq.LoadState(d)
	}
	p.crp.Valid = d.Bool()
	p.crp.PC = d.Int()
	p.crp.Reached = d.Bool()
	p.crp.Mask = ci.RegMask(d.U64())
	p.crp.Episode = d.U64()
	p.episodeOpen = d.Bool()
	p.episodeSelected = d.Bool()
	p.episodeReused = d.Bool()
	hasSRSMT := d.Bool()
	if hasSRSMT != (p.srsmt != nil) {
		d.Fail("SRSMT presence mismatch between checkpoint and configuration")
	} else if p.srsmt != nil {
		p.srsmt.LoadState(d)
	}
	p.entryStamp = d.U64()
	nact := d.Count()
	p.activeEntries = p.activeEntries[:0]
	for i := 0; i < nact; i++ {
		if ref, ok := p.loadEntryRef(d); ok {
			p.activeEntries = append(p.activeEntries, ref)
		}
	}
	nwatch := d.Count()
	p.seedWatch = p.seedWatch[:0]
	for i := 0; i < nwatch; i++ {
		if ref, ok := p.loadEntryRef(d); ok {
			p.seedWatch = append(p.seedWatch, ref)
		}
	}

	d.Tag("ciiw")
	niw := d.Count()
	p.iwLive = 0
	for i := 0; i < niw; i++ {
		pc := d.Int()
		head := d.Int()
		nl := d.Count()
		if d.Err() != nil {
			break
		}
		if pc < 0 || pc >= len(p.iwTable) {
			d.Fail("squash-reuse PC %d outside program (%d static instructions)", pc, len(p.iwTable))
			break
		}
		l := make([]iwReuse, nl)
		for j := range l {
			l[j].pc = d.Int()
			l[j].seq = d.U64()
			l[j].writerSeq[0] = d.U64()
			l[j].writerSeq[1] = d.U64()
			l[j].nsrc = d.Int()
			l[j].value = d.U64()
		}
		p.iwTable[pc] = l
		p.iwHead[pc] = head
		p.iwPCs = append(p.iwPCs, pc)
		p.iwLive++
	}
	nremap := d.Count()
	p.iwRemapFrom = make([]uint64, nremap)
	p.iwRemapTo = make([]uint64, nremap)
	for i := 0; i < nremap; i++ {
		p.iwRemapFrom[i] = d.U64()
		p.iwRemapTo[i] = d.U64()
	}
	p.iwChainEpoch = d.U64()

	d.Tag("sched")
	p.waitQ = loadWaitList(d)
	p.execQ = loadWaitList(d)
	p.validPend = loadWaitList(d)
	p.execMinDone = d.U64()
	p.readyQ = loadWaitList(d)
	nwait := d.Int()
	if d.Err() == nil && nwait >= 0 {
		if nwait > len(p.regWaiters) {
			// Unbounded register files grow the waiter table on demand;
			// match the checkpointed size.
			grown := make([][]waitRef, nwait)
			copy(grown, p.regWaiters)
			p.regWaiters = grown
		}
		nne := d.Count()
		for i := 0; i < nne; i++ {
			r := d.Int()
			if d.Err() != nil {
				break
			}
			if r < 0 || r >= len(p.regWaiters) {
				d.Fail("park-list register %d out of range (%d)", r, len(p.regWaiters))
				break
			}
			p.regWaiters[r] = loadWaitList(d)
		}
	}
	p.schedStamp = d.U64()
	p.lastNoIssue = d.Bool()
	p.readyDirty = d.Bool()

	d.Tag("wheel")
	for i := range p.doneWheel {
		nb := d.Count()
		if nb == 0 {
			p.doneWheel[i] = p.doneWheel[i][:0]
			continue
		}
		b := p.doneWheel[i][:0]
		for j := 0; j < nb; j++ {
			if ref, ok := p.loadEntryRef(d); ok {
				b = append(b, ref)
			}
		}
		p.doneWheel[i] = b
	}
	for i := range p.wheelOcc {
		p.wheelOcc[i] = d.U64()
	}
	p.ffJumps = d.U64()
	p.ffSkipped = d.U64()

	d.Tag("freed")
	p.freedEpoch = d.U64()
	p.freedCount = d.Int()
	nfreed := d.Count()
	for i := 0; i < nfreed; i++ {
		r := d.Int()
		if d.Err() != nil {
			break
		}
		if r < 0 || r > 1<<24 {
			d.Fail("freed register %d out of range", r)
			break
		}
		if r >= len(p.freedMark) {
			grown := make([]uint64, r+64)
			copy(grown, p.freedMark)
			p.freedMark = grown
		}
		p.freedMark[r] = p.freedEpoch
	}

	p.loadStats(d)
	d.Tag("end")
	if err := d.Err(); err != nil {
		return nil, err
	}
	if d.Remaining() != 0 {
		return nil, fmt.Errorf("core: checkpoint payload has %d trailing bytes", d.Remaining())
	}
	return p, nil
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

// LoadWarmState decodes functionally-warmed state straight into a
// freshly built processor: the sections AdoptWarmState would copy —
// gshare, MBS, stride, L1I, L1D, L2, L3 — in that order, as their
// SaveState methods wrote them. It restores a captured sample without
// a staging copy of the structures. Like AdoptWarmState it is only
// legal before the first cycle; a decoding failure returns the
// decoder's latched error.
func (p *Proc) LoadWarmState(d *ckpt.Decoder) error {
	if p.cycle != 0 || p.seq != 0 || p.Stats.Committed != 0 {
		return fmt.Errorf("core: LoadWarmState on a processor that has already run (cycle %d)", p.cycle)
	}
	p.bp.LoadState(d)
	p.mbs.LoadState(d)
	p.sp.LoadState(d)
	p.hier.L1I.LoadState(d)
	p.hier.L1D.LoadState(d)
	p.hier.L2.LoadState(d)
	p.hier.L3.LoadState(d)
	return d.Err()
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
	if pc < 0 {
		return fmt.Errorf("core: SetArchState with negative PC %d", pc)
	}
	p.arf = regs
	for r := 0; r < isa.NumLogical; r++ {
		p.rf.Write(int(p.ren[r].phys), regs[r])
	}
	p.fetchPC = pc
	return nil
}
