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

// configFields lists c's serialized fields in CIVK order. saveConfig
// and loadConfig both walk it, as saveStats and loadStats walk
// statsFields, so an encoding and its decoding cannot drift apart.
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

func saveConfig(e *ckpt.Encoder, c *Config) {
	e.Tag("config")
	for _, f := range configFields(c) {
		saveField(e, f)
	}
}

func loadConfig(d *ckpt.Decoder) Config {
	d.Tag("config")
	var c Config
	for _, f := range configFields(&c) {
		loadField(d, f)
	}
	return c
}

// saveField encodes the field f points to by its type.
func saveField(e *ckpt.Encoder, f any) {
	switch f := f.(type) {
	case *Mode:
		e.Int(int(*f))
	case *int:
		e.Int(*f)
	case *bool:
		e.Bool(*f)
	case *uint64:
		e.U64(*f)
	case *float64:
		e.F64(*f)
	default:
		panic(fmt.Sprintf("core: no checkpoint encoding for %T", f))
	}
}

// loadField decodes into the field f points to, as saveField wrote it.
func loadField(d *ckpt.Decoder, f any) {
	switch f := f.(type) {
	case *Mode:
		*f = Mode(d.Int())
	case *int:
		*f = d.Int()
	case *bool:
		*f = d.Bool()
	case *uint64:
		*f = d.U64()
	case *float64:
		*f = d.F64()
	default:
		panic(fmt.Sprintf("core: no checkpoint decoding for %T", f))
	}
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

func (p *Proc) saveStats(e *ckpt.Encoder) {
	e.Tag("stats")
	for _, f := range statsFields(&p.Stats) {
		saveField(e, f)
	}
}

func (p *Proc) loadStats(d *ckpt.Decoder) {
	d.Tag("stats")
	for _, f := range statsFields(&p.Stats) {
		loadField(d, f)
	}
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
	// Every PC the last capture wrote; restore recounts iwLive, the
	// records not yet reused, from the lists and cursors.
	e.Int(len(p.iwPCs))
	for _, pc := range p.iwPCs {
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
// checkpoint's configuration, then the decode. A failed restore leaves
// p unusable until its next Reset.
func (p *Proc) restore(data []byte, prog *isa.Program, base *mem.Memory) error {
	payload, err := ckpt.Open(data, CheckpointVersion)
	if err != nil {
		return err
	}
	d := ckpt.NewDecoder(payload)
	d.Tag("proc")
	cfg := loadConfig(d)

	d.Tag("prog")
	name := d.Str()
	plen := d.Int()
	phash := d.U64()
	if err := d.Err(); err != nil {
		return err
	}
	if prog == nil {
		return fmt.Errorf("core: restore needs a program")
	}
	if prog.Name != name || prog.Len() != plen || prog.Hash() != phash {
		return fmt.Errorf("core: checkpoint was taken over program %q (len %d, hash %016x), not the supplied %q (len %d, hash %016x)",
			name, plen, phash, prog.Name, prog.Len(), prog.Hash())
	}
	if err := cfg.Validate(); err != nil {
		return fmt.Errorf("core: restore: %w", err)
	}
	if err := fitsPayload(&cfg, len(payload)); err != nil {
		return fmt.Errorf("core: restore: %w", err)
	}
	if err := p.Reset(cfg, prog, mem.New()); err != nil {
		return fmt.Errorf("core: restore: %w", err)
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
		if pc < 0 || pc >= len(p.iwTable) || head < 0 || head > nl {
			d.Fail("squash-reuse PC %d or cursor %d outside the program or its %d records", pc, head, nl)
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
		p.iwLive += nl - head
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
	// Park lists are per physical register, and every register costs
	// the payload 10 bytes, so the table is at most twice that count
	// plus the growth slack (parkOn).
	maxRegs := len(payload) / 10
	nwait := d.Int()
	if d.Err() == nil && nwait > 2*maxRegs+64 {
		d.Fail("park-list table of %d registers exceeds the %d-byte checkpoint", nwait, len(payload))
	}
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
		if r < 0 || r > maxRegs {
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
		return err
	}
	if d.Remaining() != 0 {
		return fmt.Errorf("core: checkpoint payload has %d trailing bytes", d.Remaining())
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
	check((p.sm != nil) == (p.cfg.Mode.Vectorizes() && p.cfg.SpecMemSize > 0) &&
		(p.sm == nil || p.sm.Size() == p.cfg.SpecMemSize), "spec memory does not match the configuration")
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

// fitsPayload rejects a checkpointed configuration whose machine the
// payload cannot describe, before anything is sized from it: every
// cache line, predictor entry, ROB entry, physical register, spec
// memory position and wide-bus latch is encoded, at no fewer bytes
// each than counted here, so a forged header cannot make a restore
// allocate more than a small multiple of the file. The SRSMT and NRBQ
// encode only live entries; their tables are capped outright, far
// above any real geometry. c must have passed Validate.
func fitsPayload(c *Config, n int) error {
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
