package core

import (
	"bytes"
	"testing"

	"civect/internal/ckpt"
	"civect/internal/emu"
	"civect/internal/workload"
)

// Reset is the only initializer (New is a zero Proc plus Reset), and a
// sim.Set worker resets one machine for every point it runs. These
// tests hold a recycled machine to a fresh one: same statistics, same
// checkpoint bytes, whatever the machine ran before, and almost no
// allocation for a same-shape reset.

// resetPoint is one step of a recycled machine's heterogeneous history.
type resetPoint struct {
	name  string
	bench string
	mode  Mode
	instr uint64
	edit  func(*Config)
	// build readies p — a new Proc or the recycled one — for the point;
	// nil is a plain Reset.
	build func(t *testing.T, p *Proc, cfg Config, b *workload.Benchmark)
}

// recycleEngines returns the engines TestRecycledMachineDiff covers:
// all three on a plain run, and under CIVECT_ENGINE_PAIR the pair's
// first engine. The CI matrix legs name each engine first exactly once
// (naive,event / event,fastforward / fastforward,naive), so the legs
// split the engines among themselves.
func recycleEngines(t *testing.T) []string {
	pairs := enginePairs(t)
	if len(pairs) == 1 {
		return pairs[0][:1]
	}
	return []string{"naive", "event", "fastforward"}
}

// warmCapture encodes src's warm structures as the sampling driver's
// capture does.
func warmCapture(src *Proc) []byte {
	var e ckpt.Codec
	WalkWarmState(&e, src.bp, src.mbs, src.sp, src.hier.L1I, src.hier.L1D, src.hier.L2, src.hier.L3)
	return e.Payload()
}

// sampledBuild starts p the way the sampling driver starts a sample
// machine: architectural state and memory from the functional emulator
// at instruction 3000, warm predictor and cache state decoded from a
// capture (here, of a detailed machine that ran the same stretch).
func sampledBuild(t *testing.T, p *Proc, cfg Config, b *workload.Benchmark) {
	t.Helper()
	cpu := emu.New(b.NewMem())
	if err := cpu.Run(b.Program, 3_000); err != nil && err != emu.ErrLimit {
		t.Fatal(err)
	}
	src, err := New(DefaultConfig(ModeCI), b.Program, b.NewMem())
	if err != nil {
		t.Fatal(err)
	}
	runToCommit(t, src, 3_000)
	if err := p.Reset(cfg, b.Program, cpu.Mem.Clone()); err != nil {
		t.Fatal(err)
	}
	if err := p.SetArchState(cpu.Regs, cpu.PC); err != nil {
		t.Fatal(err)
	}
	if err := p.LoadWarmState(ckpt.Decode(warmCapture(src))); err != nil {
		t.Fatal(err)
	}
}

// restoredBuild restores into p a checkpoint of a fresh run under cfg
// taken at 2500 committed instructions.
func restoredBuild(t *testing.T, p *Proc, cfg Config, b *workload.Benchmark) {
	t.Helper()
	src, err := New(cfg, b.Program, b.NewMem())
	if err != nil {
		t.Fatal(err)
	}
	runToCommit(t, src, 2_500)
	if err := p.restore(src.SaveCheckpoint(b.NewMem()), b.Program, b.NewMem()); err != nil {
		t.Fatal(err)
	}
}

// TestRecycledMachineDiff runs one recycled machine per engine through
// a heterogeneous sequence — every mode, both tiers, window, register
// and cache-geometry changes, spec memory, a sampled warm start and a
// restored checkpoint, then the first point again — and requires every
// point's final statistics and final checkpoint bytes to equal a new
// machine's.
func TestRecycledMachineDiff(t *testing.T) {
	points := []resetPoint{
		{name: "gcc-ci", bench: "gcc", mode: ModeCI, instr: 8_000},
		{name: "gcc-scal", bench: "gcc", mode: ModeScalar, instr: 8_000},
		{name: "mcf-wb-512regs", bench: "mcf", mode: ModeWideBus, instr: 8_000, edit: func(c *Config) {
			c.PhysRegs, c.WindowSize = 512, WindowFor(512)
		}},
		{name: "gcc.big-ci", bench: "gcc.big", mode: ModeCI, instr: 6_000},
		{name: "mcf-ciiw", bench: "mcf", mode: ModeCIIW, instr: 8_000},
		{name: "gcc-ciiw", bench: "gcc", mode: ModeCIIW, instr: 8_000},
		{name: "parser-vect-smallL1D", bench: "parser", mode: ModeVect, instr: 8_000, edit: func(c *Config) {
			c.Hier.L1D.SizeBytes, c.Hier.L2.Assoc = 16<<10, 8
		}},
		{name: "vpr-ci-inf", bench: "vpr", mode: ModeCI, instr: 8_000, edit: func(c *Config) {
			c.PhysRegs, c.WindowSize = 0, WindowFor(0)
		}},
		{name: "gcc-ci-specmem-2port", bench: "gcc", mode: ModeCI, instr: 8_000, edit: func(c *Config) {
			c.SpecMemSize, c.DL1Ports = 768, 2
		}},
		{name: "gcc-ci-sampled", bench: "gcc", mode: ModeCI, instr: 5_000, build: sampledBuild},
		{name: "gcc-ciiw-restored", bench: "gcc", mode: ModeCIIW, instr: 6_000, build: restoredBuild},
		{name: "mcf.big-scal", bench: "mcf.big", mode: ModeScalar, instr: 6_000},
		{name: "gcc-ci-again", bench: "gcc", mode: ModeCI, instr: 8_000},
	}
	for _, eng := range recycleEngines(t) {
		t.Run(eng, func(t *testing.T) {
			slot := new(Proc)
			for _, pt := range points {
				b, err := workload.Spec(pt.bench)
				if err != nil {
					t.Fatal(err)
				}
				cfg := DefaultConfig(pt.mode)
				cfg.MaxInstr = pt.instr
				if pt.edit != nil {
					pt.edit(&cfg)
				}
				useEngine(t, &cfg, eng)
				build := pt.build
				if build == nil {
					build = func(t *testing.T, p *Proc, cfg Config, b *workload.Benchmark) {
						if err := p.Reset(cfg, b.Program, b.NewMem()); err != nil {
							t.Fatal(err)
						}
					}
				}
				fresh := new(Proc)
				build(t, fresh, cfg, b)
				build(t, slot, cfg, b)
				want, got := runToEnd(t, fresh), runToEnd(t, slot)
				if *got != *want {
					t.Fatalf("%s: recycled machine diverges from a new one:\nnew:      %+v\nrecycled: %+v", pt.name, *want, *got)
				}
				if !bytes.Equal(slot.SaveCheckpoint(b.NewMem()), fresh.SaveCheckpoint(b.NewMem())) {
					t.Fatalf("%s: recycled machine's checkpoint differs from a new machine's", pt.name)
				}
			}
		})
	}
}

// TestResetAllocs pins what a same-shape reset costs: the machine's
// tables, arrays and scratch lists are all reused, so resetting it for
// the next point allocates at most a small constant, in every mode.
func TestResetAllocs(t *testing.T) {
	b, err := workload.Spec("gcc")
	if err != nil {
		t.Fatal(err)
	}
	for _, mode := range Modes() {
		cfg := DefaultConfig(mode)
		cfg.MaxInstr = 5_000
		cfg.SpecMemSize = 256
		p, err := New(cfg, b.Program, b.NewMem())
		if err != nil {
			t.Fatal(err)
		}
		runToEnd(t, p)
		m := b.NewMem()
		avg := testing.AllocsPerRun(10, func() {
			if err := p.Reset(cfg, b.Program, m); err != nil {
				t.Fatal(err)
			}
		})
		if avg > 1 {
			t.Errorf("%v: a same-shape Reset allocates %.1f times, want at most 1", mode, avg)
		}
	}
}

// TestResetClearsEpochSets: the freed-register set and the ci-iw chain
// scratch are epoch-stamped, and a kept stamp would read as a member
// once the new run's epoch counts up to it. After a Reset no register
// may read as freed or chained at any epoch the previous run used.
func TestResetClearsEpochSets(t *testing.T) {
	b, err := workload.Spec("mcf")
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig(ModeCIIW)
	cfg.MaxInstr = 20_000
	p, err := New(cfg, b.Program, b.NewMem())
	if err != nil {
		t.Fatal(err)
	}
	runToEnd(t, p)
	freed, chained := p.freedEpoch, p.iwChainEpoch
	if chained == 0 || p.Stats.IWCaptured == 0 {
		t.Fatal("the run captured nothing; pick a workload with ci-iw captures")
	}
	if err := p.Reset(cfg, b.Program, b.NewMem()); err != nil {
		t.Fatal(err)
	}
	for e := uint64(1); e <= max(freed, chained); e++ {
		p.freedEpoch, p.iwChainEpoch = e, e
		for r := range max(len(p.freedMark), len(p.iwChainMark)) {
			if _, hit := p.chainGet(r); hit || p.wasFreed(r) {
				t.Fatalf("register %d reads as freed or chained at epoch %d after Reset", r, e)
			}
		}
	}
}

// TestRestoreRejectsForgedConfig: a checkpoint's configuration sizes
// the machine a restore builds, so a CRC-valid checkpoint with a forged
// one could make the restore panic on a bad geometry or allocate
// without bound. Each forgery must be an error, allocating little —
// except a huge LSQ, which sizes nothing and restores.
func TestRestoreRejectsForgedConfig(t *testing.T) {
	b, err := workload.Spec("gcc")
	if err != nil {
		t.Fatal(err)
	}
	base := b.NewMem()
	for _, tc := range []struct {
		name   string
		forge  func(*Config)
		accept bool
	}{
		{"odd-line-size", func(c *Config) { c.Hier.L2.LineBytes = 48 }, false},
		{"zero-assoc", func(c *Config) { c.Hier.L1D.Assoc = 0 }, false},
		{"huge-ports", func(c *Config) { c.DL1Ports = 1 << 40 }, false},
		{"huge-gshare", func(c *Config) { c.GshareEntries = 1 << 30 }, false},
		{"huge-srsmt", func(c *Config) { c.SRSMTSets = 1 << 30 }, false},
		{"huge-l3", func(c *Config) { c.Hier.L3.SizeBytes = 1 << 40 }, false},
		{"overflow-mbs", func(c *Config) { c.MBSSets, c.MBSAssoc = 1<<40, 1<<40 }, false},
		{"huge-window", func(c *Config) { c.WindowSize = 1 << 30 }, false},
		{"huge-spec-mem", func(c *Config) { c.SpecMemSize = 1 << 30 }, false},
		{"stride-no-ways", func(c *Config) { c.StrideAssoc = 0 }, false},
		{"huge-lsq", func(c *Config) { c.LSQSize = 1 << 40 }, true},
	} {
		src, err := New(fuzzConfig(), b.Program, b.NewMem())
		if err != nil {
			t.Fatal(err)
		}
		tc.forge(&src.cfg)
		data := src.SaveCheckpoint(base)
		allocs := testing.AllocsPerRun(1, func() {
			if _, err := RestoreCheckpoint(data, b.Program, base); (err == nil) != tc.accept {
				t.Errorf("%s: restore error %v, want accepted=%v", tc.name, err, tc.accept)
			}
		})
		if allocs > 200 {
			t.Errorf("%s: restoring allocated %.0f times", tc.name, allocs)
		}
	}
}

// TestRestoreRejectsForgedROBHead: a CRC-valid checkpoint of a gcc ci
// machine whose ROB head is rewritten to 2^40 once restored with a nil
// error and panicked on the first Step. The restore must refuse it.
func TestRestoreRejectsForgedROBHead(t *testing.T) {
	b, err := workload.Spec("gcc")
	if err != nil {
		t.Fatal(err)
	}
	base := b.NewMem()
	src, err := New(DefaultConfig(ModeCI), b.Program, b.NewMem())
	if err != nil {
		t.Fatal(err)
	}
	runToCommit(t, src, 500)
	payload, err := ckpt.Open(src.SaveCheckpoint(base), CheckpointVersion)
	if err != nil {
		t.Fatal(err)
	}
	var rob ckpt.Codec
	rob.Tag("rob")
	nrob, robHead := len(src.rob), src.robHead
	rob.Int(&nrob)
	rob.Int(&robHead)
	at := bytes.Index(payload, rob.Payload())
	if at < 0 {
		t.Fatal("ROB section not found in the checkpoint")
	}
	forged := append([]byte(nil), payload...)
	var head ckpt.Codec
	forgedHead := 1 << 40
	head.Int(&forgedHead)
	copy(forged[at+len(rob.Payload())-len(head.Payload()):], head.Payload())
	if p, err := RestoreCheckpoint(ckpt.Seal(CheckpointVersion, forged), b.Program, base); err == nil {
		p.Step()
		t.Fatal("checkpoint with ROB head 2^40 restored without error")
	}
}

// FuzzRestoreCheckpoint feeds arbitrary checkpoint payloads to
// RestoreCheckpoint and LoadWarmState, on fresh machines and on a
// recycled one. The contract is an error, never a panic or a hang;
// every machine a restore accepts steps 2,000 cycles without a panic
// (it may stop on a fault, Proc.Err); and a failed restore must not
// leak into the recycled machine's next run: after a Reset it runs
// exactly as a fresh machine does. The seeds are a real checkpoint
// payload and a real warm-state capture plus the single-byte flips and
// truncations TestCheckpointCorruptionRejected applies, here to the
// payload (resealed, so the decoder rather than the CRC meets the
// damage), and the crashers earlier fuzzing found (testdata/fuzz).
func FuzzRestoreCheckpoint(f *testing.F) {
	b, err := workload.Spec("gcc")
	if err != nil {
		f.Fatal(err)
	}
	cfg := fuzzConfig()
	base := b.NewMem()
	src, err := New(cfg, b.Program, b.NewMem())
	if err != nil {
		f.Fatal(err)
	}
	for !src.halted && src.Stats.Committed < 150 {
		src.step()
	}
	payload, err := ckpt.Open(src.SaveCheckpoint(base), CheckpointVersion)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(payload)
	f.Add(warmCapture(src))
	for pos := 0; pos < len(payload); pos += 97 * 4 {
		mut := append([]byte(nil), payload...)
		mut[pos] ^= 0x40
		f.Add(mut)
	}
	for cut := 0; cut < len(payload); cut += 101 * 4 {
		f.Add(payload[:cut])
	}

	want := fuzzReference(f, b)
	slot := new(Proc)
	f.Fuzz(func(t *testing.T, data []byte) {
		sealed := ckpt.Seal(CheckpointVersion, data)
		for _, in := range [][]byte{data, sealed} {
			p, err := RestoreCheckpoint(in, b.Program, base)
			if err == nil && p == nil {
				t.Fatal("RestoreCheckpoint returned neither a machine nor an error")
			}
			if err == nil {
				stepRestored(p)
			}
			if slot.restore(in, b.Program, base) == nil {
				stepRestored(slot)
			}
			// Whatever the restore left behind, a Reset must give the
			// fresh machine's run back.
			if err := slot.Reset(cfg, b.Program, b.NewMem()); err != nil {
				t.Fatal(err)
			}
			if got := runToEnd(t, slot); *got != *want {
				t.Fatalf("reset after a restore attempt diverges:\nfresh:    %+v\nrecycled: %+v", *want, *got)
			}
		}
		fresh, err := New(cfg, b.Program, b.NewMem())
		if err != nil {
			t.Fatal(err)
		}
		fresh.LoadWarmState(ckpt.Decode(data))
		slot.LoadWarmState(ckpt.Decode(data))
	})
}

// stepRestored steps a machine a restore accepted for a bounded number
// of cycles: whatever a restore accepts must step without a panic.
func stepRestored(p *Proc) {
	for i := 0; i < 2_000 && !p.halted; i++ {
		p.step()
	}
}

// fuzzConfig is a small machine, so a checkpoint is tens of kilobytes
// rather than a megabyte and the fuzzer mutates every section of it.
func fuzzConfig() Config {
	cfg := DefaultConfig(ModeCI)
	cfg.MaxInstr = 200
	cfg.WindowSize, cfg.LSQSize, cfg.PhysRegs = 32, 16, 128
	cfg.GshareEntries = 1 << 8
	cfg.MBSSets, cfg.StrideSets, cfg.SRSMTSets = 8, 16, 8
	cfg.Hier.L1I.SizeBytes, cfg.Hier.L1D.SizeBytes = 1<<10, 1<<10
	cfg.Hier.L2.SizeBytes, cfg.Hier.L3.SizeBytes = 2<<10, 4<<10
	cfg.SpecMemSize = 32
	return cfg
}

// fuzzReference is a fresh fuzzConfig run of b: what a recycled machine
// must reproduce after any restore attempt.
func fuzzReference(f *testing.F, b *workload.Benchmark) *Stats {
	p, err := New(fuzzConfig(), b.Program, b.NewMem())
	if err != nil {
		f.Fatal(err)
	}
	for !p.halted && p.Stats.Committed < p.cfg.MaxInstr {
		p.step()
	}
	return p.Finalize()
}
