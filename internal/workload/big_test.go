package workload

import (
	"testing"

	"civect/internal/core"
	"civect/internal/emu"
)

// Capacity thresholds the big tier promises to exceed (matching the
// Table 1 machine: 64KB L1I, 64-set 4-way SRSMT, 2MB L3).
const (
	bigMinStaticInstrs = 100_000
	l1iBytes           = 64 << 10
	srsmtEntries       = 64 * 4
	l3Bytes            = 2 << 20
	instBytes          = 4 // must match core's PC-to-byte scaling
)

func TestBigNames(t *testing.T) {
	names := BigNames()
	if len(names) != len(Names()) {
		t.Fatalf("got %d big names, want %d", len(names), len(Names()))
	}
	for i, n := range names {
		if n != Names()[i]+BigSuffix {
			t.Errorf("big name %d = %q", i, n)
		}
		if _, ok := ParamsFor(n); !ok {
			t.Errorf("ParamsFor(%q) not found", n)
		}
	}
	if _, err := Spec("nosuch" + BigSuffix); err == nil {
		t.Error("unknown big benchmark must fail")
	}
	if _, ok := ParamsFor(BigSuffix); ok {
		t.Errorf("bare %q must not resolve", BigSuffix)
	}
}

// TestBigTierThresholds pins the scale contract: every big variant's
// static program overflows the L1 I-cache by a wide margin, its
// strided-load population overflows the SRSMT, and its data working
// set overflows the whole cache hierarchy.
func TestBigTierThresholds(t *testing.T) {
	for _, name := range BigNames() {
		b, err := Spec(name)
		if err != nil {
			t.Fatal(err)
		}
		if err := b.Program.Validate(); err != nil {
			t.Fatalf("%s: invalid program: %v", name, err)
		}
		static := b.Program.Len()
		if static < bigMinStaticInstrs {
			t.Errorf("%s: %d static instructions, want >= %d", name, static, bigMinStaticInstrs)
		}
		if code := static * instBytes; code < 4*l1iBytes {
			t.Errorf("%s: code footprint %d B does not dwarf the %d B L1I", name, code, l1iBytes)
		}
		loadPCs := 0
		for _, in := range b.Program.Code {
			if in.IsLoad() {
				loadPCs++
			}
		}
		if loadPCs < 4*srsmtEntries {
			t.Errorf("%s: %d static load PCs do not dwarf the %d-entry SRSMT", name, loadPCs, srsmtEntries)
		}
		p := b.Params
		arrays := p.Streams
		if p.ArmLoads > 0 {
			arrays++
		}
		if data := p.Phases * arrays * p.ArrayWords * 8; data < 2*l3Bytes {
			t.Errorf("%s: data working set %d B does not overflow the %d B L3", name, data, l3Bytes)
		}
	}
}

// TestBigLenIsExact: the big tier's reservation counts exactly the
// instructions buildBig emits, across every registry shape (with and
// without pointer chasing, gathers and arm loads), so every big and
// ultra program is built into one buffer and handed over uncopied.
func TestBigLenIsExact(t *testing.T) {
	for _, name := range append(BigNames(), UltraNames()...) {
		p, ok := ParamsFor(name)
		if !ok {
			t.Fatalf("%s: no params", name)
		}
		if p.Unroll == 0 {
			p.Unroll = p.sizedUnroll()
		}
		prog, err := p.program()
		if err != nil {
			t.Fatal(err)
		}
		if got := p.bigLen(); got != prog.Len() {
			t.Errorf("%s: bigLen %d, buildBig emitted %d", name, got, prog.Len())
		}
		if cap(prog.Code) != prog.Len() {
			t.Errorf("%s: code capacity %d for %d instructions: not handed over as reserved", name, cap(prog.Code), prog.Len())
		}
	}
}

// TestBigHaltsAndDeterministic runs small-epoch big variants to
// completion under the functional emulator and checks generation is
// reproducible per seed.
func TestBigHaltsAndDeterministic(t *testing.T) {
	for _, name := range []string{"gcc" + BigSuffix, "mcf" + BigSuffix, "twolf" + BigSuffix} {
		p, ok := ParamsFor(name)
		if !ok {
			t.Fatal(name)
		}
		p.Epochs, p.Iters = 2, 1
		a, err := Generate(p)
		if err != nil {
			t.Fatal(err)
		}
		b, err := Generate(p)
		if err != nil {
			t.Fatal(err)
		}
		if a.Program.Len() != b.Program.Len() {
			t.Fatalf("%s: program lengths differ across identical generations", name)
		}
		for i := range a.Program.Code {
			if a.Program.Code[i] != b.Program.Code[i] {
				t.Fatalf("%s: instruction %d differs", name, i)
			}
		}
		if a.NewMem().Checksum() != b.NewMem().Checksum() {
			t.Errorf("%s: memory images differ across identical generations", name)
		}
		c := emu.New(a.NewMem())
		if err := c.Run(a.Program, 5_000_000); err != nil {
			t.Errorf("%s: did not halt: %v", name, err)
		}
		if c.Executed < uint64(a.Program.Len()) {
			t.Errorf("%s: executed only %d instructions over a %d-instr program",
				name, c.Executed, a.Program.Len())
		}
	}
}

// TestBigSimulates drives two big variants through the timing
// simulator in the vectorizing mode: the mechanism must at least
// allocate SRSMT entries under capacity pressure.
func TestBigSimulates(t *testing.T) {
	for _, name := range []string{"gcc" + BigSuffix, "vpr" + BigSuffix} {
		b, err := Spec(name)
		if err != nil {
			t.Fatal(err)
		}
		cfg := core.DefaultConfig(core.ModeCI)
		cfg.MaxInstr = 60_000
		p, err := core.New(cfg, b.Program, b.NewMem())
		if err != nil {
			t.Fatal(err)
		}
		st, err := p.Run()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if st.IPC() <= 0 {
			t.Errorf("%s: IPC %v", name, st.IPC())
		}
		if st.VectorizedEntries == 0 {
			t.Errorf("%s: mechanism allocated no SRSMT entries", name)
		}
		if st.L1I.Misses == 0 {
			t.Errorf("%s: no I-cache misses despite a %d-instr program", name, b.Program.Len())
		}
	}
}
