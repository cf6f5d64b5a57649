package workload

import (
	"sync"
	"testing"

	"civect/internal/emu"
)

func TestAllBenchmarksGenerate(t *testing.T) {
	for _, name := range Names() {
		b, err := Spec(name)
		if err != nil {
			t.Errorf("%s: %v", name, err)
			continue
		}
		if err := b.Program.Validate(); err != nil {
			t.Errorf("%s: invalid program: %v", name, err)
		}
		if b.Program.Len() < 10 {
			t.Errorf("%s: suspiciously small program (%d instrs)", name, b.Program.Len())
		}
	}
}

func TestNamesComplete(t *testing.T) {
	want := []string{"bzip2", "crafty", "eon", "gap", "gcc", "gzip",
		"mcf", "parser", "perlbmk", "twolf", "vortex", "vpr"}
	got := Names()
	if len(got) != len(want) {
		t.Fatalf("got %d names, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("names[%d] = %s, want %s", i, got[i], want[i])
		}
	}
}

func TestUnknownBenchmark(t *testing.T) {
	if _, err := Spec("nosuch"); err == nil {
		t.Error("expected error for unknown benchmark")
	}
}

func TestDeterminism(t *testing.T) {
	a, err := SpecWithIters("gcc", 50)
	if err != nil {
		t.Fatal(err)
	}
	b, err := SpecWithIters("gcc", 50)
	if err != nil {
		t.Fatal(err)
	}
	if a.Program.Len() != b.Program.Len() {
		t.Fatal("program lengths differ across identical generations")
	}
	for i := range a.Program.Code {
		if a.Program.Code[i] != b.Program.Code[i] {
			t.Fatalf("instruction %d differs", i)
		}
	}
	ma, mb := a.NewMem(), b.NewMem()
	if ma.Checksum() != mb.Checksum() {
		t.Error("memory images differ across identical generations")
	}
}

func TestNewMemIsolation(t *testing.T) {
	b, err := SpecWithIters("gzip", 10)
	if err != nil {
		t.Fatal(err)
	}
	m1 := b.NewMem()
	m2 := b.NewMem()
	m1.Write64(0x10_0000, 999999)
	if m2.Read64(0x10_0000) == 999999 {
		t.Error("NewMem must return independent copies")
	}
}

// TestNewMemConcurrent runs two goroutines that each clone the shared
// (frozen) image and run the emulator to completion over their clone, as
// the harness's workers do; under -race this must be clean, and every
// run must end in the same memory state with the image left pristine.
func TestNewMemConcurrent(t *testing.T) {
	b, err := SpecWithIters("gcc", 300)
	if err != nil {
		t.Fatal(err)
	}
	pristine := b.NewMem().Checksum()
	sums := make([]uint64, 8)
	var wg sync.WaitGroup
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := g; i < len(sums); i += 2 {
				cpu := emu.New(b.NewMem())
				if err := cpu.Run(b.Program, 0); err != nil {
					t.Error(err)
					return
				}
				sums[i] = cpu.Mem.Checksum()
			}
		}(g)
	}
	wg.Wait()
	for i, s := range sums {
		if s != sums[0] {
			t.Fatalf("run %d ended with memory checksum %#x, run 0 with %#x", i, s, sums[0])
		}
	}
	if sums[0] == pristine {
		t.Fatal("runs wrote nothing; the test exercises no copy-on-write")
	}
	if got := b.NewMem().Checksum(); got != pristine {
		t.Errorf("image changed under concurrent runs: checksum %#x, want %#x", got, pristine)
	}
}

func TestBenchmarksRunToCompletion(t *testing.T) {
	for _, name := range Names() {
		b, err := SpecWithIters(name, 30)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		c := emu.New(b.NewMem())
		if err := c.Run(b.Program, 2_000_000); err != nil {
			t.Errorf("%s: did not halt: %v", name, err)
		}
		if c.Executed < 30*5 {
			t.Errorf("%s: executed only %d instructions", name, c.Executed)
		}
	}
}

func TestBiasSteersBranches(t *testing.T) {
	// Count taken outcomes of the first hammock branch under emulation
	// for extreme biases.
	for _, tc := range []struct {
		bias float64
		lo   float64
		hi   float64
	}{
		{0.95, 0.85, 1.0},
		{0.50, 0.30, 0.70},
		{0.05, 0.0, 0.15},
	} {
		b := MustGenerate(Params{
			Name: "biasprobe", ArrayWords: 1 << 10, Iters: 400,
			TakenBias: tc.bias, Hammocks: 1, CIOps: 1, FillerOps: 0,
			Streams: 2, StoreEvery: 0, Seed: 7,
		})
		// Locate the first conditional branch in the loop body.
		c := emu.New(b.NewMem())
		taken, total := 0, 0
		for !c.Halted && c.Executed < 100000 {
			s := c.StepOne(b.Program)
			if s.Instr.IsCondBranch() && s.Instr.Target > s.PC {
				// Forward branch: the hammock.
				total++
				if s.Taken {
					taken++
				}
			}
		}
		if total == 0 {
			t.Fatalf("bias %.2f: no hammock branches executed", tc.bias)
		}
		frac := float64(taken) / float64(total)
		if frac < tc.lo || frac > tc.hi {
			t.Errorf("bias %.2f: taken fraction %.2f outside [%v,%v]", tc.bias, frac, tc.lo, tc.hi)
		}
	}
}

func TestRandomProgramsHaltAndAreDeterministic(t *testing.T) {
	for seed := int64(0); seed < 20; seed++ {
		b1 := Random(seed)
		b2 := Random(seed)
		if b1.Program.Len() != b2.Program.Len() {
			t.Fatalf("seed %d: nondeterministic generation", seed)
		}
		c := emu.New(b1.NewMem())
		if err := c.Run(b1.Program, 500_000); err != nil {
			t.Errorf("seed %d: random program did not halt: %v", seed, err)
		}
	}
}

func TestBadParams(t *testing.T) {
	bad := []Params{
		{Name: "x", ArrayWords: 100, Streams: 1, Hammocks: 1}, // non-pow2
		{Name: "x", ArrayWords: 1 << 8, Streams: 0, Hammocks: 1},
		{Name: "x", ArrayWords: 1 << 8, Streams: 1, Hammocks: 0},
		{Name: "x", ArrayWords: 1 << 8, Streams: 9, Hammocks: 1},
	}
	for i, p := range bad {
		if _, err := Generate(p); err == nil {
			t.Errorf("params %d should fail", i)
		}
	}
}

func TestPointerChaseCycle(t *testing.T) {
	// mcf's chase array must form a cycle: following links ArrayWords
	// times returns to the start without leaving the array.
	b, err := SpecWithIters("mcf", 5)
	if err != nil {
		t.Fatal(err)
	}
	m := b.NewMem()
	n := b.Params.ArrayWords
	start := uint64(chaseBase)
	cur := m.Read64(start)
	seen := 1
	for cur != start {
		if cur < chaseBase || cur >= uint64(chaseBase+n*8) {
			t.Fatalf("chase link leaves the array: %#x", cur)
		}
		cur = m.Read64(cur)
		seen++
		if seen > n+1 {
			t.Fatal("chase does not cycle")
		}
	}
	if seen != n {
		t.Errorf("cycle length %d, want %d", seen, n)
	}
}
