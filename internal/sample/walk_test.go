package sample

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"testing"

	"civect/internal/core"
	"civect/internal/emu"
	"civect/internal/workload"
)

// TestProfileDigestPinned pins the exact profile of a base program run
// to its halt, which ends on a partial last interval: every projected
// vector bit, every interval length and the total. TestCIVKDigestsPinned
// covers only the MaxInstr-capped path.
func TestProfileDigestPinned(t *testing.T) {
	wl, err := workload.SpecWithIters("gcc", 3000)
	if err != nil {
		t.Fatal(err)
	}
	prof, err := Collect(wl.Program, wl.NewMem(), Config{IntervalLen: 7_000})
	if err != nil {
		t.Fatal(err)
	}
	const (
		wantTotal     = 134_122
		wantIntervals = 20
		wantLast      = 1_122
		wantDigest    = "d71dc0d71ae4777cae6b49ca892c8f0e062e3012f47ea4b2628951fb4018b7ed"
	)
	n := len(prof.Lengths)
	if prof.TotalInstr != wantTotal || n != wantIntervals || prof.Lengths[n-1] != wantLast {
		t.Fatalf("profiled %d instructions in %d intervals, last %d; want %d in %d, last %d",
			prof.TotalInstr, n, prof.Lengths[n-1], wantTotal, wantIntervals, wantLast)
	}
	h := sha256.New()
	put := func(v uint64) { h.Write(binary.LittleEndian.AppendUint64(nil, v)) }
	for _, v := range prof.Vectors {
		for _, x := range v {
			put(math.Float64bits(x))
		}
	}
	for _, l := range prof.Lengths {
		put(l)
	}
	put(prof.TotalInstr)
	if got := hex.EncodeToString(h.Sum(nil)); got != wantDigest {
		t.Errorf("profile digest %s, want %s", got, wantDigest)
	}
}

// TestWalkObserversAllocFree is the runtime zero-allocation gate on the
// functional passes: once the pages a program uses are touched, walking
// it with the profiling observer (plus its interval flush) or the
// warming observer allocates nothing per instruction.
func TestWalkObserversAllocFree(t *testing.T) {
	wl, err := workload.Spec("gcc")
	if err != nil {
		t.Fatal(err)
	}
	prog := wl.Program
	pr := newProfiler(prog)
	cfg := core.DefaultConfig(core.ModeCI)
	w := newWarmer(&cfg)
	defer w.stop()

	for _, tc := range []struct {
		name string
		walk func(c *emu.CPU, limit uint64)
	}{
		{"profiler", func(c *emu.CPU, limit uint64) {
			start := c.Executed
			_ = emu.Walk(c, prog, limit, pr)
			pr.flush(c.Executed - start)
		}},
		{"warmer", func(c *emu.CPU, limit uint64) { _ = emu.Walk(c, prog, limit, w) }},
	} {
		c := emu.New(wl.NewMem())
		tc.walk(c, 200_000) // touch the working set's pages
		if allocs := testing.AllocsPerRun(10, func() { tc.walk(c, c.Executed+20_000) }); allocs != 0 {
			t.Errorf("%s: %.1f allocations per 20k-instruction walk, want 0", tc.name, allocs)
		}
	}
}
