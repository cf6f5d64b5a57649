package core

import (
	"os"
	"strings"
	"testing"

	"civect/internal/workload"
)

// The stall fast-forward engine (fastforward.go) is required to be
// observation-equivalent to the stepped pipeline: skipping a range of
// cycles must leave every statistic — including Cycles and the
// per-cycle occupancy average — bit-identical. These tests prove it
// differentially against both retained references (EngineNaive and
// EngineEvent), across the synthetic SpecInt workloads, both workload
// tiers and random programs, plus cycle-for-cycle alignment at every
// jump.

// engineNames names the three timing engines as CIVECT_ENGINE_PAIR
// and the suites do.
var engineNames = map[string]Engine{
	"naive":       EngineNaive,
	"event":       EngineEvent,
	"fastforward": EngineFastForward,
}

// knownEngine reports whether name is one of engineNames.
func knownEngine(name string) bool {
	_, ok := engineNames[name]
	return ok
}

// useEngine selects the named engine on cfg through the test-only
// setter. It fails if the setter did not take: every engine would then
// be the default one, and a differential suite would compare one
// engine with itself.
func useEngine(t testing.TB, cfg *Config, name string) {
	t.Helper()
	e, ok := engineNames[name]
	if !ok {
		t.Fatalf("unknown engine %q", name)
	}
	cfg.SetEngineForTest(e)
	if cfg.engine != e {
		t.Fatalf("SetEngineForTest(%s) left engine %d: the suite would compare one engine with itself", name, cfg.engine)
	}
}

// enginePairs returns the engine pairs to compare. By default all
// three pairs run (a plain `go test` proves every pair); the CI
// engine-matrix job sets CIVECT_ENGINE_PAIR (e.g. "naive,event") so
// each matrix leg proves one pair under -race in parallel.
func enginePairs(t *testing.T) [][2]string {
	all := [][2]string{{"naive", "event"}, {"event", "fastforward"}, {"fastforward", "naive"}}
	v := os.Getenv("CIVECT_ENGINE_PAIR")
	if v == "" {
		return all
	}
	parts := strings.Split(v, ",")
	if len(parts) != 2 || !knownEngine(parts[0]) || !knownEngine(parts[1]) {
		t.Fatalf("CIVECT_ENGINE_PAIR=%q: want two of naive|event|fastforward", v)
	}
	return [][2]string{{parts[0], parts[1]}}
}

// pairSelected reports whether a suite that compares exactly engines a
// and b belongs to the current matrix leg: always when no leg is
// selected (plain `go test` runs everything), otherwise only when the
// leg's pair matches, unordered. Suites call it so the three CI legs
// partition the differential work instead of each repeating all of it.
func pairSelected(t *testing.T, a, b string) bool {
	pairs := enginePairs(t)
	if len(pairs) != 1 {
		return true
	}
	p := pairs[0]
	return (p[0] == a && p[1] == b) || (p[0] == b && p[1] == a)
}

// skipUnlessPair skips the test on matrix legs its engine pair does
// not belong to.
func skipUnlessPair(t *testing.T, a, b string) {
	if !pairSelected(t, a, b) {
		t.Skipf("suite compares %s vs %s; leg %s covers a different pair", a, b, os.Getenv("CIVECT_ENGINE_PAIR"))
	}
}

// engineStats simulates b under cfg with the named engine applied.
func engineStats(t *testing.T, b *workload.Benchmark, cfg Config, engine string) *Stats {
	t.Helper()
	useEngine(t, &cfg, engine)
	return runStats(t, b, cfg)
}

// TestEngineMatrixDifferential proves every engine pair
// observation-equivalent over the workloads that stress the
// fast-forward conditions: the base tier across all machine modes, the
// memory-bound benchmarks whose stall shadows the engine actually
// skips, the big tier's capacity-pressure regime, and the
// configuration corners (spec memory, big replica batches, unbounded
// registers) inherited from the scheduler differential suite.
func TestEngineMatrixDifferential(t *testing.T) {
	cases := []struct {
		name   string
		bench  string
		mode   Mode
		instr  uint64
		mutate func(*Config)
	}{
		{"gcc-ci", "gcc", ModeCI, 15_000, nil},
		{"mcf-ci", "mcf", ModeCI, 15_000, nil},
		{"mcf-scal", "mcf", ModeScalar, 15_000, nil},
		{"mcf-ciiw", "mcf", ModeCIIW, 15_000, nil},
		{"parser-vect", "parser", ModeVect, 15_000, nil},
		{"gcc-ci-specmem", "gcc", ModeCI, 15_000, func(c *Config) { c.SpecMemSize = 768 }},
		{"gcc-ci-8rep", "gcc", ModeCI, 15_000, func(c *Config) { c.Replicas = 8 }},
		{"vpr-ci-inf-nodaec", "vpr", ModeCI, 15_000, func(c *Config) {
			c.PhysRegs = 0
			c.WindowSize = WindowFor(0)
			c.DisableDAEC = true
		}},
		{"gcc.big-ci", "gcc.big", ModeCI, 12_000, nil},
		{"mcf.big-ci", "mcf.big", ModeCI, 12_000, nil},
		{"mcf.big-wb", "mcf.big", ModeWideBus, 12_000, nil},
	}
	pairs := enginePairs(t)
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			wl, err := workload.Spec(tc.bench)
			if err != nil {
				t.Fatal(err)
			}
			cfg := DefaultConfig(tc.mode)
			cfg.MaxInstr = tc.instr
			if tc.mutate != nil {
				tc.mutate(&cfg)
			}
			stats := map[string]*Stats{}
			for _, pair := range pairs {
				for _, eng := range pair {
					if stats[eng] == nil {
						stats[eng] = engineStats(t, wl, cfg, eng)
					}
				}
				a, b := stats[pair[0]], stats[pair[1]]
				if *a != *b {
					t.Errorf("engines %s vs %s diverge:\n%s: %+v\n%s: %+v",
						pair[0], pair[1], pair[0], *a, pair[1], *b)
				}
			}
		})
	}
}

// TestFastForwardDifferentialRandom compares the fast-forwarded engine
// against the stepped reference over random, guaranteed-halting
// programs run to completion.
func TestFastForwardDifferentialRandom(t *testing.T) {
	skipUnlessPair(t, "event", "fastforward")
	for seed := int64(0); seed < 20; seed++ {
		wl := workload.Random(seed)
		for _, mode := range []Mode{ModeCI, ModeVect, ModeScalar} {
			cfg := DefaultConfig(mode)
			stepped := engineStats(t, wl, cfg, "event")
			ff := engineStats(t, wl, cfg, "fastforward")
			if *stepped != *ff {
				t.Fatalf("seed %d mode %v: fast-forward diverges:\nstepped: %+v\nff:      %+v",
					seed, mode, *stepped, *ff)
			}
		}
	}
}

// TestFastForwardCommitPortPressure pins the transient-contention
// regression: a commit-stage store write consumes the shared L1D port
// before the same cycle's issue scan, so a ready load can fail purely
// on port pressure that resets next cycle — a no-issue observation
// from such a cycle predicts nothing and must not license a skip
// (issueStage only trusts scans with untouched ports). Long div
// latency keeps the next completion far away, so a wrongly licensed
// skip jumps far enough to diverge. Seed 88 reproduced the original
// bug; the sweep keeps neighbouring store/load interleavings covered.
func TestFastForwardCommitPortPressure(t *testing.T) {
	skipUnlessPair(t, "event", "fastforward")
	for seed := int64(80); seed < 100; seed++ {
		wl := workload.Random(seed)
		for _, mode := range []Mode{ModeScalar, ModeCI} {
			cfg := DefaultConfig(mode)
			cfg.LatIntDiv = 40
			stepped := engineStats(t, wl, cfg, "event")
			ff := engineStats(t, wl, cfg, "fastforward")
			if *stepped != *ff {
				t.Fatalf("seed %d mode %v: fast-forward diverges under commit port pressure:\nstepped: %+v\nff:      %+v",
					seed, mode, *stepped, *ff)
			}
		}
	}
}

// TestFastForwardCycleAlignment steps a fast-forwarded pipeline
// against a stepped reference in jump-synchronized lockstep: after
// every fast-forward step the reference is stepped to the same cycle
// and the statistics must match exactly — so a skip that jumps over a
// cycle in which the stepped pipeline would have acted is caught at
// the first divergence point, not at run end. mcf's stall shadows make
// it jump constantly; the test also demands that jumps actually
// happened and that at least one crossed a wheelSpan boundary in one
// skip (the wraparound case nextWheelWake must get right).
func TestFastForwardCycleAlignment(t *testing.T) {
	skipUnlessPair(t, "event", "fastforward")
	wl, err := workload.Spec("mcf")
	if err != nil {
		t.Fatal(err)
	}
	mk := func(engine string) *Proc {
		cfg := DefaultConfig(ModeCI)
		cfg.MaxInstr = 25_000
		useEngine(t, &cfg, engine)
		p, err := New(cfg, wl.Program, wl.NewMem())
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	ff, ref := mk("fastforward"), mk("event")
	boundaryJumps := 0
	for steps := 0; !ff.halted && ff.Stats.Committed < 25_000; steps++ {
		if steps > 2_000_000 {
			t.Fatal("no forward progress")
		}
		before := ff.cycle
		ff.step()
		if ff.cycle > before+1 && ff.cycle>>9 != (before+1)>>9 {
			boundaryJumps++
		}
		for ref.cycle < ff.cycle && !ref.halted {
			ref.step()
		}
		if ref.cycle != ff.cycle {
			t.Fatalf("reference cannot reach fast-forwarded cycle %d (at %d)", ff.cycle, ref.cycle)
		}
		if ref.Stats != ff.Stats {
			t.Fatalf("cycle %d: stats diverge\nstepped: %+v\nff:      %+v", ff.cycle, ref.Stats, ff.Stats)
		}
	}
	for ref.cycle < ff.cycle && !ref.halted {
		ref.step()
	}
	if ref.Stats != ff.Stats || ref.halted != ff.halted {
		t.Fatalf("runs ended differently:\nstepped: halted=%v %+v\nff:      halted=%v %+v",
			ref.halted, ref.Stats, ff.halted, ff.Stats)
	}
	jumps, skipped := ff.FastForward()
	if jumps == 0 || skipped == 0 {
		t.Fatalf("fast-forward never engaged on a memory-bound run (jumps=%d skipped=%d)", jumps, skipped)
	}
	if boundaryJumps == 0 {
		t.Errorf("no jump crossed a wheel-span boundary in one skip (jumps=%d)", jumps)
	}
	t.Logf("jumps=%d skipped=%d cycles (%.1f%% of %d), %d boundary-crossing",
		jumps, skipped, 100*float64(skipped)/float64(ff.cycle), ff.cycle, boundaryJumps)
}

// TestFastForwardLongLatency pushes every functional-unit latency past
// the completion wheel's 512-cycle horizon, so replica completions can
// never take a wheel slot (entries keep polling) while scalar
// completions drive fast-forward jumps far beyond wheelSpan — the
// long-latency wraparound regime. Every engine pair of the current
// matrix leg must agree.
func TestFastForwardLongLatency(t *testing.T) {
	wl, err := workload.Spec("gcc")
	if err != nil {
		t.Fatal(err)
	}
	pairs := enginePairs(t)
	for _, lat := range []int{520, 700} {
		cfg := DefaultConfig(ModeCI)
		cfg.MaxInstr = 2_000
		cfg.LatIntALU = lat
		cfg.LatIntMul = lat + 13
		cfg.LatIntDiv = 2 * lat
		stats := map[string]*Stats{}
		for _, pair := range pairs {
			for _, eng := range pair {
				if stats[eng] == nil {
					stats[eng] = engineStats(t, wl, cfg, eng)
				}
			}
			a, b := stats[pair[0]], stats[pair[1]]
			if *a != *b {
				t.Fatalf("lat %d: engines %s vs %s diverge:\n%s: %+v\n%s: %+v",
					lat, pair[0], pair[1], pair[0], *a, pair[1], *b)
			}
		}
	}
}

// TestNextWheelWake pins the wheel-occupancy scan, including the
// wraparound cases a boundary-crossing skip depends on: a wake behind
// the current slot index must resolve to the matching future cycle.
func TestNextWheelWake(t *testing.T) {
	wl := workload.Random(1)
	p, err := New(DefaultConfig(ModeCI), wl.Program, wl.NewMem())
	if err != nil {
		t.Fatal(err)
	}
	set := func(cycles ...uint64) {
		p.wheelOcc = [wheelSpan / 64]uint64{}
		for _, c := range cycles {
			b := c & (wheelSpan - 1)
			p.wheelOcc[b>>6] |= 1 << (b & 63)
		}
	}
	cases := []struct {
		name  string
		cur   uint64
		wakes []uint64
		want  uint64
		ok    bool
	}{
		{"empty", 1000, nil, 0, false},
		{"next-cycle", 1000, []uint64{1001}, 1001, true},
		{"mid-span", 1000, []uint64{1100, 1200}, 1100, true},
		{"word-boundary", 63, []uint64{64}, 64, true},
		{"wrap-behind-start", 1000, []uint64{1030}, 1030, true}, // 1030&511=6 < 1001&511=489
		{"wrap-exact-boundary", 511, []uint64{512}, 512, true},
		{"wrap-last-slot", 511, []uint64{1023}, 1023, true},
		{"full-horizon", 1000, []uint64{1000 + wheelSpan}, 1000 + wheelSpan, true},
		{"start-of-word-wrap", 64, []uint64{64 + wheelSpan}, 64 + wheelSpan, true},
	}
	for _, tc := range cases {
		set(tc.wakes...)
		got, ok := p.nextWheelWake(tc.cur)
		if ok != tc.ok || (ok && got != tc.want) {
			t.Errorf("%s: nextWheelWake(%d) = (%d, %v), want (%d, %v)",
				tc.name, tc.cur, got, ok, tc.want, tc.ok)
		}
	}
	p.wheelOcc = [wheelSpan / 64]uint64{}
}

// TestCommitDirtyFlagDifferential compares the dirty-flag commit path
// (recompute only reuse-rooted instructions) against the
// always-recompute reference, which additionally asserts every clean
// instruction's issue-time result architecturally — so a taint leak
// shows up as a reference-mode panic or a stats divergence.
func TestCommitDirtyFlagDifferential(t *testing.T) {
	// Engine-independent (it compares commit paths, not engines); one
	// matrix leg carries it so the three legs do not triplicate it.
	skipUnlessPair(t, "event", "fastforward")
	cases := []struct {
		bench string
		mode  Mode
	}{
		{"gcc", ModeCI},
		{"mcf", ModeCIIW},
		{"parser", ModeVect},
		{"gcc.big", ModeCI},
	}
	for _, tc := range cases {
		wl, err := workload.Spec(tc.bench)
		if err != nil {
			t.Fatal(err)
		}
		cfg := DefaultConfig(tc.mode)
		cfg.MaxInstr = 12_000
		fast := runStats(t, wl, cfg)
		cfg.commitRecomputeAll = true
		ref := runStats(t, wl, cfg)
		if *fast != *ref {
			t.Errorf("%s/%v: dirty-flag commit diverges from always-recompute:\nfast: %+v\nref:  %+v",
				tc.bench, tc.mode, *fast, *ref)
		}
	}
	for seed := int64(0); seed < 10; seed++ {
		wl := workload.Random(seed)
		cfg := DefaultConfig(ModeCI)
		fast := runStats(t, wl, cfg)
		cfg.commitRecomputeAll = true
		ref := runStats(t, wl, cfg)
		if *fast != *ref {
			t.Errorf("random seed %d: dirty-flag commit diverges:\nfast: %+v\nref:  %+v", seed, *fast, *ref)
		}
	}
}

// checkStoreIndex re-derives the per-word last-store index and the
// unknown-address set from the LSQ and ROB, and fails on any
// disagreement — a leaked or missed store would silently corrupt
// disambiguation.
func checkStoreIndex(t *testing.T, p *Proc) {
	t.Helper()
	var wantUnknown []uint64
	wantWords := map[uint64][]int32{}
	for _, li := range p.lsq {
		e := &p.rob[li]
		if !e.valid || !p.metaAt(int(e.pc)).IsStore() {
			continue
		}
		if e.state == stWaiting {
			wantUnknown = append(wantUnknown, e.seq)
		} else {
			w := e.addr &^ 7
			wantWords[w] = append(wantWords[w], int32(li))
		}
	}
	if len(p.storeUnknown) != len(wantUnknown) {
		t.Fatalf("cycle %d: storeUnknown has %d entries, LSQ accounts for %d",
			p.cycle, len(p.storeUnknown), len(wantUnknown))
	}
	for i, s := range wantUnknown {
		if p.storeUnknown[i] != s {
			t.Fatalf("cycle %d: storeUnknown[%d] = %d, want %d", p.cycle, i, p.storeUnknown[i], s)
		}
	}
	live := 0
	for w, l := range p.wordStores {
		if len(l) == 0 {
			t.Fatalf("cycle %d: empty word list left in index for word %#x", p.cycle, w)
		}
		live += len(l)
		want := wantWords[w]
		if len(l) != len(want) {
			t.Fatalf("cycle %d: word %#x has %d indexed stores, LSQ accounts for %d",
				p.cycle, w, len(l), len(want))
		}
		for i := range l {
			if l[i] != want[i] {
				t.Fatalf("cycle %d: word %#x index[%d] = rob %d, want %d",
					p.cycle, w, i, l[i], want[i])
			}
		}
	}
	total := 0
	for _, l := range wantWords {
		total += len(l)
	}
	if live != total {
		t.Fatalf("cycle %d: index holds %d stores, LSQ accounts for %d", p.cycle, live, total)
	}
}

// TestStoreIndexInvariants steps pipelines over store-heavy workloads
// and re-derives the disambiguation index at intervals, across modes
// and both schedulers (the index is engine-independent state).
func TestStoreIndexInvariants(t *testing.T) {
	for _, tc := range []struct {
		bench  string
		mode   Mode
		engine string
	}{
		{"gcc", ModeCI, "fastforward"},
		{"mcf", ModeScalar, "fastforward"},
		{"gcc", ModeCI, "naive"},
		{"twolf", ModeCIIW, "event"},
	} {
		wl, err := workload.Spec(tc.bench)
		if err != nil {
			t.Fatal(err)
		}
		cfg := DefaultConfig(tc.mode)
		cfg.MaxInstr = 10_000
		useEngine(t, &cfg, tc.engine)
		p, err := New(cfg, wl.Program, wl.NewMem())
		if err != nil {
			t.Fatal(err)
		}
		for !p.halted && p.Stats.Committed < cfg.MaxInstr && p.cycle < 2_000_000 {
			p.step()
			if p.cycle%97 == 0 {
				checkStoreIndex(t, p)
			}
		}
		checkStoreIndex(t, p)
	}
}
