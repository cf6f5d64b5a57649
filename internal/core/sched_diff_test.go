package core

import (
	"testing"

	"civect/internal/workload"
)

// The event-driven wakeup engine (sched.go, replica_sched.go) is
// required to be observation-equivalent to the retained naive-scan
// reference scheduler (EngineNaive): identical statistics,
// bit for bit, on every workload. These differential tests are the
// scan-equivalence proof the golden digests alone cannot give — they
// compare the two engines directly, so a compensating double bug
// cannot slip through a digest update.

// diffConfig builds one scheduler-differential test configuration on
// the named engine.
func diffConfig(t *testing.T, mode Mode, engine string, mutate func(*Config)) Config {
	cfg := DefaultConfig(mode)
	cfg.MaxInstr = 15_000
	useEngine(t, &cfg, engine)
	if mutate != nil {
		mutate(&cfg)
	}
	return cfg
}

// runStats simulates one benchmark under cfg and returns the final
// statistics.
func runStats(t *testing.T, b *workload.Benchmark, cfg Config) *Stats {
	t.Helper()
	p, err := New(cfg, b.Program, b.NewMem())
	if err != nil {
		t.Fatal(err)
	}
	st, err := p.Run()
	if err != nil {
		t.Fatal(err)
	}
	return st
}

// TestSchedulerDifferentialSpecint compares final statistics of the
// two schedulers across the synthetic SpecInt workloads, every
// vectorizing mode, and the configuration corners that stress the
// wakeup chains: big replica batches (ring recycling), the speculative
// data memory (write-port completion retries), and the unbounded
// register file without DAEC (long-lived entries, the aliasing corner
// PR 1 fixed).
func TestSchedulerDifferentialSpecint(t *testing.T) {
	// The event leg keeps fast-forward at its default (on), so this
	// suite compares the naive scan against the full fast-forwarded
	// engine — the naive/fastforward matrix pair.
	skipUnlessPair(t, "fastforward", "naive")
	cases := []struct {
		name   string
		bench  string
		mode   Mode
		mutate func(*Config)
	}{
		{"gcc-ci", "gcc", ModeCI, nil},
		{"gzip-ci", "gzip", ModeCI, nil},
		{"mcf-ciiw", "mcf", ModeCIIW, nil},
		{"parser-vect", "parser", ModeVect, nil},
		{"gcc-ci-8rep", "gcc", ModeCI, func(c *Config) { c.Replicas = 8 }},
		// 64 replicas give 128-slot rings, past the 64-bit slot masks:
		// the unmasked scan paths of both replica ticks.
		{"gcc-ci-64rep", "gcc", ModeCI, func(c *Config) { c.Replicas = 64 }},
		{"gcc-ci-specmem", "gcc", ModeCI, func(c *Config) { c.SpecMemSize = 768 }},
		{"vpr-ci-inf-nodaec", "vpr", ModeCI, func(c *Config) {
			c.PhysRegs = 0
			c.WindowSize = WindowFor(0)
			c.DisableDAEC = true
		}},
		{"twolf-scal", "twolf", ModeScalar, nil},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			wl, err := workload.Spec(tc.bench)
			if err != nil {
				t.Fatal(err)
			}
			naive := runStats(t, wl, diffConfig(t, tc.mode, "naive", tc.mutate))
			event := runStats(t, wl, diffConfig(t, tc.mode, "fastforward", tc.mutate))
			if *naive != *event {
				t.Errorf("schedulers diverge:\nnaive: %+v\nevent: %+v", *naive, *event)
			}
		})
	}
}

// TestSchedulerDifferentialRandom compares the engines over random,
// guaranteed-halting programs (run to completion, no budget).
func TestSchedulerDifferentialRandom(t *testing.T) {
	skipUnlessPair(t, "fastforward", "naive")
	for seed := int64(0); seed < 20; seed++ {
		wl := workload.Random(seed)
		for _, mode := range []Mode{ModeCI, ModeVect} {
			cfg := DefaultConfig(mode)
			useEngine(t, &cfg, "naive")
			naive := runStats(t, wl, cfg)
			useEngine(t, &cfg, "fastforward")
			event := runStats(t, wl, cfg)
			if *naive != *event {
				t.Fatalf("seed %d mode %v: schedulers diverge:\nnaive: %+v\nevent: %+v",
					seed, mode, *naive, *event)
			}
		}
	}
}

// TestSchedulerLockstep steps a naive and an event-driven pipeline in
// lockstep and compares the statistics after every cycle, so a
// transient divergence that happens to cancel out by the end of the
// run is still caught. The configuration is the one that exposed the
// missed ring-recycle wakeup during development: unbounded registers
// without DAEC keeps entries alive long enough for their recurrence
// chains to outlive ring slots.
func TestSchedulerLockstep(t *testing.T) {
	skipUnlessPair(t, "naive", "event")
	wl, err := workload.Spec("vpr")
	if err != nil {
		t.Fatal(err)
	}
	// Per-cycle comparison needs the stepped reference: the
	// fast-forward engine jumps stall cycles, so a fast-forwarded run
	// is only comparable at matching cycle counts (that alignment is
	// TestFastForwardCycleAlignment's job).
	mk := func(engine string) *Proc {
		cfg := diffConfig(t, ModeCI, engine, func(c *Config) {
			c.PhysRegs = 0
			c.WindowSize = WindowFor(0)
			c.DisableDAEC = true
			c.MaxInstr = 40_000
		})
		p, err := New(cfg, wl.Program, wl.NewMem())
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	a, b := mk("naive"), mk("event")
	for cyc := 0; cyc < 2_000_000 && !a.halted && !b.halted &&
		a.Stats.Committed < 40_000 && b.Stats.Committed < 40_000; cyc++ {
		a.step()
		b.step()
		if a.Stats != b.Stats {
			t.Fatalf("cycle %d: stats diverge\nnaive: %+v\nevent: %+v", cyc, a.Stats, b.Stats)
		}
	}
	if a.halted != b.halted || a.Stats.Committed != b.Stats.Committed {
		t.Fatalf("runs ended differently: naive halted=%v committed=%d, event halted=%v committed=%d",
			a.halted, a.Stats.Committed, b.halted, b.Stats.Committed)
	}
}

// TestSteadyStateZeroAllocs enforces the zero-allocation steady state
// by measurement, not just benchmark observation: after warmup, whole
// simulated cycles must not allocate. (A tiny bound absorbs one-off
// buffer growth if a phase change lands inside the measured slice.)
//
// The unregistered-observer path is covered explicitly: the default
// subtest never registers an observer, and the detached subtest
// registers one and takes it back off before measuring, so the
// observer seam's nil path is pinned allocation-free from both
// directions.
func TestSteadyStateZeroAllocs(t *testing.T) {
	detach := func(p *Proc) {
		p.SetObserver(nopObserver{}, 1)
		p.SetObserver(nil, 0)
	}
	// The reset- cases measure a recycled machine: one that ran another
	// mode and shape (scal, 512 registers) before Reset turned it into
	// the measured configuration.
	cases := []struct {
		name    string
		reset   bool
		prepare func(p *Proc)
	}{
		{"observer-never-registered", false, nil},
		{"observer-detached", false, detach},
		{"reset-observer-never-registered", true, nil},
		{"reset-observer-detached", true, detach},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			wl, err := workload.SpecWithIters("gcc", 120_000)
			if err != nil {
				t.Fatal(err)
			}
			cfg := DefaultConfig(ModeCI)
			p, err := New(cfg, wl.Program, wl.NewMem())
			if err != nil {
				t.Fatal(err)
			}
			if tc.reset {
				prev := DefaultConfig(ModeScalar)
				prev.PhysRegs, prev.WindowSize = 512, WindowFor(512)
				prev.MaxInstr = 20_000
				if err := p.Reset(prev, wl.Program, wl.NewMem()); err != nil {
					t.Fatal(err)
				}
				if _, err := p.Run(); err != nil {
					t.Fatal(err)
				}
				if err := p.Reset(cfg, wl.Program, wl.NewMem()); err != nil {
					t.Fatal(err)
				}
			}
			if tc.prepare != nil {
				tc.prepare(p)
			}
			// The warmup must cover the mechanism's churn, not just the
			// caches: SRSMT ways keep being torn down and recreated, and
			// each way's first large replica ring, each register's first
			// deep park list and each data page are one-off allocations.
			for p.cycle < 100_000 && !p.halted {
				p.step()
			}
			if p.halted {
				t.Fatal("workload too short for a steady-state slice")
			}
			avg := testing.AllocsPerRun(5, func() {
				for i := 0; i < 2_000 && !p.halted; i++ {
					p.step()
				}
			})
			if p.halted {
				t.Fatal("workload ended inside the measured slice")
			}
			// The bound is amortized-growth slack, not absolute zero: a park
			// list or wheel bucket seeing its deepest-ever occupancy inside the
			// slice grows once and keeps the capacity. Per-cycle allocation
			// (the regression this test guards against) would show up as
			// thousands per slice.
			if avg > 2 {
				t.Errorf("steady-state cycles allocate: %.2f allocs per 2000-cycle slice", avg)
			}
		})
	}
}

// nopObserver is the registration fodder for the detached-observer
// zero-alloc subtest.
type nopObserver struct{}

func (nopObserver) OnCommitBatch(cycle uint64, committed, reused int) {}
func (nopObserver) OnCycleJump(from, to uint64)                       {}
func (nopObserver) OnProgress(cycle, committed uint64)                {}

// TestStridePoolAccounting re-derives stride-pool occupancy from the
// rename map and the in-flight oldRen checkpoints: every live slot has
// exactly one owner (the ownership discipline renEntry.strideRef
// documents), so a leak or double-free shows up as a count mismatch.
func TestStridePoolAccounting(t *testing.T) {
	for _, mode := range []Mode{ModeCI, ModeVect, ModeScalar} {
		wl, err := workload.Spec("gcc")
		if err != nil {
			t.Fatal(err)
		}
		cfg := DefaultConfig(mode)
		cfg.MaxInstr = 20_000
		p, err := New(cfg, wl.Program, wl.NewMem())
		if err != nil {
			t.Fatal(err)
		}
		if _, err := p.Run(); err != nil {
			t.Fatal(err)
		}
		want := 0
		for r := range p.ren {
			if p.ren[r].nStrided > 0 {
				want++
			}
		}
		i := p.robHead
		for c := 0; c < p.robCount; c++ {
			e := &p.rob[i]
			if e.valid && e.hasDest && e.oldRen.nStrided > 0 {
				want++
			}
			i = p.robIndexAfter(i)
		}
		if got := p.stridePC.inUse(); got != want {
			t.Errorf("%v: stride pool has %d live slots, owners account for %d", mode, got, want)
		}
	}
}
