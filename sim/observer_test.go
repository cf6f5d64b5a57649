package sim_test

import (
	"context"
	"testing"

	"civect/sim"
)

// countingObserver tallies everything it is told, for cross-checking
// the taps against the final statistics.
type countingObserver struct {
	batches       int
	committed     uint64
	reused        uint64
	jumps         int
	jumpedCycles  uint64
	progress      int
	lastCycle     uint64
	monotonic     bool
	lastProgressC uint64
}

func newCountingObserver() *countingObserver { return &countingObserver{monotonic: true} }

func (o *countingObserver) OnCommitBatch(cycle uint64, committed, reused int) {
	if cycle < o.lastCycle || committed < 1 || reused < 0 || reused > committed {
		o.monotonic = false
	}
	o.lastCycle = cycle
	o.batches++
	o.committed += uint64(committed)
	o.reused += uint64(reused)
}

func (o *countingObserver) OnCycleJump(from, to uint64) {
	if to <= from {
		o.monotonic = false
	}
	o.jumps++
	o.jumpedCycles += to - from
}

func (o *countingObserver) OnProgress(cycle, committed uint64) {
	if committed <= o.lastProgressC {
		o.monotonic = false
	}
	o.lastProgressC = committed
	o.progress++
}

// TestObserverDeterminism is the differential proof that observation
// cannot perturb results: IPC, reuse and every other statistic are
// bit-identical with a counting observer attached and detached, on
// both a branchy base-tier run and a stall-dense fast-forwarding one.
func TestObserverDeterminism(t *testing.T) {
	for _, bench := range []string{"gcc", "mcf.big"} {
		t.Run(bench, func(t *testing.T) {
			w := mustLoad(t, bench)
			base := []sim.Option{sim.WithMode(sim.CI), sim.WithInstrBudget(12_000)}

			plain, err := sim.New(w, base...)
			if err != nil {
				t.Fatal(err)
			}
			want, err := plain.Run(context.Background())
			if err != nil {
				t.Fatal(err)
			}

			obs := newCountingObserver()
			observed, err := sim.New(w, append(base, sim.WithObserver(obs, 1_000))...)
			if err != nil {
				t.Fatal(err)
			}
			got, err := observed.Run(context.Background())
			if err != nil {
				t.Fatal(err)
			}

			if got.Stats != want.Stats {
				t.Errorf("observer perturbed the simulation:\nwith:    %+v\nwithout: %+v", got.Stats, want.Stats)
			}
			if !obs.monotonic {
				t.Error("observer taps were not monotonic/consistent")
			}
			if obs.committed != got.Stats.Committed {
				t.Errorf("commit batches sum to %d, stats say %d", obs.committed, got.Stats.Committed)
			}
			if obs.reused != got.Stats.CommittedReuse {
				t.Errorf("reuse taps sum to %d, stats say %d", obs.reused, got.Stats.CommittedReuse)
			}
			if obs.batches == 0 || obs.progress == 0 {
				t.Errorf("taps missing: %d batches, %d progress reports", obs.batches, obs.progress)
			}
			// The stall-dense big-tier run fast-forwards; the observer
			// must see those jumps.
			if bench == "mcf.big" && obs.jumps == 0 {
				t.Error("no OnCycleJump taps on a stall-dense fast-forwarding run")
			}
			if obs.jumpedCycles >= got.Stats.Cycles {
				t.Errorf("jumped %d of %d cycles: impossible", obs.jumpedCycles, got.Stats.Cycles)
			}
		})
	}
}

// TestObserverJumpsDisabledOnSteppedEngines: the stepped engines never
// fast-forward, so OnCycleJump must stay silent there.
func TestObserverJumpsDisabledOnSteppedEngines(t *testing.T) {
	w := mustLoad(t, "mcf.big")
	for _, e := range engines[1:] {
		obs := newCountingObserver()
		s, err := sim.New(w,
			sim.WithMode(sim.CI),
			withEngine(e.engine),
			sim.WithInstrBudget(4_000),
			sim.WithObserver(obs, 0),
		)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := s.Run(context.Background()); err != nil {
			t.Fatal(err)
		}
		if obs.jumps != 0 {
			t.Errorf("engine %s reported %d cycle jumps; stepped engines never jump", e.name, obs.jumps)
		}
		if obs.progress != 0 {
			t.Errorf("progressEvery=0 still produced %d progress reports", obs.progress)
		}
	}
}
