package sample

import (
	"fmt"

	"civect/internal/bpred"
	"civect/internal/cache"
	"civect/internal/core"
	"civect/internal/emu"
	"civect/internal/isa"
	"civect/internal/stride"
)

// Functional warming (the SMARTS discipline): the microarchitectural
// structures with long thermal time constants — the 64K-entry gshare,
// the cache tag arrays, the MBS and stride tables — depend only on the
// committed instruction stream, which the functional pass produces
// exactly. The warmer replays that stream into private copies of the
// structures during fast-forward; at each sample start the warm state
// transplants into the fresh detailed machine (core.AdoptWarmState),
// so the detailed warmup only has to re-fill the short-time-constant
// state (pipeline, SRSMT, wide-bus latches) the warmer cannot model.

// warmer tracks functionally-warmed structures during the emulation
// pass. A *warmer is the warming passes' emu.Walk observer.
type warmer struct {
	g                *bpred.Gshare
	mbs              *bpred.MBS
	sp               *stride.Predictor
	l1i, l1d, l2, l3 *cache.Cache
}

func newWarmer(cfg *core.Config) *warmer {
	return &warmer{
		g:   bpred.NewGshare(cfg.GshareEntries),
		mbs: bpred.NewMBS(cfg.MBSSets, cfg.MBSAssoc),
		sp:  stride.New(cfg.StrideSets, cfg.StrideAssoc),
		l1i: cache.New(cfg.Hier.L1I),
		l1d: cache.New(cfg.Hier.L1D),
		l2:  cache.New(cfg.Hier.L2),
		l3:  cache.New(cfg.Hier.L3),
	}
}

// Observe feeds one architecturally executed instruction, mirroring the
// detailed machine's training points: gshare/MBS train on conditional
// branch outcomes, the stride predictor on committed load addresses,
// the caches on the fetch and data streams with the hierarchy's miss
// path (L1 miss walks outward).
//
//civet:hotpath
func (w *warmer) Observe(pc int, in isa.Instr, addr, _ uint64, taken bool) {
	if hit, _ := w.l1i.Access(uint64(pc)*core.InstBytes, false); !hit {
		w.l2.Access(uint64(pc)*core.InstBytes, false)
	}
	if in.IsCondBranch() {
		w.g.Update(uint64(pc), taken)
		w.mbs.Update(uint64(pc), taken)
		return
	}
	if in.IsLoad() {
		w.sp.Observe(uint64(pc), addr)
	}
	if in.IsMem() {
		write := in.IsStore()
		if hit, _ := w.l1d.Access(addr, write); !hit {
			if h2, _ := w.l2.Access(addr, write); !h2 {
				w.l3.Access(addr, write)
			}
		}
	}
}

// warmTo walks cpu up to instruction start with w observing, and
// reports an error if the stream halts first.
func (w *warmer) warmTo(cpu *emu.CPU, prog *isa.Program, start, sampleStart uint64) error {
	// A zero limit would mean no limit; Walk fails only with ErrLimit,
	// which is reaching start.
	if cpu.Executed < start {
		_ = emu.Walk(cpu, prog, start, w)
	}
	if cpu.Executed != start {
		return fmt.Errorf("sample: stream ended at %d before sample start %d (stale plan?)", cpu.Executed, sampleStart)
	}
	return nil
}

// adoptInto transplants the warm state into a fresh detailed machine.
func (w *warmer) adoptInto(p *core.Proc) error {
	return p.AdoptWarmState(w.g, w.mbs, w.sp, w.l1i, w.l1d, w.l2, w.l3)
}
