package main

import (
	"context"
	"time"

	"civect/internal/core"
	"civect/internal/workload"
)

// detailBudget is each detailed op's committed-instruction budget
// (cibench's default).
const detailBudget = 30_000

// detailInst runs (program, mode) cells: each op clones the image,
// builds a fresh processor and runs it to the budget, so modelled
// caches and predictors start empty as in a user's run.
type detailInst struct {
	progs []*workload.Benchmark
	cellP []int // cell -> program index
	cellM []core.Mode
	stats []core.Stats // each cell's first run
	// emuInstr and emuTime total the untimed emulator reference runs.
	emuInstr uint64
	emuTime  time.Duration
}

func detailSetup(names []string, modes []core.Mode) func(context.Context, *run, int) (instance, error) {
	return func(ctx context.Context, r *run, parent int) (instance, error) {
		d := &detailInst{}
		for i, n := range names {
			b, err := r.generate(n, 0, parent)
			if err != nil {
				return nil, err
			}
			d.progs = append(d.progs, b)
			for _, m := range modes {
				d.cellP = append(d.cellP, i)
				d.cellM = append(d.cellM, m)
			}
		}
		d.stats = make([]core.Stats, len(d.cellP))
		return d, nil
	}
}

func (d *detailInst) cells() int { return len(d.cellP) }

func (d *detailInst) op(ctx context.Context, r *run, c, id, parent int) (opSample, error) {
	b := d.progs[d.cellP[c]]
	cfg := core.DefaultConfig(d.cellM[c])
	cfg.MaxInstr = detailBudget

	t := time.Now()
	sp := r.tr.begin("Benchmark.NewMem", parent, id)
	m := b.NewMem()
	r.tr.end(sp)
	sp = r.tr.begin("core.New", parent, id)
	p, err := core.New(cfg, b.Program, m)
	r.tr.end(sp)
	if err != nil {
		return opSample{dur: time.Since(t)}, err
	}
	st, err := r.runCore(ctx, p, &r.core, parent, id)
	s := opSample{dur: time.Since(t)}
	if err != nil {
		return s, err
	}
	s.instr = st.Committed

	// Untimed checks: the stats repeat exactly, and the first run of
	// each cell matches the functional emulator.
	first, err := r.check.sameStats(c, *st)
	if err != nil || !first {
		return s, err
	}
	d.stats[c] = *st
	sp = r.tr.begin("emu.Run", parent, id)
	n, et, err := checkArch(b.Program, b.NewMem(), archOf(p, st))
	r.tr.end(sp)
	d.emuInstr += n
	d.emuTime += et
	return s, err
}

func (d *detailInst) finish(ctx context.Context, r *run, m metrics) error {
	simMetrics(m, d.stats, d.cellM)
	statsMetrics(m, d.stats)
	var static, pages int
	for _, b := range d.progs {
		static += b.Program.Len()
		pages += b.NewMem().PagesAllocated()
	}
	m.put("workload.static_kinstr", float64(static)/1000)
	m.put("workload.image_mb", float64(pages)*4096/1e6)
	if d.emuTime > 0 {
		m.put("emu.mips", float64(d.emuInstr)/d.emuTime.Seconds()/1e6)
	}
	return nil
}
