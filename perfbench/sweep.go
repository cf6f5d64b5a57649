package main

import (
	"context"
	"fmt"
	"strings"
	"time"

	"civect/internal/core"
	"civect/internal/harness"
)

// sweepBudget is the per-cell budget of the experiment sweep, small
// enough that a run measures several sweeps.
const sweepBudget = 10_000

// sweepWorkers matches the two CPUs the benchmark is sized for.
const sweepWorkers = 2

func sweepOptions() harness.Options {
	return harness.Options{MaxInstr: sweepBudget, Workers: sweepWorkers}
}

// sweepInst runs the whole experiment registry; an op is one sweep with
// a fresh harness, as `ciexp -exp all` does.
type sweepInst struct {
	plan  *sweepPlan
	specs []harness.RunSpec
	stats []core.Stats // each planned cell's result, from the first sweep
	instr uint64       // committed instructions one sweep simulates

	cpu  float64 // process CPU seconds over the untraced sweeps
	wall time.Duration
}

// sweepPlan is the untimed bookkeeping: the per-experiment plans whose
// overlap the harness's memoization removes.
type sweepPlan struct{ requested int }

func sweepPrepare(sp *sweepPlan) func(context.Context, *run) error {
	return func(ctx context.Context, r *run) error {
		for _, e := range harness.Experiments() {
			p := harness.NewPlanner(sweepOptions())
			if _, err := harness.RunExperiments(p, []harness.Experiment{e}); err != nil {
				return err
			}
			sp.requested += len(p.PlannedSpecs())
		}
		return nil
	}
}

// sweepSetup plans the sweep, as RunExperiments does before it
// simulates.
func sweepSetup(plan *sweepPlan) func(context.Context, *run, int) (instance, error) {
	return func(ctx context.Context, r *run, parent int) (instance, error) {
		sp := r.tr.begin("harness.NewPlanner", parent, -1)
		p := harness.NewPlanner(sweepOptions())
		r.tr.end(sp)
		sp = r.tr.begin("harness.RunExperiments(plan)", parent, -1)
		_, err := harness.RunExperiments(p, harness.Experiments())
		r.tr.end(sp)
		if err != nil {
			return nil, err
		}
		return &sweepInst{plan: plan, specs: p.PlannedSpecs()}, nil
	}
}

func (s *sweepInst) cells() int { return 1 }

func (s *sweepInst) op(ctx context.Context, r *run, c, id, parent int) (opSample, error) {
	cpu0 := cpuSeconds()
	t := time.Now()
	sp := r.tr.begin("harness.New", parent, id)
	h := harness.New(sweepOptions())
	r.tr.end(sp)
	sp = r.tr.begin("harness.Prefetch", parent, id)
	err := h.Prefetch(s.specs)
	r.tr.end(sp)
	if err != nil {
		return opSample{dur: time.Since(t)}, err
	}
	sp = r.tr.begin("harness.RunExperiments", parent, id)
	tables, err := harness.RunExperiments(h, harness.Experiments())
	r.tr.end(sp)
	out := opSample{dur: time.Since(t)}
	if !r.tr.on {
		s.cpu += cpuSeconds() - cpu0
		s.wall += out.dur
	}
	if err != nil {
		return out, err
	}

	// Untimed: every planned cell is now a cache hit; the first sweep
	// keeps the statistics, and every sweep's tables must hash alike.
	if s.stats == nil {
		for _, spec := range s.specs {
			st, err := h.Run(spec)
			if err != nil {
				return out, err
			}
			s.stats = append(s.stats, *st)
			s.instr += st.Committed
		}
	}
	out.instr = s.instr
	var b strings.Builder
	for _, t := range tables {
		b.WriteString(t.String())
	}
	return out, r.check.sameDigest(0, digest([]byte(b.String())))
}

func (s *sweepInst) finish(ctx context.Context, r *run, m metrics) error {
	if s.stats == nil {
		return fmt.Errorf("no sweep completed")
	}
	modes := make([]core.Mode, len(s.specs))
	for i, spec := range s.specs {
		modes[i] = spec.Mode
	}
	simMetrics(m, s.stats, modes)
	statsMetrics(m, s.stats)
	m.put("sweep_s", m["op_ms.p50"].Value/1000)
	m.put("harness.cells", float64(len(s.specs)))
	m.put("harness.dedup_frac", 1-float64(len(s.specs))/float64(s.plan.requested))
	if s.wall > 0 {
		m.put("harness.cpu_util", s.cpu/(s.wall.Seconds()*sweepWorkers))
	}
	// The harness builds and runs its machines itself, so the host
	// cost per simulated cycle and instruction is the process's CPU
	// time over the untraced sweeps.
	if n := len(r.pick(false)); n > 0 && s.cpu > 0 {
		var cycles uint64
		for _, st := range s.stats {
			cycles += st.Cycles
		}
		m.put("core.host_ns_per_cycle", s.cpu*1e9/float64(cycles)/float64(n))
		m.put("core.host_ns_per_instr", s.cpu*1e9/float64(s.instr)/float64(n))
	}
	return nil
}
