package sim

import (
	"context"
	"fmt"
	"time"

	"civect/internal/sample"
)

// SamplingConfig tunes sampled simulation (WithSampling): the
// SimPoint-style pipeline that profiles the workload functionally,
// clusters its intervals by basic-block signature, simulates one
// representative per cluster in detail, and stitches the measurements
// into whole-run estimates with confidence intervals. Zero fields take
// the defaults documented per field.
type SamplingConfig struct {
	// IntervalLen is the profiling interval length in dynamic
	// instructions (default 10000).
	IntervalLen uint64
	// Clusters bounds the number of representative intervals simulated
	// in detail (default 8; the plan may use fewer).
	Clusters int
	// Warmup is the detailed warmup in instructions run before each
	// measured interval, on top of the functional warming of branch
	// predictor, cache and stride state (default 3000).
	Warmup uint64
}

// withDefaults resolves zero fields to the documented defaults.
func (sc SamplingConfig) withDefaults() SamplingConfig {
	if sc.IntervalLen == 0 {
		sc.IntervalLen = 10_000
	}
	if sc.Clusters == 0 {
		sc.Clusters = 8
	}
	if sc.Warmup == 0 {
		sc.Warmup = 3_000
	}
	return sc
}

// WithSampling switches the session to sampled simulation: Run executes
// the sampling pipeline instead of a full detailed run and attaches the
// stitched estimates as Result.Sampled. The committed-instruction
// budget (WithInstrBudget) bounds the profiled stream (0 profiles to
// the program's halt — the intended use for the .ultra tier). Sampled
// sessions cannot be stepped, traced or observed, and cannot write
// checkpoints. Run measures the samples concurrently on recycled
// machines, GOMAXPROCS at most (in a Set, within Workers); the
// estimate is the same at any GOMAXPROCS.
func WithSampling(sc SamplingConfig) Option {
	return func(s *settings) {
		if sc.Clusters < 0 {
			if s.err == nil {
				s.err = fmt.Errorf("sim: invalid sampling config %+v", sc)
			}
			return
		}
		c := sc.withDefaults()
		s.sampling = &c
	}
}

// SampledStat is one stitched whole-run metric estimate. Mean is the
// cluster-weighted estimate; CI95 is the 95% confidence half-width,
// quantifying the phase diversity the sampling plan collapsed (the
// simulator itself is deterministic, so there is no measurement noise).
type SampledStat struct {
	Name string  `json:"name"`
	Mean float64 `json:"mean"`
	CI95 float64 `json:"ci95"`
}

// SampledRun is the sampled-simulation extension of a Result: the
// stitched whole-run estimates and the cost accounting of the
// sampling bargain.
type SampledRun struct {
	// IntervalLen, Clusters and Warmup echo the resolved configuration;
	// Clusters is the cluster count the plan actually used.
	IntervalLen uint64 `json:"interval_len"`
	Clusters    int    `json:"clusters"`
	Warmup      uint64 `json:"warmup"`
	// TotalInstr is the profiled stream's dynamic length — what the
	// estimates extrapolate to. DetailedInstr counts instructions
	// simulated in detail (warmup + measurement): the cost side.
	TotalInstr    uint64 `json:"total_instr"`
	DetailedInstr uint64 `json:"detailed_instr"`
	// NumSamples is the number of representative intervals measured.
	NumSamples int `json:"num_samples"`
	// Stats holds the stitched estimates (ipc, cpi, reuse_frac,
	// bp_mpki, l1d_mpki, l2_mpki).
	Stats []SampledStat `json:"stats"`
	// EstCycles extrapolates the full run's cycle count; EstCyclesCI is
	// its 95% half-width.
	EstCycles   float64 `json:"est_cycles"`
	EstCyclesCI float64 `json:"est_cycles_ci"`
}

// Estimate returns the named stitched estimate ("ipc", "reuse_frac",
// ...) or ok=false if the metric is unknown.
func (r *SampledRun) Estimate(name string) (mean, ci95 float64, ok bool) {
	for _, st := range r.Stats {
		if st.Name == name {
			return st.Mean, st.CI95, true
		}
	}
	return 0, 0, false
}

// runSampled executes the sampling pipeline for Run.
func (s *Session) runSampled(ctx context.Context) (*Result, error) {
	sc := *s.sampling
	t0 := time.Now()
	seal := func(err error) error {
		s.wall += time.Since(t0)
		s.sealed = fmt.Errorf("%w: %v", ErrSessionEnded, err)
		return err
	}
	prof, err := sample.Collect(s.w.prog, s.w.newMem(), sample.Config{
		IntervalLen: sc.IntervalLen,
		MaxInstr:    s.cfg.MaxInstr,
	})
	if err != nil {
		return nil, seal(err)
	}
	plan := prof.BuildPlan(sc.Clusters)
	est, err := sample.Run(ctx, plan, s.w.prog, s.w.newMem(), s.cfg, sc.Warmup, sample.Slots{Own: s.proc, Idle: s.idle})
	if err != nil {
		return nil, seal(err)
	}
	s.wall += time.Since(t0)
	s.finished = true
	s.sealed = fmt.Errorf("%w: run complete", ErrSessionEnded)

	sr := &SampledRun{
		IntervalLen:   plan.IntervalLen,
		Clusters:      plan.K,
		Warmup:        sc.Warmup,
		TotalInstr:    est.TotalInstr,
		DetailedInstr: est.DetailedInstr,
		NumSamples:    len(est.Samples),
		EstCycles:     est.EstCycles,
		EstCyclesCI:   est.EstCyclesCI,
	}
	for _, st := range est.Stats {
		sr.Stats = append(sr.Stats, SampledStat{Name: st.Name, Mean: st.Mean, CI95: st.CI95})
	}
	res := s.makeResult(&Stats{}, false)
	res.Instr = est.TotalInstr
	ipc, _ := est.IPC()
	res.IPC = ipc
	if reuse, _, ok := sr.Estimate("reuse_frac"); ok {
		res.ReuseFraction = reuse
	}
	if ns := s.wall.Nanoseconds(); ns > 0 {
		// Throughput counts the instructions actually simulated in
		// detail, not the extrapolated stream.
		res.SimInstrsPerSec = float64(est.DetailedInstr) / (float64(ns) * 1e-9)
	}
	res.Sampled = sr
	return res, nil
}
