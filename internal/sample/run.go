package sample

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"runtime/debug"
	"sync"

	"civect/internal/core"
	"civect/internal/emu"
	"civect/internal/isa"
	"civect/internal/mem"
)

// The sampled-run driver: one functional pass fast-forwards the
// architectural state along the instruction stream; at each planned
// sample it clones the memory image, seeds a fresh detailed machine
// with the emulator's registers and PC (core.SetArchState), runs a
// configurable detailed warmup to re-heat the microarchitectural
// structures, then measures the sample interval and discards the
// machine. Machines are built in plan order and measured concurrently
// (measureAll). The measurements stitch into whole-run estimates
// weighted by cluster size.

// MetricNames lists the per-sample metrics, in reporting order. All are
// rates, so they extrapolate: ipc/cpi per committed instruction,
// reuse_frac the committed-reuse fraction, the _mpki entries
// events-per-kilo-instruction.
var MetricNames = []string{"ipc", "cpi", "reuse_frac", "bp_mpki", "l1d_mpki", "l2_mpki"}

// SampleResult is one measured representative interval. The JSON field
// names match sim.SampledRun's so `cickpt measure -json` and a sampled
// session's `.sampled` block read the same way.
type SampleResult struct {
	// Interval, Start and Weight mirror the plan entry.
	Interval int     `json:"interval"`
	Start    uint64  `json:"start"`
	Weight   float64 `json:"weight"`
	// WarmupInstr is the detailed warmup actually run (clamped at
	// stream start), MeasuredInstr the instructions measured.
	WarmupInstr   uint64 `json:"warmup_instr"`
	MeasuredInstr uint64 `json:"measured_instr"`
	// Cycles is the measured interval's detailed cycle count.
	Cycles uint64 `json:"cycles"`
	// Metrics holds the sample's metric values, parallel to
	// MetricNames.
	Metrics []float64 `json:"metrics"`
}

// StatEstimate is one stitched whole-run metric estimate.
type StatEstimate struct {
	Name string `json:"name"`
	// Mean is the cluster-weighted estimate.
	Mean float64 `json:"mean"`
	// CI95 is the half-width of the 95% confidence interval, from the
	// weighted between-sample variance over the effective sample count
	// (1/Σw²). It quantifies phase diversity the plan collapsed, not
	// measurement noise — the simulator is deterministic.
	CI95 float64 `json:"ci95"`
}

// Estimate is a stitched sampled-run result.
type Estimate struct {
	// TotalInstr is the full run's dynamic instruction count; the
	// estimates extrapolate to it.
	TotalInstr uint64 `json:"total_instr"`
	// DetailedInstr counts instructions simulated in detail (warmup +
	// measurement) — the cost side of sampling's bargain.
	DetailedInstr uint64 `json:"detailed_instr"`
	// Stats holds the stitched estimates, ordered as MetricNames.
	Stats []StatEstimate `json:"stats"`
	// EstCycles extrapolates the full run's cycle count
	// (TotalInstr × weighted CPI); EstCyclesCI is its 95% half-width.
	EstCycles   float64 `json:"est_cycles"`
	EstCyclesCI float64 `json:"est_cycles_ci"`
	// Samples holds the per-sample measurements, sorted by Start.
	Samples []SampleResult `json:"samples"`
}

// IPC returns the stitched IPC estimate and its 95% half-width.
func (e *Estimate) IPC() (mean, ci95 float64) {
	return e.Stats[0].Mean, e.Stats[0].CI95
}

// metricsOf derives the metric vector from a measured stats delta.
func metricsOf(a, b *core.Stats) (uint64, uint64, []float64) {
	instr := b.Committed - a.Committed
	cycles := b.Cycles - a.Cycles
	fi := float64(instr)
	fc := float64(cycles)
	if instr == 0 || cycles == 0 {
		return instr, cycles, make([]float64, len(MetricNames))
	}
	return instr, cycles, []float64{
		fi / fc,
		fc / fi,
		float64(b.CommittedReuse-a.CommittedReuse) / fi,
		1000 * float64(b.Mispredicts-a.Mispredicts) / fi,
		1000 * float64(b.L1D.Misses-a.L1D.Misses) / fi,
		1000 * float64(b.L2.Misses-a.L2.Misses) / fi,
	}
}

// Run executes the sampling plan: one functional pass over the
// workload, one transient detailed machine per sample. cfg is the
// detailed machine configuration (its MaxInstr/MaxCycles are ignored —
// the plan bounds each sample). warmup is the detailed warmup in
// instructions before each measured interval. ctx cancels between
// samples. The emulator keeps fast-forwarding and warming while
// earlier samples are measured (see measureAll).
func Run(ctx context.Context, plan *Plan, prog *isa.Program, image *mem.Memory, cfg core.Config, warmup uint64) (*Estimate, error) {
	if len(plan.Samples) == 0 {
		return nil, fmt.Errorf("sample: empty plan")
	}
	if _, err := prog.Decode(); err != nil {
		return nil, err
	}
	var m *mem.Memory
	if image != nil {
		m = image.Clone()
	}
	cpu := emu.New(m)
	w := newWarmer(&cfg)

	return measureAll(ctx, plan.TotalInstr, plan.Samples, warmup, func(s PlanSample, warmupInstr uint64) (*core.Proc, error) {
		if err := w.warmTo(cpu, prog, s.Start-warmupInstr, s.Start); err != nil {
			return nil, err
		}
		proc, err := newMachine(prog, cfg, s, warmupInstr, cpu.Mem.Clone(), cpu.Regs, cpu.PC)
		if err != nil {
			return nil, err
		}
		// The transplant copies, so the warmer stays with the emulator.
		if err := w.adoptInto(proc); err != nil {
			return nil, err
		}
		return proc, nil
	})
}

// warmStart returns where sample s's detailed warmup begins: warmup
// instructions before its start, clamped at the stream start.
func warmStart(s PlanSample, warmup uint64) uint64 {
	if s.Start > warmup {
		return s.Start - warmup
	}
	return 0
}

// measureAll is the sampled pipeline Run and RunFromState share. On
// the calling goroutine it builds each sample's machine in plan order
// — build fast-forwards or decodes to the sample and returns a machine
// with its architectural and warm state installed — and hands the
// machine to a helper goroutine that steps it through warmup and
// measurement. A slot semaphore keeps at most GOMAXPROCS machines in
// flight and the producer blocks while all are busy, so with
// GOMAXPROCS=1 each sample is measured before the next is built. Each
// result lands in its plan slot and stitching runs over the slots in
// plan order, so the Estimate does not depend on the worker count. The
// first error (build errors arise in plan order; ctx is checked
// between samples) stops production, and measureAll returns it once
// the samples in flight finish. A panic in a helper is re-raised here
// after they do, as a measurePanic carrying the helper's stack.
func measureAll(ctx context.Context, total uint64, samples []PlanSample, warmup uint64, build func(s PlanSample, warmupInstr uint64) (*core.Proc, error)) (*Estimate, error) {
	est := &Estimate{TotalInstr: total, Samples: make([]SampleResult, len(samples))}
	detailed := make([]uint64, len(samples))
	panics := make([]*measurePanic, len(samples))
	slots := make(chan struct{}, runtime.GOMAXPROCS(0))
	var wg sync.WaitGroup
	var err error
	for i, s := range samples {
		slots <- struct{}{}
		if err = ctx.Err(); err != nil {
			break
		}
		warmupInstr := s.Start - warmStart(s, warmup)
		var proc *core.Proc
		if proc, err = build(s, warmupInstr); err != nil {
			break
		}
		wg.Add(1)
		go func() {
			defer func() {
				if v := recover(); v != nil {
					panics[i] = &measurePanic{Value: v, Stack: debug.Stack()}
				}
				<-slots
				wg.Done()
			}()
			est.Samples[i], detailed[i] = measure(proc, s, warmupInstr)
		}()
	}
	wg.Wait()
	for _, p := range panics {
		if p != nil {
			panic(p)
		}
	}
	if err != nil {
		return nil, err
	}
	for _, n := range detailed {
		est.DetailedInstr += n
	}
	est.stitch()
	return est, nil
}

// measurePanic is what measureAll re-raises when a helper goroutine
// panicked: the recovered value plus the helper's stack, which the
// re-panic on the calling goroutine would otherwise lose.
type measurePanic struct {
	Value any
	Stack []byte
}

func (p *measurePanic) String() string {
	return fmt.Sprintf("%v\n\nsample-measuring goroutine stack:\n%s", p.Value, p.Stack)
}

// newMachine is the build step both paths share: a fresh detailed
// machine over m, bounded to sample s's warmup plus measurement, with
// the architectural state at the warmup start. The caller installs the
// warm state.
func newMachine(prog *isa.Program, cfg core.Config, s PlanSample, warmupInstr uint64, m *mem.Memory, regs [isa.NumLogical]uint64, pc int) (*core.Proc, error) {
	cfg.MaxInstr = warmupInstr + s.Len
	cfg.MaxCycles = 0
	proc, err := core.New(cfg, prog, m)
	if err != nil {
		return nil, err
	}
	if err := proc.SetArchState(regs, pc); err != nil {
		return nil, err
	}
	return proc, nil
}

// measure is the run step: it steps a built machine through the
// unmeasured detailed warmup and the sample interval and returns the
// measurement plus the detailed instruction count spent. Live and
// restored machines run through it alike, so the two paths produce
// identical results.
func measure(proc *core.Proc, s PlanSample, warmupInstr uint64) (SampleResult, uint64) {
	for !proc.Halted() && proc.Stats.Committed < warmupInstr {
		proc.Step()
	}
	warm := proc.Snapshot()
	for !proc.Halted() && proc.Stats.Committed < warmupInstr+s.Len {
		proc.Step()
	}
	end := proc.Snapshot()

	instr, cycles, metrics := metricsOf(&warm, &end)
	return SampleResult{
		Interval:      s.Interval,
		Start:         s.Start,
		Weight:        s.Weight,
		WarmupInstr:   warmupInstr,
		MeasuredInstr: instr,
		Cycles:        cycles,
		Metrics:       metrics,
	}, end.Committed
}

// stitch combines the per-sample metrics into weighted whole-run
// estimates with confidence intervals.
func (e *Estimate) stitch() {
	var wsum, w2sum float64
	for _, s := range e.Samples {
		wsum += s.Weight
		w2sum += s.Weight * s.Weight
	}
	if wsum == 0 {
		wsum = 1
	}
	// Effective sample count for the weighted standard error: equal
	// weights give n, a dominating cluster collapses toward 1.
	neff := wsum * wsum / w2sum
	for mi, name := range MetricNames {
		var mean float64
		for _, s := range e.Samples {
			mean += s.Weight / wsum * s.Metrics[mi]
		}
		var variance float64
		for _, s := range e.Samples {
			d := s.Metrics[mi] - mean
			variance += s.Weight / wsum * d * d
		}
		ci := 0.0
		if neff > 1 {
			ci = 1.96 * math.Sqrt(variance/neff)
		}
		e.Stats = append(e.Stats, StatEstimate{Name: name, Mean: mean, CI95: ci})
	}
	// cpi is Stats[1] by MetricNames order.
	e.EstCycles = e.Stats[1].Mean * float64(e.TotalInstr)
	e.EstCyclesCI = e.Stats[1].CI95 * float64(e.TotalInstr)
}
