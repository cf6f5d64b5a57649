package main

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"os"
	"runtime"
	rtmetrics "runtime/metrics"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"civect/internal/core"
	"civect/internal/workload"
)

// units gives every metric's unit; README.md gives direction and
// meaning.
var units = map[string]string{
	"setup_s": "s", "sim_mips": "Minstr/s", "op_ms.p50": "ms", "op_ms.p90": "ms", "ops": "count",
	"eff_mips": "Minstr/s", "sweep_s": "s", "peak_rss_mb": "MB", "rss_mb": "MB", "fail_frac": "frac",
	"ipc": "instr/cycle", "reuse_frac": "frac", "sampled_ipc_err_pct": "%",
	"sampled_ipc_err_pct.gcc.ultra": "%", "sampled_ipc_err_pct.mcf.ultra": "%",

	"workload.gen_ms": "ms", "workload.static_kinstr": "kinstr", "workload.image_mb": "MB",
	"workload.gen_frac": "frac", "mem.clone_frac": "frac", "core.new_frac": "frac",
	"sample.profile_frac": "frac", "sample.cluster_frac": "frac", "sample.capture_frac": "frac",
	"harness.prefetch_frac": "frac", "harness.replay_frac": "frac",
	"mem.clone_ms.p50": "ms",
	"core.new_ms.p50":  "ms", "core.run_ms.p50": "ms",
	"core.host_ns_per_cycle": "ns/cycle", "core.host_ns_per_instr": "ns/instr",
	"core.commit_per_fetch": "frac", "core.ff_skip_frac": "frac", "core.ff_jumps_pki": "1/kinstr",
	"core.share.fetch": "frac", "core.share.rename": "frac", "core.share.issue": "frac",
	"core.share.replica": "frac", "core.share.complete": "frac", "core.share.commit": "frac",
	"core.share.ff": "frac", "core.share.recover": "frac", "core.share.cycle": "frac",
	"core.share.new": "frac",
	"cache.l1i_mpki": "1/kinstr", "cache.l1d_mpki": "1/kinstr", "cache.l2_mpki": "1/kinstr",
	"cache.l3_mpki": "1/kinstr", "cache.share": "frac",
	"bpred.mpki": "1/kinstr", "bpred.hard_frac": "frac", "bpred.share": "frac",
	"ci.alloc_pki": "1/kinstr", "ci.replicas_pki": "1/kinstr", "ci.replica_use_frac": "frac",
	"ci.valfail_pki": "1/kinstr", "ci.episode_reuse_frac": "frac", "ci.share": "frac",
	"emu.mips":         "Minstr/s",
	"sample.profile_s": "s", "sample.cluster_ms": "ms", "sample.capture_s": "s",
	"sample.measure_ms.p50": "ms", "sample.detailed_frac": "frac", "sample.ci95_rel": "frac",
	"ckpt.state_mb": "MB", "ckpt.open_ms": "ms", "ckpt.share": "frac",
	"harness.plan_ms": "ms", "harness.prefetch_s": "s", "harness.replay_ms": "ms",
	"harness.cells": "count", "harness.dedup_frac": "frac", "harness.cpu_util": "frac",
	"go.gc_cpu_frac": "frac", "go.alloc_mb_per_minstr": "MB/Minstr", "go.heap_peak_mb": "MB",
	"trace.overhead_frac": "frac", "trace.share_coverage": "frac",
	"trace.profile_samples": "count", "trace.spans": "count",
}

// put records a metric under its unit from the units table.
func (m metrics) put(name string, v float64) {
	u, ok := units[name]
	if !ok {
		panic("perfbench: metric without a unit: " + name)
	}
	m[name] = metric{v, u}
}

// workloadDef is one benchmark workload. prepare runs once, untimed;
// setup builds the inputs a user would build before the first op and
// runs several times (setup_s is the median); the returned instance
// runs the ops.
type workloadDef struct {
	name    string
	images  string // how the seed applies, for the report
	prepare func(ctx context.Context, r *run) error
	setup   func(ctx context.Context, r *run, parent int) (instance, error)
}

// instance is a set-up workload. A round runs each of its cells once;
// op times its measured part itself, then checks its outputs untimed.
// finish runs after the timed rounds: untimed references and the
// workload's own metrics.
type instance interface {
	cells() int
	op(ctx context.Context, r *run, cell, id, parent int) (opSample, error)
	finish(ctx context.Context, r *run, m metrics) error
}

// opSample is one timed op.
type opSample struct {
	cell   int
	dur    time.Duration
	instr  uint64 // simulated committed instructions
	stream uint64 // instructions the op's result stands for (sampled ops)
	round  int
	traced bool
}

// run holds one benchmark invocation's state.
type run struct {
	seed   int64
	dur    time.Duration
	traced bool

	tr    tracer
	core  coreTally
	check checker

	setups   int
	samples  []opSample
	profBuf  bytes.Buffer
	profiles [][]byte
	layers   *attribution
	heapPeak uint64
	rss      []float64 // resident set samples during the timed ops, MB
}

func newRun(seed int64, dur time.Duration, traced bool) *run {
	r := &run{seed: seed, dur: dur, traced: traced}
	r.tr.t0 = time.Now()
	r.tr.on = traced
	return r
}

// reseed derives a program's data-image seed from the benchmark seed;
// seed 0 keeps the registry's image. Program text does not depend on
// the seed.
func reseed(p workload.Params, seed int64) workload.Params {
	p.Seed ^= int64(uint64(seed) * 0x9E3779B97F4A7C15)
	return p
}

// generate builds the named program with its data image reseeded.
// epochs, when positive, overrides the tuning's outer trip count.
func (r *run) generate(name string, epochs int, parent int) (*workload.Benchmark, error) {
	p, ok := workload.ParamsFor(name)
	if !ok {
		return nil, fmt.Errorf("unknown program %q", name)
	}
	if epochs > 0 {
		p.Epochs = epochs
	}
	sp := r.tr.begin("workload.Generate", parent, -1)
	b, err := workload.Generate(reseed(p, r.seed))
	r.tr.end(sp)
	return b, err
}

const (
	minSetupReps = 3
	maxSetupReps = 101
	setupBudget  = time.Second // more reps while the set-ups so far took less
)

// execute sets the workload up several times, runs timed rounds for the
// run's duration, then lets the workload finish and derives metrics.
func (r *run) execute(ctx context.Context, w workloadDef) (*report, error) {
	rep := &report{
		Workload: w.name, Seed: r.seed, Seconds: r.dur.Seconds(), Traced: r.traced,
		Images: w.images, Host: hostFingerprint(), Metrics: metrics{},
	}
	m := rep.Metrics
	if w.prepare != nil {
		if err := w.prepare(ctx, r); err != nil {
			return nil, fmt.Errorf("prepare: %w", err)
		}
	}

	var inst instance
	var setupTimes []float64
	var spent time.Duration
	for i := 0; i < minSetupReps || (i < maxSetupReps && spent < setupBudget); i++ {
		// Drop the previous instance so the collector reclaims it
		// before the next set-up is timed.
		inst = nil
		runtime.GC()
		sp := r.tr.begin("setup", 0, -1)
		t := time.Now()
		var err error
		inst, err = w.setup(ctx, r, sp)
		d := time.Since(t)
		r.tr.end(sp)
		if err != nil {
			return nil, fmt.Errorf("setup: %w", err)
		}
		spent += d
		setupTimes = append(setupTimes, d.Seconds())
		r.setups++
	}
	m.put("setup_s", median(setupTimes))

	before := readRuntime()
	stopMem := r.sampleMem(memEvery)
	start := time.Now()
	id := 0
	for round := 0; ; round++ {
		// A traced run alternates untraced and traced rounds, so the
		// two sides see the same drift; the untraced side gives the
		// reference for trace.overhead_frac. Round 0 pays first-use
		// costs (heap growth) and stays out of that comparison.
		tracedRound := r.traced && round%2 == 1
		r.tr.on = tracedRound
		if tracedRound {
			if err := r.startProfile(); err != nil {
				return nil, err
			}
		}
		for c := 0; c < inst.cells(); c++ {
			sp := r.tr.begin("op", 0, id)
			s, err := inst.op(ctx, r, c, id, sp)
			r.tr.end(sp)
			r.check.count(fmt.Sprintf("op %d (cell %d)", id, c), err)
			s.cell, s.round, s.traced = c, round, tracedRound
			r.samples = append(r.samples, s)
			id++
		}
		if tracedRound {
			r.stopProfile()
		}
		if time.Since(start) >= r.dur && (!r.traced || round >= 2) {
			break
		}
	}
	after := readRuntime()
	stopMem()
	m.put("peak_rss_mb", peakRSSMB())
	if len(r.rss) > 0 {
		m.put("rss_mb", median(r.rss))
	}
	r.tr.on = r.traced

	untraced := r.pick(false)
	m.put("ops", float64(len(untraced)))
	m.put("op_ms.p50", cellMedianMS(untraced))
	if len(untraced) >= 100 {
		m.put("op_ms.p90", quantile(durationsMS(untraced), 0.9))
	}
	instr, stream, busy := typicalRound(untraced)
	m.put("sim_mips", instr/busy/1e6)
	if stream > 0 {
		m.put("eff_mips", stream/busy/1e6)
	}
	if cpu := after.cpuTotal - before.cpuTotal; cpu > 0 {
		m.put("go.gc_cpu_frac", (after.cpuGC-before.cpuGC)/cpu)
	}
	var allInstr uint64
	for _, s := range r.samples {
		allInstr += s.instr
	}
	if allInstr > 0 {
		m.put("go.alloc_mb_per_minstr", float64(after.allocBytes-before.allocBytes)/1e6/(float64(allInstr)/1e6))
	}

	if err := inst.finish(ctx, r, m); err != nil {
		return nil, fmt.Errorf("finish: %w", err)
	}
	m.put("go.heap_peak_mb", float64(r.heapPeak)/1e6)
	m.put("fail_frac", float64(r.check.failed)/float64(max(r.check.attempted, 1)))
	rep.Failures = r.check.failures

	if r.traced {
		if err := r.traceMetrics(m); err != nil {
			return nil, err
		}
		// A per-layer metric whose layer the workload does not
		// exercise reads 0: that layer did no work here.
		for _, n := range perLayer {
			if _, ok := m[n]; !ok {
				m.put(n, 0)
			}
		}
	}
	return rep, nil
}

// pick returns the ops of the traced or the untraced rounds.
func (r *run) pick(traced bool) []opSample {
	var out []opSample
	for _, s := range r.samples {
		if s.traced == traced {
			out = append(out, s)
		}
	}
	return out
}

// traceMetrics derives the traced run's span, observer and profile
// metrics.
func (r *run) traceMetrics(m metrics) error {
	var warm []opSample
	for _, s := range r.pick(false) {
		if s.round > 0 {
			warm = append(warm, s)
		}
	}
	if tr := r.pick(true); len(tr) > 0 && len(warm) > 0 {
		m.put("trace.overhead_frac", cellMedianMS(tr)/cellMedianMS(warm)-1)
	}
	r.spanMetrics(m)
	if c := r.core; c.cycles > 0 {
		m.put("core.ff_skip_frac", float64(c.skipped)/float64(c.cycles))
		m.put("core.ff_jumps_pki", float64(c.jumps)/float64(c.instr)*1000)
		m.put("core.host_ns_per_cycle", float64(c.runTime.Nanoseconds())/float64(c.cycles))
		m.put("core.host_ns_per_instr", float64(c.runTime.Nanoseconds())/float64(c.instr))
	}
	m.put("trace.spans", float64(len(r.tr.spans)))

	a, err := attribute(r.profiles)
	if err != nil {
		return fmt.Errorf("profile attribution: %w", err)
	}
	r.layers = a
	m.put("trace.profile_samples", float64(a.Samples))
	m.put("trace.share_coverage", a.Coverage)
	for _, st := range stages {
		m.put("core.share."+st, a.Stages[st])
	}
	m.put("core.share.new", a.Stages["new"])
	m.put("ckpt.share", a.Stages["restore"])
	for _, l := range []string{"cache", "bpred", "ci"} {
		m.put(l+".share", a.Layers[l])
	}
	return nil
}

// spanMetrics derives per-layer host times from the spans: absolute
// times for the report where the workload makes the call, and each
// layer's share of set-up or op time for the result line.
func (r *run) spanMetrics(m metrics) {
	reps := float64(r.setups)
	setup := r.tr.total("setup", false)
	ops := r.tr.total("op", true)
	for _, x := range []struct {
		metric, frac, span string
		scale              float64 // seconds to the metric's unit
	}{
		{"workload.gen_ms", "workload.gen_frac", "workload.Generate", 1000},
		{"sample.profile_s", "sample.profile_frac", "sample.Collect", 1},
		{"sample.cluster_ms", "sample.cluster_frac", "sample.BuildPlan", 1000},
		{"sample.capture_s", "sample.capture_frac", "sample.CaptureState", 1},
	} {
		if d := r.tr.total(x.span, false); d > 0 {
			m.put(x.metric, d.Seconds()*x.scale/reps)
			m.put(x.frac, d.Seconds()/setup.Seconds())
		}
	}
	if d := r.tr.total("harness.NewPlanner", false) + r.tr.total("harness.RunExperiments(plan)", false); d > 0 {
		m.put("harness.plan_ms", ms(d)/reps)
	}
	for _, x := range []struct{ frac, span string }{
		{"mem.clone_frac", "Benchmark.NewMem"},
		{"core.new_frac", "core.New"},
		{"harness.prefetch_frac", "harness.Prefetch"},
		{"harness.replay_frac", "harness.RunExperiments"},
	} {
		if d := r.tr.total(x.span, true); d > 0 {
			m.put(x.frac, d.Seconds()/ops.Seconds())
		}
	}
	for _, x := range []struct{ metric, span string }{
		{"mem.clone_ms.p50", "Benchmark.NewMem"},
		{"core.new_ms.p50", "core.New"},
		{"core.run_ms.p50", "core.RunContext"},
	} {
		if ds := r.tr.durations(x.span); len(ds) > 0 {
			m.put(x.metric, medianMS(ds))
		}
	}
	if ds := r.tr.durations("harness.Prefetch"); len(ds) > 0 {
		m.put("harness.prefetch_s", medianMS(ds)/1000)
	}
	if ds := r.tr.durations("harness.RunExperiments"); len(ds) > 0 {
		m.put("harness.replay_ms", medianMS(ds))
	}
}

// statsMetrics aggregates per-layer event rates over a workload's
// detailed cells.
func statsMetrics(m metrics, cells []core.Stats) {
	var s core.Stats
	for _, c := range cells {
		s.Cycles += c.Cycles
		s.Committed += c.Committed
		s.Fetched += c.Fetched
		s.Mispredicts += c.Mispredicts
		s.HardMispredicts += c.HardMispredicts
		s.VectorizedEntries += c.VectorizedEntries
		s.ReplicasDispatched += c.ReplicasDispatched
		s.CommittedReuse += c.CommittedReuse
		s.ValidationFails += c.ValidationFails
		s.EpisodesSelected += c.EpisodesSelected
		s.EpisodesReused += c.EpisodesReused
		s.L1I.Misses += c.L1I.Misses
		s.L1D.Misses += c.L1D.Misses
		s.L2.Misses += c.L2.Misses
		s.L3.Misses += c.L3.Misses
	}
	if s.Committed == 0 {
		return
	}
	pki := func(n uint64) float64 { return float64(n) / float64(s.Committed) * 1000 }
	m.put("core.commit_per_fetch", ratio(s.Committed, s.Fetched))
	m.put("cache.l1i_mpki", pki(s.L1I.Misses))
	m.put("cache.l1d_mpki", pki(s.L1D.Misses))
	m.put("cache.l2_mpki", pki(s.L2.Misses))
	m.put("cache.l3_mpki", pki(s.L3.Misses))
	m.put("bpred.mpki", pki(s.Mispredicts))
	m.put("bpred.hard_frac", ratio(s.HardMispredicts, s.Mispredicts))
	m.put("ci.alloc_pki", pki(s.VectorizedEntries))
	m.put("ci.replicas_pki", pki(s.ReplicasDispatched))
	m.put("ci.replica_use_frac", ratio(s.CommittedReuse, s.ReplicasDispatched))
	m.put("ci.valfail_pki", pki(s.ValidationFails))
	m.put("ci.episode_reuse_frac", ratio(s.EpisodesReused, s.EpisodesSelected))
}

// simMetrics sets ipc (harmonic mean over cells) and reuse_frac (over
// the cells whose mode can reuse).
func simMetrics(m metrics, cells []core.Stats, modes []core.Mode) {
	var inv float64
	var n int
	var reuse, committed uint64
	for i, c := range cells {
		if c.Cycles == 0 {
			continue // the cell failed before it ran
		}
		n++
		inv += 1 / c.IPC()
		if modes[i] == core.ModeCI || modes[i] == core.ModeCIIW || modes[i] == core.ModeVect {
			reuse += c.CommittedReuse
			committed += c.Committed
		}
	}
	if n > 0 {
		m.put("ipc", float64(n)/inv)
	}
	m.put("reuse_frac", ratio(reuse, committed))
}

func ratio(a, b uint64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

// coreTally is the traced run's Observer plus its totals over the
// detailed runs it watched: fast-forward jumps and the cycles they
// skip, and the runs' cycles, instructions and host time.
type coreTally struct {
	jumps, skipped uint64
	cycles, instr  uint64
	runTime        time.Duration
}

func (t *coreTally) OnCommitBatch(cycle uint64, committed, reused int) {}
func (t *coreTally) OnCycleJump(from, to uint64)                       { t.jumps++; t.skipped += to - from }
func (t *coreTally) OnProgress(cycle, committed uint64)                {}

// add folds another tally in.
func (t *coreTally) add(u *coreTally) {
	t.jumps += u.jumps
	t.skipped += u.skipped
	t.cycles += u.cycles
	t.instr += u.instr
	t.runTime += u.runTime
}

// runCore runs p under a core.RunContext span. On traced rounds the
// tally observes the run and adds its totals.
func (r *run) runCore(ctx context.Context, p *core.Proc, t *coreTally, parent, id int) (*core.Stats, error) {
	if !r.tr.on {
		return p.RunContext(ctx)
	}
	p.SetObserver(t, 0)
	sp := r.tr.begin("core.RunContext", parent, id)
	start := time.Now()
	st, err := p.RunContext(ctx)
	d := time.Since(start)
	r.tr.end(sp)
	if st != nil {
		t.cycles += st.Cycles
		t.instr += st.Committed
		t.runTime += d
	}
	return st, err
}

// runtimeSample is a runtime/metrics reading.
type runtimeSample struct {
	cpuGC, cpuTotal float64
	allocBytes      uint64
}

func readRuntime() runtimeSample {
	s := []rtmetrics.Sample{
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
		{Name: "/gc/heap/allocs:bytes"},
	}
	rtmetrics.Read(s)
	return runtimeSample{s[0].Value.Float64(), s[1].Value.Float64(), s[2].Value.Uint64()}
}

// memEvery is the memory sampling period during the timed ops.
const memEvery = 50 * time.Millisecond

// sampleMem samples the resident set and the live-object heap every
// period until the returned stop function is called; stop waits for
// the sampler to exit.
func (r *run) sampleMem(every time.Duration) (stop func()) {
	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		tick := time.NewTicker(every)
		defer tick.Stop()
		s := []rtmetrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
		for {
			rtmetrics.Read(s)
			r.heapPeak = max(r.heapPeak, s[0].Value.Uint64())
			if rss, ok := residentMB(); ok {
				r.rss = append(r.rss, rss)
			}
			select {
			case <-done:
				return
			case <-tick.C:
			}
		}
	}()
	return func() {
		close(done)
		wg.Wait()
	}
}

// residentMB reads the current resident set size (Linux).
func residentMB() (float64, bool) {
	b, err := os.ReadFile("/proc/self/statm")
	if err != nil {
		return 0, false
	}
	f := strings.Fields(string(b))
	if len(f) < 2 {
		return 0, false
	}
	pages, err := strconv.ParseUint(f[1], 10, 64)
	if err != nil {
		return 0, false
	}
	return float64(pages) * float64(os.Getpagesize()) / 1e6, true
}

// peakRSSMB returns the process's peak resident set size.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return math.NaN()
	}
	return float64(ru.Maxrss) * 1024 / 1e6 // Linux reports kilobytes
}

// cpuSeconds returns the process's user plus system CPU time.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return math.NaN()
	}
	return float64(ru.Utime.Nano()+ru.Stime.Nano()) / 1e9
}
