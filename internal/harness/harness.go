// Package harness regenerates every table and figure of the paper's
// evaluation (§3) over the synthetic SpecInt2000 workloads. Each
// experiment produces a Table whose rows mirror the series the paper
// plots; EXPERIMENTS.md records the paper-vs-measured comparison.
//
// Runs are memoized (several figures share the same configurations).
// RunExperiments plans the whole sweep up front (a dry run against a
// recording planner), prefetches it through one sim.Set sweep per
// benchmark — its configurations sharing one decoded program — and
// then replays the experiments against the primed cache. Simulations
// are built and run exclusively through the public civect/sim façade;
// the harness adds memoization, planning and the experiment registry
// on top.
package harness

import (
	"context"
	"fmt"
	"runtime"
	"sort"
	"sync"

	"civect/internal/core"
	"civect/sim"
)

// RunSpec identifies one simulation: a benchmark and the configuration
// axes the paper sweeps.
type RunSpec struct {
	Bench      string    `json:"bench"`
	Mode       core.Mode `json:"mode"`
	Ports      int       `json:"ports"`                 // L1D ports (1 or 2)
	Regs       int       `json:"regs"`                  // physical registers; 0 = unbounded
	Replicas   int       `json:"replicas,omitempty"`    //
	StridedPCs int       `json:"strided_pcs,omitempty"` //
	SpecMem    int       `json:"spec_mem,omitempty"`    // speculative data memory positions; 0 = none
	SpecMemLat int       `json:"spec_mem_lat,omitempty"`
	NoDAEC     bool      `json:"no_daec,omitempty"`
	NoMBSGate  bool      `json:"no_mbs_gate,omitempty"`
	MaxInstr   uint64    `json:"max_instr"`
}

// Key renders the spec as a canonical, unique string: the identity of a
// sweep cell. Shard partitioning sorts and deduplicates on it, so its
// format is load-bearing for shard-assignment stability (sweep's golden
// test pins it indirectly).
func (s RunSpec) Key() string {
	return fmt.Sprintf("%s|%s|p%d|r%d|rep%d|spc%d|sm%d|sml%d|daec%t|mbs%t|mi%d",
		s.Bench, s.Mode, s.Ports, s.Regs, s.Replicas, s.StridedPCs,
		s.SpecMem, s.SpecMemLat, s.NoDAEC, s.NoMBSGate, s.MaxInstr)
}

// Options configures a harness.
type Options struct {
	// MaxInstr is the committed-instruction budget per run (the paper
	// simulates 100M; the default here is 200k, enough for stable
	// shapes — scale it up with the -instr flag of cmd/ciexp).
	MaxInstr uint64
	// Benches restricts the benchmark set (default: all twelve).
	Benches []string
	// Workers bounds parallel simulations (default GOMAXPROCS).
	Workers int
}

func (o Options) withDefaults() Options {
	if o.MaxInstr == 0 {
		o.MaxInstr = 200_000
	}
	if len(o.Benches) == 0 {
		o.Benches = sim.BaseWorkloads()
	}
	if o.Workers <= 0 {
		o.Workers = runtime.GOMAXPROCS(0)
	}
	return o
}

// harnessMode selects what Run does with a spec.
type harnessMode int

const (
	// modeSimulate runs the timing simulator (the default).
	modeSimulate harnessMode = iota
	// modePlan records the normalized spec and returns placeholder
	// stats without simulating: a dry run that enumerates the sweep.
	modePlan
	// modeOffline serves primed results only and errors on a cache
	// miss: table regeneration from merged shard results must never
	// silently re-simulate a missing cell.
	modeOffline
)

// plannerStats is the placeholder every planned run returns. The fields
// are nonzero so experiment code that derives ratios from them (IPC,
// episode fractions) stays on its ordinary paths; the resulting tables
// are discarded.
var plannerStats = &core.Stats{
	Cycles: 1000, Committed: 1500, Fetched: 2000,
	Mispredicts: 16, CondBranches: 64, EpisodesSelected: 8, EpisodesReused: 4,
	Loads: 100, Stores: 10,
}

// Harness memoizes simulation runs across experiments. A shared
// semaphore bounds simulation workers in flight regardless of how many
// experiments, prefetch sweeps or RunAll fan-outs share the harness, so
// Options.Workers is an end-to-end concurrency bound.
type Harness struct {
	opt  Options
	mode harnessMode

	mu    sync.Mutex
	cache map[RunSpec]*core.Stats
	// requested records every (normalized) spec Run was asked for,
	// memoized or not. Comparing it against a dry-run plan closes the
	// data-dependent-spec hazard: if an experiment's spec choices ever
	// depended on simulation results, planning and execution would
	// enumerate different sets, and the sweep machinery asserts on it
	// (sweep.RunShard, sweep.Tables).
	requested map[RunSpec]bool

	// sem bounds simulation workers; cur/maxCur (under mu) gauge them.
	sem    chan struct{}
	cur    int
	maxCur int
}

// New builds a harness.
func New(opt Options) *Harness {
	opt = opt.withDefaults()
	return &Harness{
		opt:       opt,
		cache:     make(map[RunSpec]*core.Stats),
		requested: make(map[RunSpec]bool),
		sem:       make(chan struct{}, opt.Workers),
	}
}

// acquire claims one simulation worker slot, updating the concurrency
// gauge; every slot claimed must be released.
func (h *Harness) acquire() {
	h.sem <- struct{}{}
	h.mu.Lock()
	h.cur++
	if h.cur > h.maxCur {
		h.maxCur = h.cur
	}
	h.mu.Unlock()
}

func (h *Harness) release() {
	h.mu.Lock()
	h.cur--
	h.mu.Unlock()
	<-h.sem
}

// NewPlanner builds a harness whose Run records specs instead of
// simulating: running the experiments against it enumerates the exact
// set of simulations a real harness with the same options would
// execute. Experiment control flow is data-independent (each Run
// returns fixed placeholder stats), so the recorded set is the sweep's
// deterministic cross-product.
func NewPlanner(opt Options) *Harness {
	h := New(opt)
	h.mode = modePlan
	return h
}

// NewOffline builds a harness that only serves results primed with
// Prime and fails on any other spec. It regenerates tables from
// externally produced (e.g. sharded) simulation results with a
// guarantee that nothing is silently re-simulated.
func NewOffline(opt Options) *Harness {
	h := New(opt)
	h.mode = modeOffline
	return h
}

// Prime installs a precomputed result for spec (normalized the same way
// Run normalizes before its cache lookup).
func (h *Harness) Prime(s RunSpec, st *core.Stats) {
	s = h.normalize(s)
	h.mu.Lock()
	h.cache[s] = st
	h.mu.Unlock()
}

// PlannedSpecs returns every spec recorded by a planner harness (or
// every cached spec of a regular one), sorted by Key.
func (h *Harness) PlannedSpecs() []RunSpec {
	h.mu.Lock()
	specs := make([]RunSpec, 0, len(h.cache))
	for s := range h.cache {
		specs = append(specs, s)
	}
	h.mu.Unlock()
	sort.Slice(specs, func(i, j int) bool { return specs[i].Key() < specs[j].Key() })
	return specs
}

// Options returns the harness options (with defaults applied).
func (h *Harness) Options() Options { return h.opt }

// ExecutedSpecs returns every spec Run was asked to produce (memoized
// hits included), sorted by Key. Planner harnesses record nothing
// here; use PlannedSpecs for those.
func (h *Harness) ExecutedSpecs() []RunSpec {
	h.mu.Lock()
	specs := make([]RunSpec, 0, len(h.requested))
	for s := range h.requested {
		specs = append(specs, s)
	}
	h.mu.Unlock()
	sort.Slice(specs, func(i, j int) bool { return specs[i].Key() < specs[j].Key() })
	return specs
}

// UnusedPrimed returns the primed specs no Run call ever requested,
// sorted by Key. On an offline harness fed from a validated sweep
// plan, a non-empty result means the experiments' actual spec choices
// diverged from the dry-run plan.
func (h *Harness) UnusedPrimed() []RunSpec {
	h.mu.Lock()
	var specs []RunSpec
	for s := range h.cache {
		if !h.requested[s] {
			specs = append(specs, s)
		}
	}
	h.mu.Unlock()
	sort.Slice(specs, func(i, j int) bool { return specs[i].Key() < specs[j].Key() })
	return specs
}

// normalize applies the per-run defaults Run fills in before touching
// the cache, so cache keys, planned specs and primed specs agree.
func (h *Harness) normalize(s RunSpec) RunSpec {
	if s.MaxInstr == 0 {
		s.MaxInstr = h.opt.MaxInstr
	}
	if s.Ports == 0 {
		s.Ports = 1
	}
	return s
}

// specOptions translates a RunSpec into session options; WithRegs
// applies the paper's reorder-buffer sizing rule. The zero-valued
// sweep axes fall back to the Table 1 defaults exactly as the
// pre-façade config assembly did, so every golden table is pinned to
// this mapping.
func specOptions(s RunSpec) []sim.Option {
	opts := []sim.Option{
		sim.WithMode(sim.Mode(s.Mode)),
		sim.WithPorts(s.Ports),
		sim.WithRegs(s.Regs),
		sim.WithSpecMem(s.SpecMem),
		sim.WithInstrBudget(s.MaxInstr),
	}
	if s.Replicas > 0 {
		opts = append(opts, sim.WithReplicas(s.Replicas))
	}
	if s.StridedPCs > 0 {
		opts = append(opts, sim.WithStridedPCs(s.StridedPCs))
	}
	if s.SpecMemLat > 0 {
		opts = append(opts, sim.WithSpecMemLatency(s.SpecMemLat))
	}
	if s.NoDAEC {
		opts = append(opts, sim.WithDAEC(false))
	}
	if s.NoMBSGate {
		opts = append(opts, sim.WithConfigPatch(func(c *sim.Config) { c.DisableMBSGate = true }))
	}
	return opts
}

// Run simulates one spec (memoized). On a planner harness it records
// the spec and returns placeholder stats; on an offline harness it
// serves primed results and errors on anything else.
func (h *Harness) Run(s RunSpec) (*core.Stats, error) {
	s = h.normalize(s)
	switch h.mode {
	case modePlan:
		h.mu.Lock()
		h.cache[s] = plannerStats
		h.mu.Unlock()
		return plannerStats, nil
	case modeOffline:
		h.mu.Lock()
		h.requested[s] = true
		st, ok := h.cache[s]
		h.mu.Unlock()
		if !ok {
			return nil, fmt.Errorf("offline harness: no primed result for %s (incomplete shard coverage?)", s.Key())
		}
		return st, nil
	}
	h.mu.Lock()
	h.requested[s] = true
	if st, ok := h.cache[s]; ok {
		h.mu.Unlock()
		return st, nil
	}
	h.mu.Unlock()

	// Cache miss: simulate the spec as a one-point set. The prefetch
	// path keeps RunExperiments and sweep shards from ever landing
	// here; direct Run/RunAll callers pay one session per miss.
	w, err := sim.Load(s.Bench)
	if err != nil {
		return nil, err
	}
	set, err := sim.NewSet(w, sim.PointOpts(specOptions(s)))
	if err != nil {
		return nil, fmt.Errorf("%s/%v: %v", s.Bench, s.Mode, err)
	}
	h.acquire()
	results, err := set.Run(context.Background())
	h.release()
	if err != nil {
		return nil, fmt.Errorf("%s/%v: %v", s.Bench, s.Mode, err)
	}
	st := &results[0].Stats

	h.mu.Lock()
	// A concurrent identical miss may have raced us here; keep the
	// first result so memoized pointers stay stable (the stats are
	// bit-identical either way — the simulator is deterministic).
	if prev, ok := h.cache[s]; ok {
		st = prev
	} else {
		h.cache[s] = st
	}
	h.mu.Unlock()
	return st, nil
}

// Prefetch simulates the given specs through per-benchmark sim.Set
// sweeps and primes the cache, so subsequent Run calls for them are
// hits. Specs already cached are skipped; up to Options.Workers
// benchmark sweeps run concurrently, each one simulation at a time.
// Prefetching does not mark specs as requested — plan-vs-execution
// accounting (ExecutedSpecs, UnusedPrimed) still reflects what the
// experiments actually ask for.
func (h *Harness) Prefetch(specs []RunSpec) error {
	seen := make(map[RunSpec]bool, len(specs))
	byBench := make(map[string][]RunSpec)
	h.mu.Lock()
	for _, s := range specs {
		s = h.normalize(s)
		if seen[s] {
			continue
		}
		seen[s] = true
		if _, ok := h.cache[s]; ok {
			continue
		}
		byBench[s.Bench] = append(byBench[s.Bench], s)
	}
	h.mu.Unlock()
	if len(byBench) == 0 {
		return nil
	}

	benches := make([]string, 0, len(byBench))
	for b := range byBench {
		benches = append(benches, b)
	}
	sort.Strings(benches)

	errs := make([]error, len(benches))
	var wg sync.WaitGroup
	for i, bench := range benches {
		wg.Add(1)
		go func(i int, bench string) {
			defer wg.Done()
			errs[i] = h.prefetchBench(bench, byBench[bench])
		}(i, bench)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// prefetchBench sweeps one benchmark's specs as a single set and
// primes each result.
func (h *Harness) prefetchBench(bench string, specs []RunSpec) error {
	w, err := sim.Load(bench)
	if err != nil {
		return err
	}
	points := make([]sim.PointOpts, len(specs))
	for i, s := range specs {
		points[i] = sim.PointOpts(specOptions(s))
	}
	set, err := sim.NewSet(w, points...)
	if err != nil {
		return fmt.Errorf("%s: %v", bench, err)
	}
	set.Workers = 1 // the harness semaphore is the concurrency bound
	h.acquire()
	results, err := set.Run(context.Background())
	h.release()
	if err != nil {
		return fmt.Errorf("%s: %v", bench, err)
	}
	for i, res := range results {
		h.Prime(specs[i], &res.Stats)
	}
	return nil
}

// MaxConcurrent returns the highest number of simulation workers that
// have executed simultaneously on this harness (never above
// Options.Workers; a prefetch sweep counts as one worker).
func (h *Harness) MaxConcurrent() int {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.maxCur
}

// RunExperiments plans the experiments' sweep with a dry run,
// prefetches it, then runs the experiments concurrently — each in its
// own goroutine, every simulation already a cache hit — and returns
// their tables in input order. The first error wins. Planner and
// offline harnesses skip the prefetch (nothing to simulate).
func RunExperiments(h *Harness, exps []Experiment) ([]*Table, error) {
	if h.mode == modeSimulate {
		planner := NewPlanner(h.opt)
		if _, err := RunExperiments(planner, exps); err != nil {
			return nil, err
		}
		if err := h.Prefetch(planner.PlannedSpecs()); err != nil {
			return nil, err
		}
	}
	tables := make([]*Table, len(exps))
	errs := make([]error, len(exps))
	var wg sync.WaitGroup
	for i := range exps {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			tables[i], errs[i] = exps[i].Run(h)
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("%s: %w", exps[i].ID, err)
		}
	}
	return tables, nil
}

// RunAll simulates one spec per benchmark in parallel and returns the
// stats keyed by benchmark name.
func (h *Harness) RunAll(base RunSpec) (map[string]*core.Stats, error) {
	type result struct {
		name string
		st   *core.Stats
		err  error
	}
	ch := make(chan result, len(h.opt.Benches))
	var wg sync.WaitGroup
	for _, name := range h.opt.Benches {
		wg.Add(1)
		go func(name string) {
			defer wg.Done()
			s := base
			s.Bench = name
			st, err := h.Run(s)
			ch <- result{name, st, err}
		}(name)
	}
	wg.Wait()
	close(ch)
	out := make(map[string]*core.Stats, len(h.opt.Benches))
	for r := range ch {
		if r.err != nil {
			return nil, r.err
		}
		out[r.name] = r.st
	}
	return out, nil
}

// HarmonicMeanIPC aggregates per-benchmark IPCs the way the paper does
// ("harmonic means are used to average IPC across the whole benchmark
// suite"). The sum runs in sorted-name order: float addition is not
// associative at the last ulp, and map iteration order is random, so a
// fixed order is what makes the rendered tables genuinely
// byte-reproducible across runs, worker counts and processes (the
// sharded-sweep merge and the -workers 1 check both compare bytes).
func HarmonicMeanIPC(stats map[string]*core.Stats) float64 {
	if len(stats) == 0 {
		return 0
	}
	var invSum float64
	for _, name := range sortedNames(stats) {
		ipc := stats[name].IPC()
		if ipc <= 0 {
			return 0
		}
		invSum += 1 / ipc
	}
	return float64(len(stats)) / invSum
}

// sortedNames returns map keys in stable order.
func sortedNames(m map[string]*core.Stats) []string {
	names := make([]string, 0, len(m))
	for n := range m {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}
