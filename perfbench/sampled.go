package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"slices"
	"sync"
	"time"

	"civect/internal/ckpt"
	"civect/internal/core"
	"civect/internal/mem"
	"civect/internal/sample"
	"civect/internal/workload"
)

// The sampled path's settings are cickpt prepare's defaults.
const (
	sampleInterval = 10_000
	sampleK        = 8
	sampleWarmup   = 3_000
)

var sampledProgs = []string{"gcc.ultra", "mcf.ultra"}

// sampledInst holds each program's prepared sample state; an op is one
// sample.RunFromState.
type sampledInst struct {
	progs  []*workload.Benchmark
	images []*mem.Memory
	states [][]byte
	ests   []*sample.Estimate // each program's first estimate
}

// sampledPrepare sizes each .ultra program's epoch count once, through
// workload.Spec over the registry tuning. It is untimed: a user
// generating the registry image pays it inside Spec, and the reseeded
// images below reuse the count.
func sampledPrepare(epochs map[string]int) func(context.Context, *run) error {
	return func(ctx context.Context, r *run) error {
		for _, n := range sampledProgs {
			sp := r.tr.begin("workload.Spec", 0, -1)
			b, err := workload.Spec(n)
			r.tr.end(sp)
			if err != nil {
				return err
			}
			epochs[n] = b.Params.Epochs
		}
		return nil
	}
}

// sampledSetup is cickpt prepare in process: generate, profile,
// cluster, capture.
func sampledSetup(epochs map[string]int) func(context.Context, *run, int) (instance, error) {
	return func(ctx context.Context, r *run, parent int) (instance, error) {
		s := &sampledInst{}
		for _, n := range sampledProgs {
			b, err := r.generate(n, epochs[n], parent)
			if err != nil {
				return nil, err
			}
			sp := r.tr.begin("Benchmark.NewMem", parent, -1)
			img := b.NewMem()
			r.tr.end(sp)
			sp = r.tr.begin("sample.Collect", parent, -1)
			prof, err := sample.Collect(b.Program, img, sample.Config{IntervalLen: sampleInterval})
			r.tr.end(sp)
			if err != nil {
				return nil, err
			}
			sp = r.tr.begin("sample.BuildPlan", parent, -1)
			plan := prof.BuildPlan(sampleK)
			r.tr.end(sp)
			sp = r.tr.begin("sample.CaptureState", parent, -1)
			data, err := sample.CaptureState(ctx, plan, b.Program, img, core.DefaultConfig(core.ModeCI), sampleWarmup)
			r.tr.end(sp)
			if err != nil {
				return nil, err
			}
			s.progs = append(s.progs, b)
			s.images = append(s.images, img)
			s.states = append(s.states, data)
		}
		s.ests = make([]*sample.Estimate, len(s.progs))
		return s, nil
	}
}

func (s *sampledInst) cells() int { return len(s.progs) }

func (s *sampledInst) op(ctx context.Context, r *run, c, id, parent int) (opSample, error) {
	t := time.Now()
	sp := r.tr.begin("sample.RunFromState", parent, id)
	est, err := sample.RunFromState(ctx, s.states[c], s.progs[c].Program, s.images[c])
	r.tr.end(sp)
	out := opSample{dur: time.Since(t)}
	if err != nil {
		return out, err
	}
	out.instr, out.stream = est.DetailedInstr, est.TotalInstr

	// Untimed check: the estimate repeats bit-identically (JSON
	// renders each float64 exactly).
	b, err := json.Marshal(est)
	if err != nil {
		return out, err
	}
	if s.ests[c] == nil {
		s.ests[c] = est
	}
	return out, r.check.sameDigest(c, digest(b))
}

// reference is one program's full detailed run, the truth the sampled
// estimate is judged against.
type reference struct {
	st       core.Stats
	tally    coreTally
	emuInstr uint64
	emuTime  time.Duration
	err      error
}

func (s *sampledInst) finish(ctx context.Context, r *run, m metrics) error {
	var open time.Duration
	for c, data := range s.states {
		sp := r.tr.begin("ckpt.Open", 0, -1)
		t := time.Now()
		_, err := ckpt.Open(data, sample.StateVersion)
		open += time.Since(t)
		r.tr.end(sp)
		if err != nil {
			return fmt.Errorf("%s: %w", s.progs[c].Program.Name, err)
		}
	}
	m.put("ckpt.open_ms", ms(open))

	// The full detailed references run outside every timed phase, one
	// goroutine per program.
	refs := make([]reference, len(s.progs))
	var wg sync.WaitGroup
	for c := range s.progs {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			refs[c] = s.fullRun(ctx, r, c)
		}(c)
	}
	wg.Wait()

	var stats []core.Stats
	var emuInstr uint64
	var emuTime time.Duration
	var errMax, ciRel, reuse, inv float64
	var detailed, total uint64
	for c, ref := range refs {
		name := s.progs[c].Program.Name
		r.check.count(name+" full detailed reference", ref.err)
		if ref.err != nil || s.ests[c] == nil {
			continue
		}
		r.core.add(&ref.tally)
		stats = append(stats, ref.st)
		emuInstr += ref.emuInstr
		emuTime += ref.emuTime

		est := s.ests[c]
		ipc, ci95 := est.IPC()
		full := ref.st.IPC()
		progErr := math.Abs(ipc-full) / full * 100
		m.put("sampled_ipc_err_pct."+name, progErr)
		errMax = math.Max(errMax, progErr)
		ciRel = math.Max(ciRel, ci95/ipc)
		inv += 1 / ipc
		reuse += est.Stats[slices.Index(sample.MetricNames, "reuse_frac")].Mean
		detailed += est.DetailedInstr
		total += est.TotalInstr
	}
	if len(stats) == 0 {
		return fmt.Errorf("no program produced both an estimate and a reference")
	}
	n := float64(len(stats))
	m.put("ipc", n/inv)
	m.put("reuse_frac", reuse/n)
	m.put("sampled_ipc_err_pct", errMax)
	statsMetrics(m, stats)
	m.put("sample.detailed_frac", float64(detailed)/float64(total))
	m.put("sample.ci95_rel", ciRel)
	m.put("sample.measure_ms.p50", median(durationsMS(r.samples)))
	if emuTime > 0 {
		m.put("emu.mips", float64(emuInstr)/emuTime.Seconds()/1e6)
	}
	var static, pages, state int
	for c, b := range s.progs {
		static += b.Program.Len()
		pages += s.images[c].PagesAllocated()
		state += len(s.states[c])
	}
	m.put("workload.static_kinstr", float64(static)/1000)
	m.put("workload.image_mb", float64(pages)*4096/1e6)
	m.put("ckpt.state_mb", float64(state)/1e6)
	return nil
}

// fullRun simulates program c to its halt in detail, then checks the
// final architectural state against the functional emulator.
func (s *sampledInst) fullRun(ctx context.Context, r *run, c int) reference {
	var ref reference
	b := s.progs[c]
	sp := r.tr.begin("core.New", 0, -1)
	p, err := core.New(core.DefaultConfig(core.ModeCI), b.Program, b.NewMem())
	r.tr.end(sp)
	if err != nil {
		ref.err = err
		return ref
	}
	st, err := r.runCore(ctx, p, &ref.tally, 0, -1)
	if err != nil {
		ref.err = err
		return ref
	}
	ref.st = *st
	if !p.Halted() {
		ref.err = fmt.Errorf("full run stopped at %d instructions before the halt", st.Committed)
		return ref
	}
	sp = r.tr.begin("emu.Run", 0, -1)
	ref.emuInstr, ref.emuTime, ref.err = checkArch(b.Program, b.NewMem(), archOf(p, st))
	r.tr.end(sp)
	return ref
}
