// Command cibench measures simulator throughput per machine mode and
// benchmark tier and writes a machine-readable baseline
// (BENCH_core.json by default), so the performance trajectory of the
// hot path is tracked in-repo from one change to the next. cmd/cigate
// compares a fresh run against the committed baseline in CI.
//
// Simulations are built and run through the public civect/sim façade;
// rows run sequentially on purpose — each is a testing.Benchmark
// sample whose timing a concurrent session would pollute.
//
// Besides the per-mode/per-tier whole-run rows, cibench emits an
// "issue" micro row: the marginal throughput of a warmed steady-state
// ci-mode cycle slice, which isolates the scheduler hot loop (issue
// wakeup + replica arbitration) from setup cost so cigate catches
// scheduler regressions that whole-run noise would hide.
//
// Usage:
//
//	cibench                          # write BENCH_core.json (gcc + gcc.big + mcf.big)
//	cibench -o - -instr 100000       # print to stdout, bigger runs
//	cibench -bench gcc.big -o big.json
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"strings"
	"testing"

	"civect/sim"
)

func measure(mode sim.Mode, bench string, instr uint64) (sim.BenchResult, error) {
	w, err := sim.Load(bench)
	if err != nil {
		return sim.BenchResult{}, err
	}
	var res *sim.Result
	var runErr error
	br := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			s, err := sim.New(w, sim.WithMode(mode), sim.WithInstrBudget(instr))
			if err != nil {
				runErr = err
				return
			}
			if res, err = s.Run(context.Background()); err != nil {
				runErr = err
				return
			}
		}
	})
	if runErr != nil {
		return sim.BenchResult{}, fmt.Errorf("%s/%v: %w", bench, mode, runErr)
	}
	ns := br.NsPerOp()
	st := res.Stats
	return sim.BenchResult{
		Mode:            mode.String(),
		Bench:           bench,
		Instr:           instr,
		NsPerOp:         ns,
		SimInstrsPerSec: float64(st.Committed) / (float64(ns) * 1e-9),
		BytesPerOp:      br.AllocedBytesPerOp(),
		AllocsPerOp:     br.AllocsPerOp(),
		IPC:             st.IPC(),
		ReuseFraction:   st.ReuseFraction(),
	}, nil
}

// measureIssueStage micro-benchmarks the scheduler hot loop: a ci-mode
// gcc session is warmed past the table-churn phase, then a fixed slice
// of cycles is timed via Session.Step. The slice's committed-instruction
// and reuse deltas are deterministic, so the gate's exact-match check
// pins the scheduler's semantics along with its speed; throughput over
// the slice isolates the per-cycle scheduling cost from setup and
// workload generation.
func measureIssueStage() (sim.BenchResult, error) {
	const warmCycles, sliceCycles = 20_000, 50_000
	w, err := sim.LoadWithIters("gcc", 50_000_000)
	if err != nil {
		return sim.BenchResult{}, err
	}
	var committed, reused uint64
	var runErr error
	br := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			s, err := sim.New(w, sim.WithMode(sim.CI))
			if err != nil {
				runErr = err
				return
			}
			if _, err := s.Step(warmCycles); err != nil {
				runErr = err
				return
			}
			st0 := s.Stats()
			b.StartTimer()
			_, stepErr := s.Step(sliceCycles)
			b.StopTimer()
			if stepErr != nil {
				runErr = stepErr
				return
			}
			if s.Halted() {
				runErr = fmt.Errorf("issue-stage slice ran past the workload's halt")
				return
			}
			st1 := s.Stats()
			committed = st1.Committed - st0.Committed
			reused = st1.CommittedReuse - st0.CommittedReuse
		}
	})
	if runErr != nil {
		return sim.BenchResult{}, fmt.Errorf("issue-stage micro: %w", runErr)
	}
	ns := br.NsPerOp()
	return sim.BenchResult{
		Mode:            "issue",
		Bench:           "gcc",
		Instr:           committed,
		NsPerOp:         ns,
		SimInstrsPerSec: float64(committed) / (float64(ns) * 1e-9),
		BytesPerOp:      br.AllocedBytesPerOp(),
		AllocsPerOp:     br.AllocsPerOp(),
		IPC:             float64(committed) / float64(sliceCycles),
		ReuseFraction:   float64(reused) / float64(committed),
	}, nil
}

// measureSweep times a five-mode sweep of one workload run as a single
// sim.Set on one worker: the throughput of the path ciexp's prefetch
// takes, as opposed to the per-session rows above. The row's stats are
// the aggregate over all five points; cigate's exact-match check pins
// the sweep's results along with its speed.
func measureSweep(bench string, instr uint64) (sim.BenchResult, error) {
	w, err := sim.Load(bench)
	if err != nil {
		return sim.BenchResult{}, err
	}
	points := make([]sim.Point, len(sim.Modes()))
	for i, m := range sim.Modes() {
		points[i] = sim.Point{Workload: w, Options: []sim.Option{sim.WithMode(m), sim.WithInstrBudget(instr)}}
	}
	var committed, reuseHits, cycles uint64
	var runErr error
	br := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			set, err := sim.NewSet(points...)
			if err != nil {
				runErr = err
				return
			}
			set.Workers = 1
			results, err := set.Run(context.Background())
			if err != nil {
				runErr = err
				return
			}
			committed, reuseHits, cycles = 0, 0, 0
			for _, res := range results {
				committed += res.Stats.Committed
				reuseHits += res.Stats.CommittedReuse
				cycles += res.Stats.Cycles
			}
		}
	})
	if runErr != nil {
		return sim.BenchResult{}, fmt.Errorf("sweep %s: %w", bench, runErr)
	}
	ns := br.NsPerOp()
	return sim.BenchResult{
		Mode:            "sweep",
		Bench:           bench,
		Instr:           committed,
		NsPerOp:         ns,
		SimInstrsPerSec: float64(committed) / (float64(ns) * 1e-9),
		BytesPerOp:      br.AllocedBytesPerOp(),
		AllocsPerOp:     br.AllocsPerOp(),
		IPC:             float64(committed) / float64(cycles),
		ReuseFraction:   float64(reuseHits) / float64(committed),
	}, nil
}

// measureSampled times the sampled-simulation pipeline end to end
// (BBV profile, clustering, functional warming, detailed samples,
// stitching) through the façade. SimInstrsPerSec reports
// estimated-stream instructions per wall second — the effective rate
// sampling buys, which is what the ultra tier's affordability rests
// on — and IPC/ReuseFraction pin the stitched estimates, which are
// deterministic, for cigate's exact-match check. The row is fixed on
// gcc.big over a 200k-instruction stream so the phase structure the
// clustering targets is actually present.
func measureSampled() (sim.BenchResult, error) {
	const bench, instr = "gcc.big", 200_000
	w, err := sim.Load(bench)
	if err != nil {
		return sim.BenchResult{}, err
	}
	var res *sim.Result
	var runErr error
	br := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			s, err := sim.New(w, sim.WithMode(sim.CI), sim.WithInstrBudget(instr),
				sim.WithSampling(sim.SamplingConfig{}))
			if err != nil {
				runErr = err
				return
			}
			if res, err = s.Run(context.Background()); err != nil {
				runErr = err
				return
			}
		}
	})
	if runErr != nil {
		return sim.BenchResult{}, fmt.Errorf("sampled %s: %w", bench, runErr)
	}
	sr := res.Sampled
	var ipc, reuse float64
	for _, st := range sr.Stats {
		switch st.Name {
		case "ipc":
			ipc = st.Mean
		case "reuse_frac":
			reuse = st.Mean
		}
	}
	ns := br.NsPerOp()
	return sim.BenchResult{
		Mode:            "sampled",
		Bench:           bench,
		Instr:           sr.TotalInstr,
		NsPerOp:         ns,
		SimInstrsPerSec: float64(sr.TotalInstr) / (float64(ns) * 1e-9),
		BytesPerOp:      br.AllocedBytesPerOp(),
		AllocsPerOp:     br.AllocsPerOp(),
		IPC:             ipc,
		ReuseFraction:   reuse,
	}, nil
}

func main() {
	out := flag.String("o", "BENCH_core.json", "output path ('-' for stdout)")
	bench := flag.String("bench", "gcc,gcc.big,mcf.big", "comma-separated benchmark workloads (both tiers allowed)")
	instr := flag.Uint64("instr", 30_000, "committed-instruction budget per simulation")
	micro := flag.Bool("micro", true, "include the issue-stage scheduler microbenchmark row")
	flag.Parse()

	var results []sim.BenchResult
	for _, b := range strings.Split(*bench, ",") {
		for _, m := range sim.Modes() {
			r, err := measure(m, b, *instr)
			if err != nil {
				fmt.Fprintf(os.Stderr, "cibench: %v\n", err)
				os.Exit(1)
			}
			fmt.Fprintf(os.Stderr, "cibench: %-12s %-6s %8.0f sim-instrs/s  %8d B/op  %5d allocs/op\n",
				r.Bench, r.Mode, r.SimInstrsPerSec, r.BytesPerOp, r.AllocsPerOp)
			results = append(results, r)
		}
	}
	if *micro {
		r, err := measureIssueStage()
		if err != nil {
			fmt.Fprintf(os.Stderr, "cibench: %v\n", err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "cibench: %-12s %-6s %8.0f sim-instrs/s  %8d B/op  %5d allocs/op\n",
			r.Bench, r.Mode, r.SimInstrsPerSec, r.BytesPerOp, r.AllocsPerOp)
		results = append(results, r)
	}
	{
		first := strings.Split(*bench, ",")[0]
		r, err := measureSweep(first, *instr)
		if err != nil {
			fmt.Fprintf(os.Stderr, "cibench: %v\n", err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "cibench: %-12s %-6s %8.0f sim-instrs/s  %8d B/op  %5d allocs/op\n",
			r.Bench, r.Mode, r.SimInstrsPerSec, r.BytesPerOp, r.AllocsPerOp)
		results = append(results, r)
	}
	{
		r, err := measureSampled()
		if err != nil {
			fmt.Fprintf(os.Stderr, "cibench: %v\n", err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "cibench: %-12s %-6s %8.0f sim-instrs/s  %8d B/op  %5d allocs/op\n",
			r.Bench, r.Mode, r.SimInstrsPerSec, r.BytesPerOp, r.AllocsPerOp)
		results = append(results, r)
	}

	blob, err := sim.MarshalBenchResults(results)
	if err != nil {
		fmt.Fprintf(os.Stderr, "cibench: %v\n", err)
		os.Exit(1)
	}
	if *out == "-" {
		os.Stdout.Write(blob)
		return
	}
	if err := os.WriteFile(*out, blob, 0o644); err != nil {
		fmt.Fprintf(os.Stderr, "cibench: %v\n", err)
		os.Exit(1)
	}
}
