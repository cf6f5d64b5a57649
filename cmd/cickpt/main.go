// Command cickpt drives checkpointed and sampled simulation: the
// SimPoint-style pipeline (docs/SAMPLING.md) that makes
// billion-instruction workloads affordable, and the CIVK checkpoint
// machinery that makes long runs killable and resumable.
//
// Usage:
//
//	cickpt profile -bench gcc.ultra -interval 10000 -k 8
//	cickpt checkpoint -bench gcc -mode ci -at 15000 -o gcc.ckpt
//	cickpt sampled-run -bench gcc.ultra -mode ci -k 8 -warmup 3000
//	cickpt prepare -bench gcc.ultra -mode ci -k 8 -o gcc.sstate
//	cickpt measure -state gcc.sstate
//	cickpt verify gcc.ckpt
//	cickpt verify -bench gcc.big -mode ci -at 40000 -instr 120000
//
// prepare and measure split the sampled run into its amortizable and
// per-run halves: prepare pays the full-stream profiling and warming
// passes once and captures per-sample restart state into a CIVK file;
// measure simulates just the detailed samples from that file,
// bit-identical to what sampled-run would report live, at a small
// fraction of even the sampled run's wall-clock.
//
// verify exits 0 when the check passes, 1 on a mismatch, and 2 on
// usage or I/O errors.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"reflect"

	"civect/internal/sample"
	"civect/internal/workload"
	"civect/sim"
)

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	switch os.Args[1] {
	case "profile":
		cmdProfile(os.Args[2:])
	case "checkpoint":
		cmdCheckpoint(os.Args[2:])
	case "sampled-run":
		cmdSampledRun(os.Args[2:])
	case "prepare":
		cmdPrepare(os.Args[2:])
	case "measure":
		cmdMeasure(os.Args[2:])
	case "verify":
		cmdVerify(os.Args[2:])
	case "-h", "-help", "--help", "help":
		usage()
	default:
		fmt.Fprintf(os.Stderr, "cickpt: unknown subcommand %q\n", os.Args[1])
		usage()
		os.Exit(2)
	}
}

func usage() {
	fmt.Fprint(os.Stderr, `usage:
  cickpt profile -bench B [-instr N] [-interval I] [-k K] [-json]
  cickpt checkpoint -bench B -at N -o FILE [-mode M]
  cickpt sampled-run -bench B [-mode M] [-instr N] [-interval I] [-k K] [-warmup W] [-json]
  cickpt prepare -bench B -o FILE [-mode M] [-instr N] [-interval I] [-k K] [-warmup W]
  cickpt measure -state FILE [-json]
  cickpt verify FILE
  cickpt verify -bench B -at N [-instr M] [-mode M]
`)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "cickpt:", err)
	os.Exit(2)
}

// cmdProfile collects the basic-block-vector profile and prints the
// sampling plan it induces: which intervals a sampled run would
// simulate in detail, and with what weight.
func cmdProfile(args []string) {
	fs := flag.NewFlagSet("cickpt profile", flag.ExitOnError)
	bench := fs.String("bench", "gcc.ultra", "benchmark name (any tier)")
	instr := fs.Uint64("instr", 0, "profiled-stream bound in instructions (0 = run to halt)")
	interval := fs.Uint64("interval", 10_000, "profiling interval length in instructions")
	k := fs.Int("k", 8, "maximum representative intervals")
	jsonOut := fs.Bool("json", false, "emit the plan as JSON")
	fs.Parse(args)
	if fs.NArg() != 0 {
		usage()
		os.Exit(2)
	}

	wl, err := workload.Spec(*bench)
	if err != nil {
		fatal(err)
	}
	prof, err := sample.Collect(wl.Program, wl.NewMem(), sample.Config{IntervalLen: *interval, MaxInstr: *instr})
	if err != nil {
		fatal(err)
	}
	plan := prof.BuildPlan(*k)
	if *jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(plan); err != nil {
			fatal(err)
		}
		return
	}
	fmt.Printf("%s: %d instructions, %d intervals of %d, %d basic blocks, %d clusters\n",
		*bench, prof.TotalInstr, len(prof.Vectors), prof.IntervalLen, prof.NumBlocks, plan.K)
	fmt.Printf("%10s %12s %12s %8s\n", "interval", "start", "len", "weight")
	for _, s := range plan.Samples {
		fmt.Printf("%10d %12d %12d %8.4f\n", s.Interval, s.Start, s.Len, s.Weight)
	}
}

// stepTo drives a session to the target committed-instruction count
// without sealing it (Step chunks cycles; commit counts trail them).
func stepTo(s *sim.Session, target uint64) error {
	for s.Stats().Committed < target {
		if s.Halted() {
			return fmt.Errorf("program halted at %d committed instructions, before target %d",
				s.Stats().Committed, target)
		}
		if _, err := s.Step(256); err != nil {
			return err
		}
	}
	return nil
}

// cmdCheckpoint runs a detailed simulation to a committed-instruction
// split point and persists the full machine state there.
func cmdCheckpoint(args []string) {
	fs := flag.NewFlagSet("cickpt checkpoint", flag.ExitOnError)
	bench := fs.String("bench", "gcc", "benchmark name (any tier)")
	modeStr := fs.String("mode", "ci", "machine mode: scal, wb, ci, ci-iw, vect")
	at := fs.Uint64("at", 0, "committed-instruction split point (required, > 0)")
	out := fs.String("o", "", "output checkpoint file (required)")
	fs.Parse(args)
	if *out == "" || *at == 0 || fs.NArg() != 0 {
		usage()
		os.Exit(2)
	}

	s, err := newSession(*bench, *modeStr, 0)
	if err != nil {
		fatal(err)
	}
	if err := stepTo(s, *at); err != nil {
		fatal(err)
	}
	if err := s.Checkpoint(*out); err != nil {
		fatal(err)
	}
	st := s.Stats()
	fmt.Printf("%s: %s/%s checkpointed at cycle %d, %d committed\n",
		*out, *bench, *modeStr, st.Cycles, st.Committed)
}

// cmdSampledRun executes the full sampling pipeline through the façade
// and prints the stitched estimates with their confidence intervals.
func cmdSampledRun(args []string) {
	fs := flag.NewFlagSet("cickpt sampled-run", flag.ExitOnError)
	bench := fs.String("bench", "gcc.ultra", "benchmark name (any tier)")
	modeStr := fs.String("mode", "ci", "machine mode: scal, wb, ci, ci-iw, vect")
	instr := fs.Uint64("instr", 0, "profiled-stream bound in instructions (0 = run to halt)")
	interval := fs.Uint64("interval", 10_000, "profiling interval length in instructions")
	k := fs.Int("k", 8, "maximum representative intervals")
	warmup := fs.Uint64("warmup", 3_000, "detailed warmup instructions per sample")
	jsonOut := fs.Bool("json", false, "emit the Result as JSON")
	fs.Parse(args)
	if fs.NArg() != 0 {
		usage()
		os.Exit(2)
	}

	mode, err := sim.ParseMode(*modeStr)
	if err != nil {
		fatal(err)
	}
	w, err := sim.Load(*bench)
	if err != nil {
		fatal(err)
	}
	s, err := sim.New(w,
		sim.WithMode(mode),
		sim.WithInstrBudget(*instr),
		sim.WithSampling(sim.SamplingConfig{IntervalLen: *interval, Clusters: *k, Warmup: *warmup}))
	if err != nil {
		fatal(err)
	}
	res, err := s.Run(context.Background())
	if err != nil {
		fatal(err)
	}
	if *jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(res); err != nil {
			fatal(err)
		}
		return
	}
	sr := res.Sampled
	fmt.Printf("%s/%s: %d instructions estimated from %d simulated in detail (%d samples of %d intervals)\n",
		*bench, *modeStr, sr.TotalInstr, sr.DetailedInstr, sr.NumSamples, sr.TotalInstr/sr.IntervalLen)
	fmt.Printf("%12s %14s %12s\n", "metric", "estimate", "ci95")
	for _, st := range sr.Stats {
		fmt.Printf("%12s %14.4f %12.4f\n", st.Name, st.Mean, st.CI95)
	}
	fmt.Printf("%12s %14.0f %12.0f\n", "est_cycles", sr.EstCycles, sr.EstCyclesCI)
}

// cmdPrepare pays the sampled run's one-time cost — the functional
// profiling pass and the warming fast-forward, both linear in the full
// stream — and captures per-sample restart state into a CIVK file a
// later measure run starts from.
func cmdPrepare(args []string) {
	fs := flag.NewFlagSet("cickpt prepare", flag.ExitOnError)
	bench := fs.String("bench", "gcc.ultra", "benchmark name (any tier)")
	modeStr := fs.String("mode", "ci", "machine mode: scal, wb, ci, ci-iw, vect")
	instr := fs.Uint64("instr", 0, "profiled-stream bound in instructions (0 = run to halt)")
	interval := fs.Uint64("interval", 10_000, "profiling interval length in instructions")
	k := fs.Int("k", 8, "maximum representative intervals")
	warmup := fs.Uint64("warmup", 3_000, "detailed warmup instructions per sample")
	out := fs.String("o", "", "output state file (required)")
	fs.Parse(args)
	if *out == "" || fs.NArg() != 0 {
		usage()
		os.Exit(2)
	}

	mode, err := sim.ParseMode(*modeStr)
	if err != nil {
		fatal(err)
	}
	wl, err := workload.Spec(*bench)
	if err != nil {
		fatal(err)
	}
	prof, err := sample.Collect(wl.Program, wl.NewMem(), sample.Config{IntervalLen: *interval, MaxInstr: *instr})
	if err != nil {
		fatal(err)
	}
	plan := prof.BuildPlan(*k)
	data, err := sample.CaptureState(context.Background(), plan, wl.Program, wl.NewMem(), sim.DefaultConfig(mode), *warmup)
	if err != nil {
		fatal(err)
	}
	if err := sample.WriteStateFile(*out, data); err != nil {
		fatal(err)
	}
	fmt.Printf("%s: %s/%s: %d samples of %d intervals captured (%d bytes)\n",
		*out, *bench, *modeStr, len(plan.Samples), len(prof.Vectors), len(data))
}

// cmdMeasure runs just the detailed samples from a prepared state file
// and stitches the estimates — bit-identical to what sampled-run would
// report live, without either full-stream pass.
func cmdMeasure(args []string) {
	fs := flag.NewFlagSet("cickpt measure", flag.ExitOnError)
	state := fs.String("state", "", "state file written by cickpt prepare (required)")
	jsonOut := fs.Bool("json", false, "emit the estimate as JSON")
	fs.Parse(args)
	if *state == "" || fs.NArg() != 0 {
		usage()
		os.Exit(2)
	}

	data, err := os.ReadFile(*state)
	if err != nil {
		fatal(err)
	}
	info, err := sample.PeekState(data)
	if err != nil {
		fatal(err)
	}
	// The state file is self-describing: the workload regenerates from
	// the registry by the captured name, and RunFromState re-checks the
	// program hash underneath.
	wl, err := workload.Spec(info.Program)
	if err != nil {
		fatal(err)
	}
	est, err := sample.RunFromState(context.Background(), data, wl.Program, wl.NewMem())
	if err != nil {
		fatal(err)
	}
	if *jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(est); err != nil {
			fatal(err)
		}
		return
	}
	fmt.Printf("%s/%s: %d instructions estimated from %d simulated in detail (%d samples)\n",
		info.Program, info.Config.Mode, est.TotalInstr, est.DetailedInstr, len(est.Samples))
	fmt.Printf("%12s %14s %12s\n", "metric", "estimate", "ci95")
	for _, st := range est.Stats {
		fmt.Printf("%12s %14.4f %12.4f\n", st.Name, st.Mean, st.CI95)
	}
	fmt.Printf("%12s %14.0f %12.0f\n", "est_cycles", est.EstCycles, est.EstCyclesCI)
}

// cmdVerify has two forms. With a file argument it checks the
// checkpoint restores cleanly and reports what it holds. With -bench
// and -at it runs the restore-bit-identity differential: a full
// detailed run against a run that checkpoints at the split point,
// resumes from disk, and continues — the two must agree bit for bit.
func cmdVerify(args []string) {
	fs := flag.NewFlagSet("cickpt verify", flag.ExitOnError)
	bench := fs.String("bench", "", "differential form: benchmark name")
	modeStr := fs.String("mode", "ci", "machine mode: scal, wb, ci, ci-iw, vect")
	at := fs.Uint64("at", 0, "differential form: committed-instruction split point")
	instr := fs.Uint64("instr", 0, "differential form: committed-instruction budget (0 = run to halt)")
	fs.Parse(args)

	if *bench == "" {
		if fs.NArg() != 1 {
			usage()
			os.Exit(2)
		}
		verifyFile(fs.Arg(0))
		return
	}
	if *at == 0 || fs.NArg() != 0 {
		usage()
		os.Exit(2)
	}
	verifyDifferential(*bench, *modeStr, *at, *instr)
}

func verifyFile(path string) {
	// Both CIVK payload kinds verify here: a sample-state file decodes
	// through PeekState, a full-machine checkpoint through sim.Resume.
	if data, err := os.ReadFile(path); err == nil {
		if info, err := sample.PeekState(data); err == nil {
			fmt.Printf("%s: ok: sample state: %s/%s, %d samples over %d instructions\n",
				path, info.Program, info.Config.Mode, len(info.Plan.Samples), info.Plan.TotalInstr)
			return
		}
	}
	s, err := sim.Resume(path)
	if err != nil {
		fmt.Fprintf(os.Stderr, "cickpt: %s: %v\n", path, err)
		os.Exit(1)
	}
	st := s.Stats()
	fmt.Printf("%s: ok: %s/%s at cycle %d, %d committed\n",
		path, s.Workload().Name(), s.Config().Mode, st.Cycles, st.Committed)
}

func verifyDifferential(bench, modeStr string, at, instr uint64) {
	full, err := newSession(bench, modeStr, instr)
	if err != nil {
		fatal(err)
	}
	want, err := full.Run(context.Background())
	if err != nil {
		fatal(err)
	}

	dir, err := os.MkdirTemp("", "cickpt-verify-")
	if err != nil {
		fatal(err)
	}
	defer os.RemoveAll(dir)
	path := filepath.Join(dir, "split.ckpt")

	half, err := newSession(bench, modeStr, instr)
	if err != nil {
		fatal(err)
	}
	if err := stepTo(half, at); err != nil {
		fatal(err)
	}
	if err := half.Checkpoint(path); err != nil {
		fatal(err)
	}
	resumed, err := sim.Resume(path)
	if err != nil {
		fatal(err)
	}
	got, err := resumed.Run(context.Background())
	if err != nil {
		fatal(err)
	}

	if !reflect.DeepEqual(got.Stats, want.Stats) || resumed.ARF() != full.ARF() {
		fmt.Fprintf(os.Stderr, "cickpt: DIVERGED: %s/%s split at %d: resumed run differs from uninterrupted run\n",
			bench, modeStr, at)
		fmt.Fprintf(os.Stderr, "  full:    %d cycles, %d committed, IPC %.6f\n",
			want.Stats.Cycles, want.Stats.Committed, want.Stats.IPC())
		fmt.Fprintf(os.Stderr, "  resumed: %d cycles, %d committed, IPC %.6f\n",
			got.Stats.Cycles, got.Stats.Committed, got.Stats.IPC())
		os.Exit(1)
	}
	fmt.Printf("%s/%s: ok: split at %d, both runs end at cycle %d with %d committed, bit-identical\n",
		bench, modeStr, at, want.Stats.Cycles, want.Stats.Committed)
}

// newSession builds a detailed session over a registry workload.
func newSession(bench, modeStr string, instr uint64) (*sim.Session, error) {
	mode, err := sim.ParseMode(modeStr)
	if err != nil {
		return nil, err
	}
	w, err := sim.Load(bench)
	if err != nil {
		return nil, err
	}
	return sim.New(w, sim.WithMode(mode), sim.WithInstrBudget(instr))
}
