// Command ciexp regenerates the paper's tables and figures over the
// synthetic SpecInt2000 workloads.
//
// Experiments run concurrently (they share one memoized run cache), and
// the -workers flag bounds how many simulations may execute at once
// across all of them.
//
// With -shard k/n the command runs only the k-th of n deterministic
// partitions of the sweep's simulation cross-product and emits the raw
// per-cell results as JSON; cmd/cimerge joins the shard files back
// into the complete tables, byte-identical to an unsharded run. This
// lets a CI farm (or several machines) split a full-budget sweep.
// Adding -shard-state journals completed cells to a file so a killed
// shard run can be restarted with the same flags and only simulate the
// cells it had not yet finished — the output stays byte-identical.
//
// Usage:
//
//	ciexp -exp fig9                 # one experiment
//	ciexp -exp all -instr 500000    # everything, bigger samples
//	ciexp -exp all -json            # machine-readable tables
//	ciexp -tier big                 # megabyte-scale workload variants
//	ciexp -shard 2/8 -json > s2.json# one shard of the sweep
//	ciexp -list                     # show available experiments
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"

	"civect/internal/harness"
	"civect/internal/sweep"
	"civect/sim"
)

func fail(err error) {
	fmt.Fprintf(os.Stderr, "ciexp: %v\n", err)
	os.Exit(1)
}

func main() {
	exp := flag.String("exp", "all", "experiment id (cost, fig4, fig5, fig8, fig9, fig10, fig11, fig12, fig13, fig14, regs, stores, ablate) or 'all'")
	instr := flag.Uint64("instr", 200_000, "committed-instruction budget per simulation")
	benches := flag.String("benches", "", "comma-separated benchmark subset (default: the selected tier)")
	tier := flag.String("tier", "base", "benchmark tier: base (the twelve ~3k-instr stand-ins), big (their 100k+-instr variants), ultra (their 10M+-dynamic-instr variants), both (base+big), or all")
	workers := flag.Int("workers", 0, "maximum simulations in flight across all experiments (default GOMAXPROCS; 1 fully serializes)")
	shard := flag.String("shard", "", "run only shard k/n of the sweep and emit per-cell JSON for cimerge")
	shardState := flag.String("shard-state", "", "crash-recovery journal for -shard: completed cells append here and a restarted run skips them (removed on success)")
	jsonOut := flag.Bool("json", false, "emit the tables as JSON instead of aligned text")
	list := flag.Bool("list", false, "list experiments and exit")
	flag.Parse()

	if *list {
		for _, e := range harness.Experiments() {
			fmt.Printf("%-8s %s\n", e.ID, e.Title)
		}
		return
	}

	opt := harness.Options{MaxInstr: *instr, Workers: *workers}
	switch *tier {
	case "base":
		// The harness default.
	case "big":
		opt.Benches = sim.BigWorkloads()
	case "ultra":
		opt.Benches = sim.UltraWorkloads()
	case "both":
		opt.Benches = append(sim.BaseWorkloads(), sim.BigWorkloads()...)
	case "all":
		opt.Benches = sim.Workloads()
	default:
		fmt.Fprintf(os.Stderr, "ciexp: unknown tier %q (base, big, ultra, both, all)\n", *tier)
		os.Exit(2)
	}
	if *benches != "" {
		opt.Benches = strings.Split(*benches, ",")
	}

	var expIDs []string
	exps := harness.Experiments()
	if *exp != "all" {
		e, ok := harness.ExperimentByID(*exp)
		if !ok {
			fmt.Fprintf(os.Stderr, "ciexp: unknown experiment %q (try -list)\n", *exp)
			os.Exit(2)
		}
		exps = []harness.Experiment{e}
		expIDs = []string{e.ID}
	}

	if *shardState != "" && *shard == "" {
		fmt.Fprintln(os.Stderr, "ciexp: -shard-state requires -shard")
		os.Exit(2)
	}
	if *shard != "" {
		sh, err := sweep.ParseShard(*shard)
		if err != nil {
			fail(err)
		}
		var file *sweep.File
		if *shardState != "" {
			file, err = sweep.RunShardJournaled(expIDs, opt, sh, *shardState)
		} else {
			file, err = sweep.RunShard(expIDs, opt, sh)
		}
		if err != nil {
			fail(err)
		}
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(file); err != nil {
			fail(err)
		}
		return
	}

	h := harness.New(opt)
	tables, err := harness.RunExperiments(h, exps)
	if err != nil {
		fail(err)
	}

	if *jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(tables); err != nil {
			fail(err)
		}
		return
	}
	for _, t := range tables {
		fmt.Println(t)
	}
}
