// Command citrace records, inspects and compares deterministic
// cycle-trace journals (the binary format of docs/TRACE_FORMAT.md).
// Its purpose is divergence hunting: record a known-good journal and a
// suspect one, then let diff localize the exact first cycle — and
// first event within it — where the two runs part ways. The worked
// example in docs/DEBUGGING.md hunts a real historical engine bug
// with it, recording the suspect journal from a build that has the bug
// patched back in.
//
// Usage:
//
//	citrace record -bench vpr -mode ci -instr 15000 -o good.civt
//	citrace dump -from 360 -to 380 good.civt
//	citrace diff good.civt bad.civt
//
// diff exits 0 when the journals describe identical event streams, 1
// on divergence, and 2 on usage or I/O errors.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"

	"civect/internal/trace"
	"civect/sim"
)

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	switch os.Args[1] {
	case "record":
		cmdRecord(os.Args[2:])
	case "dump":
		cmdDump(os.Args[2:])
	case "diff":
		cmdDiff(os.Args[2:])
	case "-h", "-help", "--help", "help":
		usage()
	default:
		fmt.Fprintf(os.Stderr, "citrace: unknown subcommand %q\n", os.Args[1])
		usage()
		os.Exit(2)
	}
}

func usage() {
	fmt.Fprint(os.Stderr, `usage:
  citrace record -o FILE [-bench B] [-mode M] [-instr N] [-level L] [-window F:L]
  citrace dump [-from N] [-to N] FILE
  citrace diff [-engine-events] FILE_A FILE_B
`)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "citrace:", err)
	os.Exit(2)
}

func cmdRecord(args []string) {
	fs := flag.NewFlagSet("citrace record", flag.ExitOnError)
	bench := fs.String("bench", "gcc", "benchmark name (either tier)")
	modeStr := fs.String("mode", "ci", "machine mode: scal, wb, ci, ci-iw, vect")
	instr := fs.Uint64("instr", 15_000, "committed-instruction budget (0 = run to halt)")
	levelStr := fs.String("level", "pipeline", "journal level: commits, pipeline, full")
	window := fs.String("window", "", "only record cycles F:L (L empty = open-ended)")
	out := fs.String("o", "", "output journal file (required)")
	fs.Parse(args)
	if *out == "" || fs.NArg() != 0 {
		usage()
		os.Exit(2)
	}

	mode, err := sim.ParseMode(*modeStr)
	if err != nil {
		fatal(err)
	}
	level, err := sim.ParseTraceLevel(*levelStr)
	if err != nil {
		fatal(err)
	}
	w, err := sim.Load(*bench)
	if err != nil {
		fatal(err)
	}

	// The journal is published atomically: it is recorded into a temp
	// file and renamed onto -o only after the run completed and the
	// trailer sealed, so an interrupted or failed record never leaves a
	// truncated file where a valid artifact is expected.
	f, err := trace.NewAtomicFile(*out)
	if err != nil {
		fatal(err)
	}
	defer f.Abort() // no-op once committed
	opts := []sim.Option{
		sim.WithMode(mode),
		sim.WithInstrBudget(*instr),
		sim.WithTrace(f),
		sim.WithTraceLevel(level),
	}
	if *window != "" {
		first, last, err := parseWindow(*window)
		if err != nil {
			fatal(err)
		}
		opts = append(opts, sim.WithTraceWindow(first, last))
	}
	s, err := sim.New(w, opts...)
	if err != nil {
		fatal(err)
	}
	res, err := s.Run(context.Background())
	if err != nil {
		fatal(err)
	}
	if err := f.Commit(); err != nil {
		fatal(err)
	}
	fmt.Printf("%s: %s/%s level=%s: %d cycles, %d committed\n",
		*out, *bench, mode, level, res.Stats.Cycles, res.Stats.Committed)
}

// parseWindow parses "F:L" ("F:" leaves the window open-ended).
func parseWindow(s string) (first, last uint64, err error) {
	var f, l uint64
	if n, _ := fmt.Sscanf(s, "%d:%d", &f, &l); n == 2 {
		return f, l, nil
	}
	if n, _ := fmt.Sscanf(s+"\n", "%d:\n", &f); n == 1 {
		return f, 0, nil
	}
	return 0, 0, fmt.Errorf("invalid -window %q (want FIRST:LAST or FIRST:)", s)
}

func cmdDump(args []string) {
	fs := flag.NewFlagSet("citrace dump", flag.ExitOnError)
	from := fs.Uint64("from", 0, "first cycle to print")
	to := fs.Uint64("to", 0, "last cycle to print (0 = unbounded)")
	fs.Parse(args)
	if fs.NArg() != 1 {
		usage()
		os.Exit(2)
	}
	f, err := os.Open(fs.Arg(0))
	if err != nil {
		fatal(err)
	}
	defer f.Close()
	r, err := trace.NewReader(f)
	if err != nil {
		fatal(err)
	}
	if err := trace.Dump(os.Stdout, r, *from, *to); err != nil {
		fatal(err)
	}
}

func cmdDiff(args []string) {
	fs := flag.NewFlagSet("citrace diff", flag.ExitOnError)
	engineEvents := fs.Bool("engine-events", false,
		"also compare engine-specific events (fast-forward jumps; full-level journals)")
	fs.Parse(args)
	if fs.NArg() != 2 {
		usage()
		os.Exit(2)
	}
	open := func(path string) *trace.Reader {
		f, err := os.Open(path)
		if err != nil {
			fatal(err)
		}
		r, err := trace.NewReader(f)
		if err != nil {
			fatal(fmt.Errorf("%s: %w", path, err))
		}
		return r
	}
	ra, rb := open(fs.Arg(0)), open(fs.Arg(1))
	res, err := trace.Diff(ra, rb, trace.DiffOptions{EngineEvents: *engineEvents})
	if err != nil {
		fatal(err)
	}
	if res.Identical() {
		fmt.Printf("identical: %d event-bearing cycles, %d events\n", res.Cycles, res.EventsA)
		return
	}
	d := res.Divergence
	fmt.Printf("DIVERGED at cycle %d (after %d identical event-bearing cycles)\n", d.Cycle, res.Cycles)
	fmt.Printf("  %s\n", d.Reason)
	printSide := func(name, path string, evs []trace.Event) {
		if evs == nil {
			fmt.Printf("  %s (%s): no events this cycle\n", name, path)
			return
		}
		fmt.Printf("  %s (%s):\n", name, path)
		for i, e := range evs {
			marker := "  "
			if i == d.Index {
				marker = "->"
			}
			fmt.Printf("   %s %s\n", marker, e)
		}
	}
	printSide("A", fs.Arg(0), d.A)
	printSide("B", fs.Arg(1), d.B)
	os.Exit(1)
}
