// Command cisim runs a single simulation and prints its statistics.
// It is a thin CLI over the public civect/sim API.
//
// Usage:
//
//	cisim -bench gcc -mode ci -ports 1 -regs 256 -instr 200000
//	cisim -bench mcf.big -mode ci -json
//	cisim -dump-config
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"

	"civect/sim"
)

func main() {
	bench := flag.String("bench", "gcc", "benchmark name (one of the SpecInt2000 stand-ins, either tier)")
	modeStr := flag.String("mode", "ci", "machine mode: scal, wb, ci, ci-iw, vect")
	ports := flag.Int("ports", 1, "L1 data cache ports")
	regs := flag.Int("regs", 256, "physical registers (0 = unbounded)")
	replicas := flag.Int("replicas", 4, "replicas per vectorized instruction")
	stridedPCs := flag.Int("stridedpcs", 2, "stridedPCs propagated per rename entry")
	specMem := flag.Int("specmem", 0, "speculative data memory positions (0 = none)")
	specMemLat := flag.Int("specmemlat", 2, "speculative data memory latency")
	noDAEC := flag.Bool("nodaec", false, "disable the DAEC register reclamation")
	instr := flag.Uint64("instr", 200_000, "committed-instruction budget")
	jsonOut := flag.Bool("json", false, "emit the result as JSON (the versioned sim.Result schema)")
	dumpConfig := flag.Bool("dump-config", false, "print the Table 1 configuration and exit")
	flag.Parse()

	if *dumpConfig {
		cfg := sim.DefaultConfig(sim.CI)
		fmt.Printf("fetch/decode/issue/commit width: %d/%d/%d/%d\n",
			cfg.FetchWidth, cfg.DecodeWidth, cfg.IssueWidth, cfg.CommitWidth)
		fmt.Printf("instruction window: %d, LSQ: %d\n", cfg.WindowSize, cfg.LSQSize)
		fmt.Printf("FUs: %d simple int (lat %d), %d int mul/div (lat %d/%d)\n",
			cfg.IntALUs, cfg.LatIntALU, cfg.IntMulDivs, cfg.LatIntMul, cfg.LatIntDiv)
		fmt.Printf("gshare: %d entries\n", cfg.GshareEntries)
		fmt.Printf("L1I: %dKB  L1D: %dKB  L2: %dKB  L3: %dMB\n",
			cfg.Hier.L1I.SizeBytes>>10, cfg.Hier.L1D.SizeBytes>>10,
			cfg.Hier.L2.SizeBytes>>10, cfg.Hier.L3.SizeBytes>>20)
		fmt.Printf("stride predictor: %d sets x %d  SRSMT: %d sets x %d  MBS: %d sets x %d  NRBQ: %d\n",
			cfg.StrideSets, cfg.StrideAssoc, cfg.SRSMTSets, cfg.SRSMTAssoc,
			cfg.MBSSets, cfg.MBSAssoc, cfg.NRBQEntries)
		return
	}

	mode, err := sim.ParseMode(*modeStr)
	if err != nil {
		fmt.Fprintf(os.Stderr, "cisim: unknown mode %q\n", *modeStr)
		os.Exit(2)
	}
	w, err := sim.Load(*bench)
	if err != nil {
		fmt.Fprintln(os.Stderr, "cisim:", err)
		os.Exit(2)
	}

	s, err := sim.New(w,
		sim.WithMode(mode),
		sim.WithPorts(*ports),
		sim.WithRegs(*regs),
		sim.WithReplicas(*replicas),
		sim.WithStridedPCs(*stridedPCs),
		sim.WithSpecMem(*specMem),
		sim.WithSpecMemLatency(*specMemLat),
		sim.WithDAEC(!*noDAEC),
		sim.WithInstrBudget(*instr),
	)
	if err != nil {
		fmt.Fprintln(os.Stderr, "cisim:", err)
		os.Exit(1)
	}
	res, err := s.Run(context.Background())
	if err != nil {
		fmt.Fprintln(os.Stderr, "cisim:", err)
		os.Exit(1)
	}

	if *jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(res); err != nil {
			fmt.Fprintln(os.Stderr, "cisim:", err)
			os.Exit(1)
		}
		return
	}

	st := res.Stats
	fmt.Printf("%s / %s / %d port(s) / %s regs\n", *bench, mode, *ports, regLabel(*regs))
	fmt.Printf("cycles             %12d\n", st.Cycles)
	fmt.Printf("committed          %12d   IPC %.3f\n", st.Committed, st.IPC())
	fmt.Printf("committed reuse    %12d   (%.2f%% of committed)\n", st.CommittedReuse, 100*st.ReuseFraction())
	fmt.Printf("fetched            %12d\n", st.Fetched)
	fmt.Printf("squashed (specBP)  %12d\n", st.SquashedBP)
	fmt.Printf("replicas (specCI)  %12d\n", st.ReplicasDispatched)
	fmt.Printf("branches           %12d   cond %d\n", st.Branches, st.CondBranches)
	fmt.Printf("mispredicts        %12d   rate %.2f%%   hard %d\n",
		st.Mispredicts, 100*st.MispredictRate(), st.HardMispredicts)
	fmt.Printf("episodes selected  %12d   reused %d\n", st.EpisodesSelected, st.EpisodesReused)
	fmt.Printf("CI selected instrs %12d\n", st.CISelected)
	fmt.Printf("vectorized entries %12d   validation fails %d   replays %d\n",
		st.VectorizedEntries, st.ValidationFails, st.Replays)
	fmt.Printf("  fail breakdown   stride=%d vec=%d self=%d scalar=%d slot=%d addr=%d\n",
		st.ValFailStride, st.ValFailVec, st.ValFailSelf, st.ValFailScalar, st.ValFailSlot, st.ValFailAddr)
	fmt.Printf("  replay breakdown load=%d arith=%d\n", st.ReplayLoad, st.ReplayArith)
	fmt.Printf("iw captured        %12d\n", st.IWCaptured)
	fmt.Printf("loads/stores       %12d / %d   store conflicts %d (%.2f%%)\n",
		st.Loads, st.Stores, st.StoreConflicts, 100*st.StoreConflictRate())
	fmt.Printf("avg stridedPCs     %12.2f\n", st.AvgStridedPCs())
	fmt.Printf("regs in use        %12.1f avg   %d peak\n", st.RegAvgInUse, st.RegPeak)
	fmt.Printf("L1D accesses       %12d   miss rate %.2f%%\n", st.L1D.Accesses, 100*st.L1D.MissRate())
	fmt.Printf("L1I accesses       %12d   miss rate %.2f%%\n", st.L1I.Accesses, 100*st.L1I.MissRate())
	fmt.Printf("L2 accesses        %12d   L3 accesses %d\n", st.L2.Accesses, st.L3.Accesses)
	fmt.Printf("specmem copies     %12d\n", st.SpecMemCopies)
}

func regLabel(r int) string {
	if r == 0 {
		return "inf"
	}
	return fmt.Sprint(r)
}
