package workload

import (
	"fmt"
	"sort"
	"strings"

	"civect/internal/emu"
)

// specParams tunes the twelve SpecInt2000 stand-ins. The knobs are set
// from each program's published character: mcf is memory-bound with
// pointer chasing and a huge working set; eon is highly predictable and
// ILP-rich; parser/twolf/vpr mispredict heavily; vortex and gap are
// store- and dataset-heavy; crafty and bzip2 sit in between.
var specParams = map[string]Params{
	"bzip2": {
		Name: "bzip2", ArrayWords: 1 << 10, Iters: 1 << 22, TakenBias: 0.74,
		Hammocks: 1, CIOps: 3, ArmOps: 4, FillerOps: 4, Streams: 2, Gathers: 2, StoreEvery: 1, Seed: 101,
	},
	"crafty": {
		Name: "crafty", ArrayWords: 1 << 10, Iters: 1 << 22, TakenBias: 0.80,
		Hammocks: 2, CIOps: 3, ArmOps: 5, FillerOps: 6, Streams: 2, ArmLoads: 1, Gathers: 1, StoreEvery: 0, Seed: 102,
	},
	"eon": {
		Name: "eon", ArrayWords: 1 << 10, Iters: 1 << 22, TakenBias: 0.96,
		Hammocks: 1, CIOps: 3, ArmOps: 3, FillerOps: 8, Streams: 3, Gathers: 1, StoreEvery: 1, Seed: 103,
	},
	"gap": {
		Name: "gap", ArrayWords: 1 << 12, Iters: 1 << 22, TakenBias: 0.80,
		Hammocks: 1, CIOps: 3, ArmOps: 4, FillerOps: 4, Streams: 2, ArmLoads: 1, Gathers: 2, StoreEvery: 1, Seed: 104,
	},
	"gcc": {
		Name: "gcc", ArrayWords: 1 << 11, Iters: 1 << 22, TakenBias: 0.68,
		Hammocks: 2, CIOps: 3, ArmOps: 5, FillerOps: 3, Streams: 2, ArmLoads: 1, Gathers: 2, StoreEvery: 1, Seed: 105,
	},
	"gzip": {
		Name: "gzip", ArrayWords: 1 << 10, Iters: 1 << 22, TakenBias: 0.74,
		Hammocks: 1, CIOps: 3, ArmOps: 3, FillerOps: 3, Streams: 2, Gathers: 1, StoreEvery: 1, Seed: 106,
	},
	"mcf": {
		Name: "mcf", ArrayWords: 1 << 16, Iters: 1 << 22, TakenBias: 0.72,
		Hammocks: 1, CIOps: 2, ArmOps: 2, FillerOps: 1, Streams: 2, PointerChase: true,
		Gathers: 1, StoreEvery: 8, Seed: 107,
	},
	"parser": {
		Name: "parser", ArrayWords: 1 << 10, Iters: 1 << 22, TakenBias: 0.62,
		Hammocks: 2, CIOps: 3, ArmOps: 4, FillerOps: 2, Streams: 2, ArmLoads: 1, Gathers: 2, StoreEvery: 1, Seed: 108,
	},
	"perlbmk": {
		Name: "perlbmk", ArrayWords: 1 << 11, Iters: 1 << 22, TakenBias: 0.72,
		Hammocks: 2, CIOps: 3, ArmOps: 4, FillerOps: 4, Streams: 2, ArmLoads: 1, Gathers: 2, StoreEvery: 1, Seed: 109,
	},
	"twolf": {
		Name: "twolf", ArrayWords: 1 << 13, Iters: 1 << 22, TakenBias: 0.68,
		Hammocks: 2, CIOps: 3, ArmOps: 3, FillerOps: 2, Streams: 2, PointerChase: true,
		ArmLoads: 1, Gathers: 1, StoreIntoStream: true, StoreEvery: 4, Seed: 110,
	},
	"vortex": {
		Name: "vortex", ArrayWords: 1 << 12, Iters: 1 << 22, TakenBias: 0.82,
		Hammocks: 1, CIOps: 3, ArmOps: 4, FillerOps: 5, Streams: 2, ArmLoads: 1, Gathers: 2, StoreIntoStream: true, StoreEvery: 1, Seed: 111,
	},
	"vpr": {
		Name: "vpr", ArrayWords: 1 << 11, Iters: 1 << 22, TakenBias: 0.70,
		Hammocks: 1, CIOps: 3, ArmOps: 3, FillerOps: 3, Streams: 2, Gathers: 1, StoreEvery: 1, Seed: 112,
	},
}

// BigSuffix distinguishes the megabyte-scale variant of a benchmark:
// "gcc.big" is gcc's tuning re-generated at big-tier scale.
const BigSuffix = ".big"

// UltraSuffix distinguishes the sampling-scale variant: "gcc.ultra" is
// gcc's big-tier tuning with the outer epoch loop sized so the program
// runs at least ultraTargetInstr dynamic instructions before its
// structural halt — long enough that only the sampled path affords an
// end-to-end detailed run.
const UltraSuffix = ".ultra"

// ultraTargetInstr is the ultra tier's dynamic-length floor.
const ultraTargetInstr = 10_000_000

// bigParams derives the megabyte-scale variant of a base tuning: a
// uniform 64KB-per-stream array in each of 48 phase blocks (working
// sets of several MB, past the 2MB L3), an inner trip count small
// enough that execution rotates through phases every few thousand
// instructions (so the >100k-instruction static footprint actually
// thrashes the 64KB L1I and the 256-entry SRSMT within any budget),
// and a distinct seed so the two tiers never share data.
func bigParams(p Params) Params {
	p.Name += BigSuffix
	p.ArrayWords = 1 << 13
	p.Phases = 48
	p.Iters = 8
	p.Seed += 1000
	return p
}

// ultraParams derives the sampling-scale variant of a base tuning: the
// big tier's phase structure (sampling's clustering needs the phase
// rotation) with a third distinct seed and Epochs left 0 — Spec sizes
// the epoch count against ultraTargetInstr at generation time.
func ultraParams(p Params) Params {
	base := p.Name
	p = bigParams(p)
	p.Name = base + UltraSuffix
	p.Seed += 1000
	return p
}

// ultraEpochs sizes the ultra tier's outer trip count: generate the
// tuning with a single epoch, measure its dynamic instruction count on
// the emulator, and provision epochs to clear ultraTargetInstr with a
// 25% margin (epochs are not perfectly identical in dynamic length —
// StoreIntoStream tunings overwrite value-stream words that steer
// later hammocks, shifting arm lengths between epochs). It returns the
// probe too: its image is the full-length program's image.
func ultraEpochs(p Params) (int, *Benchmark, error) {
	probe := p
	probe.Epochs = 1
	b, err := Generate(probe)
	if err != nil {
		return 0, nil, err
	}
	cpu := emu.New(b.NewMem())
	if err := cpu.Run(b.Program, 0); err != nil {
		return 0, nil, err
	}
	if cpu.Executed == 0 {
		return 0, nil, fmt.Errorf("workload %s: empty probe epoch", p.Name)
	}
	want := uint64(ultraTargetInstr + ultraTargetInstr/4)
	return int((want + cpu.Executed - 1) / cpu.Executed), b, nil
}

// Names returns the benchmark names in SpecInt2000's customary order.
func Names() []string {
	names := make([]string, 0, len(specParams))
	for n := range specParams {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// BigNames returns the megabyte-scale tier's benchmark names.
func BigNames() []string {
	names := Names()
	for i := range names {
		names[i] += BigSuffix
	}
	return names
}

// UltraNames returns the sampling-scale tier's benchmark names.
func UltraNames() []string {
	names := Names()
	for i := range names {
		names[i] += UltraSuffix
	}
	return names
}

// ParamsFor returns the tuning for a named benchmark of any tier. An
// ultra tuning comes back with Epochs 0 — Spec sizes it by measurement.
func ParamsFor(name string) (Params, bool) {
	if p, ok := specParams[name]; ok {
		return p, true
	}
	if base, isBig := strings.CutSuffix(name, BigSuffix); isBig {
		if p, ok := specParams[base]; ok {
			return bigParams(p), true
		}
	}
	if base, isUltra := strings.CutSuffix(name, UltraSuffix); isUltra {
		if p, ok := specParams[base]; ok {
			return ultraParams(p), true
		}
	}
	return Params{}, false
}

// Spec generates a named SpecInt2000 stand-in ("gcc"), its
// megabyte-scale variant ("gcc.big"), or its sampling-scale variant
// ("gcc.ultra").
func Spec(name string) (*Benchmark, error) {
	p, ok := ParamsFor(name)
	if !ok {
		return nil, errUnknown(name)
	}
	if strings.HasSuffix(name, UltraSuffix) && p.Epochs == 0 {
		n, probe, err := ultraEpochs(p)
		if err != nil {
			return nil, err
		}
		// The image does not depend on Epochs: keep the probe's frozen
		// image and rebuild only the program.
		p = probe.Params
		p.Epochs = n
		prog, err := p.program()
		if err != nil {
			return nil, err
		}
		return &Benchmark{Params: p, Program: prog, image: probe.image}, nil
	}
	return Generate(p)
}

type errUnknown string

func (e errUnknown) Error() string { return "workload: unknown benchmark " + string(e) }

// Hammock returns the paper's Figure 1 kernel over n elements with the
// given fraction of zero elements (which steers the hard branch),
// suitable for examples and focused tests.
func Hammock(n int, zeroFrac float64, seed int64) *Benchmark {
	words := 1
	for words < n {
		words <<= 1
	}
	return MustGenerate(Params{
		Name: "hammock", ArrayWords: words, Iters: 1 << 22,
		TakenBias: 1 - zeroFrac, Hammocks: 1, CIOps: 3, FillerOps: 0,
		Streams: 2, StoreEvery: 0, Seed: seed,
	})
}
