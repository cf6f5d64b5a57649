package sim

import (
	"sync"

	"civect/internal/asm"
	"civect/internal/ci"
	"civect/internal/emu"
	"civect/internal/isa"
	"civect/internal/mem"
	"civect/internal/workload"
)

// Workload is a program plus its initial data image, ready to be
// simulated by any number of sessions (each gets a fresh copy of the
// image). Obtain one from the registry (Load), the Figure 1 generator
// (Hammock), or your own assembly source (Custom).
type Workload struct {
	name string
	prog *isa.Program
	// base is the workload's private, mutable image (Custom workloads,
	// or registry loads after a SetWord copy-on-write).
	base *mem.Memory
	// bench backs registry workloads: the shared generated benchmark
	// whose pristine image every session clones.
	bench *workload.Benchmark
}

// Registry loads are memoized: generating a megabyte-tier benchmark is
// expensive and deterministic, so concurrent sweeps share one
// generated program + pristine image per name. The mutex guards only
// the map; generation runs under a per-name Once, so distinct
// workloads generate concurrently and cache hits never block behind an
// in-progress generation.
type loadEntry struct {
	once sync.Once
	b    *workload.Benchmark
	err  error
}

var (
	loadMu sync.Mutex
	loaded = map[string]*loadEntry{}
)

// Workloads returns every registry workload name: the twelve
// SpecInt2000 stand-ins followed by their megabyte-scale .big
// variants and their sampling-scale .ultra variants.
func Workloads() []string {
	names := append(BaseWorkloads(), BigWorkloads()...)
	return append(names, UltraWorkloads()...)
}

// BaseWorkloads returns the base-tier registry names (the twelve
// ~3k-static-instruction SpecInt2000 stand-ins).
func BaseWorkloads() []string { return workload.Names() }

// BigWorkloads returns the megabyte-scale tier's registry names
// ("gcc.big", ...): 100k+-static-instruction multi-phase variants with
// multi-MB working sets.
func BigWorkloads() []string { return workload.BigNames() }

// UltraWorkloads returns the sampling-scale tier's registry names
// ("gcc.ultra", ...): big-tier structure with the outer epoch loop
// sized past 10^7 dynamic instructions — workloads only the sampled
// path affords end-to-end in detail.
func UltraWorkloads() []string { return workload.UltraNames() }

// Load returns the named registry workload ("gcc", "mcf.big", ...).
// Loads are memoized — generation is deterministic — and the returned
// workload is safe to share across concurrent sessions.
func Load(name string) (*Workload, error) {
	loadMu.Lock()
	e, ok := loaded[name]
	if !ok {
		e = &loadEntry{}
		loaded[name] = e
	}
	loadMu.Unlock()
	e.once.Do(func() { e.b, e.err = workload.Spec(name) })
	if e.err != nil {
		return nil, e.err
	}
	return &Workload{name: name, prog: e.b.Program, bench: e.b}, nil
}

// LoadWithIters returns the named registry workload regenerated with
// the given loop trip count — steady-state slicing (warm up, then time
// a fixed window of cycles) needs a program that will not halt inside
// the measured slice. Not memoized.
func LoadWithIters(name string, iters int) (*Workload, error) {
	b, err := workload.SpecWithIters(name, iters)
	if err != nil {
		return nil, err
	}
	return &Workload{name: name, prog: b.Program, bench: b}, nil
}

// Hammock generates the paper's Figure 1 kernel over n elements with
// the given fraction of zero elements steering the hard branch —
// the minimal workload the mechanism targets, for examples and focused
// experiments.
func Hammock(n int, zeroFrac float64, seed int64) *Workload {
	b := workload.Hammock(n, zeroFrac, seed)
	return &Workload{name: "hammock", prog: b.Program, bench: b}
}

// Custom assembles source (the civect assembly dialect) into a
// workload with an empty data image; populate it with SetWord. The
// name labels assembler errors and results.
func Custom(name, source string) (*Workload, error) {
	prog, err := asm.Assemble(name, source)
	if err != nil {
		return nil, err
	}
	return &Workload{name: name, prog: prog, base: mem.New()}, nil
}

// Name returns the workload's name.
func (w *Workload) Name() string { return w.name }

// SetWord sets one 64-bit word of the workload's initial memory image,
// affecting every session built afterwards. Registry workloads
// copy-on-write their shared pristine image first, so mutating one
// never leaks into other Load calls.
func (w *Workload) SetWord(addr, value uint64) {
	if w.base == nil {
		if w.bench != nil {
			w.base = w.bench.NewMem()
		} else {
			w.base = mem.New()
		}
		w.bench = nil
	}
	w.base.Write64(addr, value)
}

// imageKey identifies the program and initial data image a session
// over a workload starts from; a Set coalesces points on it.
type imageKey struct {
	prog  *isa.Program
	base  *mem.Memory
	bench *workload.Benchmark
}

// imageKey returns w's program and image identity. Two Load calls of
// one name share the generated program and pristine image, so their
// keys are equal; a Custom workload, or one changed by SetWord, owns a
// private image and so a key of its own.
func (w *Workload) imageKey() imageKey { return imageKey{w.prog, w.base, w.bench} }

// newMem returns a fresh copy of the initial data image for one
// session.
func (w *Workload) newMem() *mem.Memory {
	if w.base != nil {
		return w.base.Clone()
	}
	return w.bench.NewMem()
}

// Disassemble renders the workload's program as assembly text.
func (w *Workload) Disassemble() string { return w.prog.Disassemble() }

// Len returns the program's static instruction count.
func (w *Workload) Len() int { return w.prog.Len() }

// Reconvergence describes one conditional branch and its estimated
// re-convergent point per the §2.3.1 hardware heuristics.
type Reconvergence struct {
	// BranchPC is the conditional branch's static PC.
	BranchPC int
	// JoinPC is the estimated re-convergent PC.
	JoinPC int
	// Kind classifies the branch structure: "if-then",
	// "if-then-else", or "loop (backward)".
	Kind string
}

// Reconvergences estimates the re-convergent point of every
// conditional branch in the workload, as the mechanism's
// re-convergence detection hardware would (§2.3.1).
func (w *Workload) Reconvergences() []Reconvergence {
	var rcs []Reconvergence
	for pc, in := range w.prog.Code {
		if !in.IsCondBranch() {
			continue
		}
		kind := "if-then"
		if in.Target <= pc {
			kind = "loop (backward)"
		} else if above := w.prog.At(in.Target - 1); above.IsJump() && above.Target > in.Target-1 {
			kind = "if-then-else"
		}
		rcs = append(rcs, Reconvergence{
			BranchPC: pc,
			JoinPC:   ci.EstimateReconvergence(w.prog, pc),
			Kind:     kind,
		})
	}
	return rcs
}

// Arch is the architectural (functional) outcome of a workload: the
// golden reference every timing-simulated mode must commit exactly.
type Arch struct {
	// Regs is the final architectural register file.
	Regs [NumLogical]uint64
	// Executed counts architecturally executed instructions.
	Executed uint64
}

// Emulate runs the workload's program on the architectural emulator —
// no timing model, one instruction at a time — over a fresh copy of
// its data image. maxInstr bounds execution (0 = run to halt); an
// exhausted budget is an error.
func (w *Workload) Emulate(maxInstr uint64) (*Arch, error) {
	cpu := emu.New(w.newMem())
	if err := cpu.Run(w.prog, maxInstr); err != nil {
		return nil, err
	}
	return &Arch{Regs: cpu.Regs, Executed: cpu.Executed}, nil
}

// HardwareCost renders the §3.1 storage accounting of the mechanism's
// hardware structures at their Table 1 geometry.
func HardwareCost() string {
	return ci.HardwareCost(ci.DefaultCostConfig()).String()
}
