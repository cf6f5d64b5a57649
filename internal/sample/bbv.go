// Package sample implements checkpointed, SimPoint-style sampled
// simulation: a functional profiling pass splits a workload's dynamic
// instruction stream into fixed-size intervals and summarizes each as a
// basic-block vector (BBV); deterministic k-means clusters the
// intervals; one representative per cluster is then simulated in detail
// (functional fast-forward, detailed warmup, measured sample) and the
// per-cluster measurements are stitched into whole-run estimates with
// confidence intervals.
//
// Everything here is deterministic: profiling follows the emulator's
// instruction stream, clustering uses a fixed hash-seeded projection
// and index-ordered tie-breaking, and no map iteration reaches any
// output. Two runs of the same workload produce byte-identical plans
// and estimates.
package sample

import (
	"fmt"
	"math"
	"math/bits"

	"civect/internal/emu"
	"civect/internal/isa"
	"civect/internal/mem"
)

// Dims is the dimensionality BBVs are random-projected down to before
// clustering, as SimPoint does: the block population can reach tens of
// thousands, but interval similarity survives a ~16x-smaller sketch.
const Dims = 32

// Config tunes the profiling pass.
type Config struct {
	// IntervalLen is the interval size in dynamic instructions.
	IntervalLen uint64
	// MaxInstr bounds the profiled stream (0: run to halt).
	MaxInstr uint64
}

// Profile is the outcome of the profiling pass: one projected BBV per
// interval plus the stream geometry the plan needs.
type Profile struct {
	// IntervalLen is the interval size the profile was taken at.
	IntervalLen uint64
	// TotalInstr is the profiled dynamic instruction count.
	TotalInstr uint64
	// NumBlocks is the static basic-block population.
	NumBlocks int
	// Vectors holds one Dims-dimensional projected, length-normalized
	// BBV per interval. The last interval may cover fewer than
	// IntervalLen instructions (the stream remainder).
	Vectors [][Dims]float64
	// Lengths is each interval's dynamic instruction count.
	Lengths []uint64
}

// blockLeaders computes the static basic-block leader set: instruction
// 0, every branch/jump target, and every instruction following a
// branch, jump or halt. blockOf maps each PC to its block index.
func blockLeaders(prog *isa.Program) (blockOf []int, numBlocks int) {
	n := prog.Len()
	leader := make([]bool, n)
	if n > 0 {
		leader[0] = true
	}
	for pc := 0; pc < n; pc++ {
		in := prog.At(pc)
		if in.IsCondBranch() || in.IsJump() {
			if in.Target >= 0 && in.Target < n {
				leader[in.Target] = true
			}
			if pc+1 < n {
				leader[pc+1] = true
			}
		}
		if in.Op == isa.OpHalt && pc+1 < n {
			leader[pc+1] = true
		}
	}
	blockOf = make([]int, n)
	id := -1
	for pc := 0; pc < n; pc++ {
		if leader[pc] {
			id++
		}
		blockOf[pc] = id
	}
	return blockOf, id + 1
}

// splitmix64 is the deterministic hash behind the projection matrix.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// signMask returns block b's projection signs as a bit mask over the
// Dims dimensions: bit d set means the block's weight on dimension d is
// -1, clear means +1. (Dims fits a uint64.)
func signMask(b int) uint64 {
	var m uint64
	for d := 0; d < Dims; d++ {
		m |= (splitmix64(uint64(b)<<32|uint64(d)) & 1) << d
	}
	return m
}

// profiler accumulates the current interval's raw block counts and
// flushes them as projected vectors at each boundary. A *profiler is
// Collect's emu.Walk observer.
type profiler struct {
	blockOf []int
	counts  []uint64 // raw instr-weighted block counts, current interval
	touched []uint64 // bitset of the blocks counts holds non-zero
	signs   []uint64 // per-block projection sign masks (signMask)
}

// newProfiler builds a profiler over prog's basic blocks.
func newProfiler(prog *isa.Program) *profiler {
	blockOf, numBlocks := blockLeaders(prog)
	pr := &profiler{
		blockOf: blockOf,
		counts:  make([]uint64, numBlocks),
		touched: make([]uint64, (numBlocks+63)/64),
		signs:   make([]uint64, numBlocks),
	}
	for b := range pr.signs {
		pr.signs[b] = signMask(b)
	}
	return pr
}

// Observe counts one executed instruction against its block.
//
//civet:hotpath
func (pr *profiler) Observe(pc int, _ isa.Instr, _, _ uint64, _ bool) {
	b := pr.blockOf[pc]
	pr.counts[b]++
	pr.touched[b>>6] |= 1 << (b & 63)
}

// flush projects the current interval's counts over n instructions
// into one length-normalized vector and clears them. Touched blocks are
// visited in ascending order, so every dimension sums in the same order
// as a scan over all blocks would, and adding w with its sign bit
// flipped is exactly adding w times a -1 weight: the vectors are
// bit-identical to the dense projection.
//
//civet:hotpath
func (pr *profiler) flush(n uint64) [Dims]float64 {
	var v [Dims]float64
	norm := 1 / float64(n)
	for i, word := range pr.touched {
		for word != 0 {
			b := i<<6 | bits.TrailingZeros64(word)
			word &= word - 1
			w := math.Float64bits(float64(pr.counts[b]) * norm)
			m := pr.signs[b]
			for d := range v {
				v[d] += math.Float64frombits(w ^ (m>>d&1)<<63)
			}
			pr.counts[b] = 0
		}
		pr.touched[i] = 0
	}
	return v
}

// Collect runs the functional emulator over the workload and returns
// per-interval projected BBVs. image is cloned, never mutated.
func Collect(prog *isa.Program, image *mem.Memory, cfg Config) (*Profile, error) {
	if cfg.IntervalLen == 0 {
		return nil, fmt.Errorf("sample: interval length must be positive")
	}
	pr := newProfiler(prog)
	out := &Profile{IntervalLen: cfg.IntervalLen, NumBlocks: len(pr.counts)}
	var m *mem.Memory
	if image != nil {
		m = image.Clone()
	}
	cpu := emu.New(m)
	// Walk one interval at a time: intervals start at multiples of
	// IntervalLen, and the last one ends at the halt or at MaxInstr.
	for !cpu.Halted && (cfg.MaxInstr == 0 || cpu.Executed < cfg.MaxInstr) {
		start := cpu.Executed
		end := start + cfg.IntervalLen
		if cfg.MaxInstr > 0 && end > cfg.MaxInstr {
			end = cfg.MaxInstr
		}
		// Walk fails only with ErrLimit, which is the interval's end.
		_ = emu.Walk(cpu, prog, end, pr)
		n := cpu.Executed - start
		out.Vectors = append(out.Vectors, pr.flush(n))
		out.Lengths = append(out.Lengths, n)
	}
	out.TotalInstr = cpu.Executed
	if len(out.Vectors) == 0 {
		return nil, fmt.Errorf("sample: workload executed no instructions")
	}
	return out, nil
}
