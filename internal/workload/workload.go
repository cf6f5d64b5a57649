// Package workload generates the synthetic benchmark programs that
// stand in for SpecInt2000 (see DESIGN.md's substitution table). Each of
// the twelve named generators emits a deterministic program + data image
// whose distributional properties (branch predictability, hammock
// density, strided-load mix, working-set size, pointer chasing, ILP)
// are tuned to give the qualitative per-program diversity the paper's
// figures report.
//
// The common shape is the paper's Figure 1 kernel, generalised: a loop
// over data arrays with one or more hard-to-predict hammocks whose
// re-convergent regions accumulate values loaded by strided loads —
// exactly the structure the control-independence mechanism targets —
// plus benchmark-specific filler (independent ILP chains, pointer
// chasing, stores).
package workload

import (
	"fmt"
	"math/rand"

	"civect/internal/asm"
	"civect/internal/isa"
	"civect/internal/mem"
)

// Params tunes one synthetic benchmark.
type Params struct {
	// Name labels the program (one of the SpecInt2000 names).
	Name string
	// ArrayWords is the per-stream working-set size in 64-bit words
	// (power of two; larger arrays stress the caches).
	ArrayWords int
	// Iters is the loop trip count; programs halt after Iters
	// iterations so the architectural-equivalence tests can run them to
	// completion. The harness additionally bounds committed
	// instructions.
	Iters int
	// TakenBias is the probability a hammock branch is taken; 0.5 is
	// maximally hard to predict, values near 0 or 1 are easy.
	TakenBias float64
	// Hammocks is the number of if-then-else hammocks per iteration.
	Hammocks int
	// CIOps is the number of control-independent accumulation
	// operations after each re-convergent point, each dependent on a
	// strided load (the vectorizable CI work).
	CIOps int
	// ArmOps is the number of control-dependent operations in each
	// hammock arm (work the mechanism can never reuse; 0 defaults
	// to 2).
	ArmOps int
	// ArmLoads places a self-advancing strided load inside the first
	// hammock's taken arm. Its consumers are control dependent, so the
	// CI mechanism never selects it — but the full dynamic
	// vectorization baseline (ModeVect) vectorizes it anyway, which is
	// the behavioural difference Figure 14 measures.
	ArmLoads int
	// FillerOps adds independent ALU chain operations per iteration
	// (control independent but not strided-load-dependent: they select
	// but do not reuse, Figure 5's gray fraction).
	FillerOps int
	// Gathers adds data-dependent (gather) loads per iteration whose
	// addresses derive from loaded values: table-lookup traffic the
	// stride predictor cannot capture. They consume cache ports and
	// are control independent without being vectorizable.
	Gathers int
	// Streams is the number of unit-stride load streams (wide-bus
	// fodder).
	Streams int
	// PointerChase adds an mcf-style dependent load chain over a
	// randomly linked array (cache-missy, not strided).
	PointerChase bool
	// StoreEvery emits a store each iteration when 1, every k-th
	// iteration pattern via data when k>1, none when 0.
	StoreEvery int
	// StoreIntoStream aims the store a few words ahead of stream 0's
	// read pointer instead of at the disjoint store region, so committed
	// stores occasionally land inside replica address ranges and
	// exercise the §2.4.3 coherence check.
	StoreIntoStream bool
	// Phases selects the megabyte-scale tier: when > 1 the generator
	// emits Phases distinct copies of the kernel ("phases"), each with
	// its own code labels and its own data block, chained sequentially
	// inside an outer epoch loop. Distinct phase code means distinct
	// PCs, so the static program grows past the L1 I-cache and the
	// strided-load population overflows the SRSMT/stride-predictor
	// capacity — the pressure real binaries exert that the ~3k-instr
	// base tier cannot. 0 or 1 keeps the classic single-phase shape.
	Phases int
	// Unroll replicates the loop body inside each phase's inner loop
	// (big tier only). 0 sizes it automatically so the whole program
	// exceeds bigStaticTarget static instructions.
	Unroll int
	// Epochs is the outer trip count over the phase sequence (big tier
	// only; 0 defaults to 1<<16). The program halts after Epochs
	// passes, so small values let tests run big programs to completion.
	Epochs int
	// Seed fixes the data image.
	Seed int64
}

// Benchmark couples a generated program with its initial memory image.
type Benchmark struct {
	Params  Params
	Program *isa.Program
	// image is the initial data image, frozen once generated so that
	// concurrent NewMem calls only ever read it.
	image *mem.Memory
}

// NewMem returns an independent copy of the benchmark's initial memory;
// each simulation run needs its own. The copy shares the image's pages
// until it writes them, so it costs the page table, not the image.
func (b *Benchmark) NewMem() *mem.Memory { return b.image.Clone() }

// Layout constants: stream arrays live at 1MB-spaced bases so distinct
// streams never alias; the pointer-chase array and store region follow.
const (
	streamBase  = 0x0010_0000
	streamSpace = 0x0010_0000
	chaseBase   = 0x0100_0000
	storeBase   = 0x0200_0000
)

// Big-tier layout: each phase owns a 2MB block of 16 slots of 128KB —
// slots 0..7 are stream arrays, slot 8 the arm-load array (mirroring
// the base tier's slot-8 convention), slot 15 the store region. Slot
// bases stay multiples of the ArrayWords*8 wrap mask, so the pointer
// arithmetic is identical to the base tier's.
const (
	bigBase        = 0x0800_0000
	bigStreamSpace = 0x0002_0000
	bigSlots       = 16
	bigArmSlot     = 8
	bigStoreSlot   = 15

	// bigStaticTarget is the static-instruction floor automatic Unroll
	// sizing aims for (comfortably above the 100k the big tier
	// promises; the L1 I-cache holds 16k instructions).
	bigStaticTarget = 112_000
	// bigDefaultEpochs keeps big programs effectively unbounded for the
	// harness (which cuts off on committed instructions) while still
	// structurally halting.
	bigDefaultEpochs = 1 << 16
)

// bigPhaseBase returns the data-block base address of a phase.
func bigPhaseBase(ph int) int { return bigBase + ph*bigSlots*bigStreamSpace }

// Register allocation within the generated programs.
const (
	rZero    = 0  // holds 0 throughout
	rPtr0    = 1  // stream pointers: r1, r2, r3...
	rCount   = 10 // loop counter
	rMask    = 11 // stream wrap mask
	rChase   = 12 // pointer-chase cursor
	rGBase   = 13 // gather table base
	rArmPtr  = 14 // arm-resident load pointer
	rEpoch   = 15 // outer epoch counter (big tier)
	rAccBase = 16 // CI accumulators r16..
	rArmVal  = 30 // arm-load value and its control-dependent accumulator
	rValBase = 32 // loaded values r32..
	rArm     = 44 // per-arm counters r44..
	rFill    = 48 // filler chain registers r48..
	rGather  = 56 // gathered values r56, r57
	rArmTmp  = 58 // arm-load pointer wrap scratch r58, r59
	rTmp     = 60
)

// Generate builds the benchmark for p.
func Generate(p Params) (*Benchmark, error) {
	if p.ArrayWords <= 0 || p.ArrayWords&(p.ArrayWords-1) != 0 {
		return nil, fmt.Errorf("workload %s: ArrayWords must be a positive power of two", p.Name)
	}
	if p.Streams < 1 || p.Streams > 8 {
		return nil, fmt.Errorf("workload %s: Streams out of range", p.Name)
	}
	if p.Hammocks < 1 || p.Hammocks > 4 {
		return nil, fmt.Errorf("workload %s: Hammocks out of range", p.Name)
	}
	if p.Phases > 1 {
		if p.Phases > 256 {
			return nil, fmt.Errorf("workload %s: Phases out of range", p.Name)
		}
		if p.ArrayWords*8 > bigStreamSpace/2 {
			return nil, fmt.Errorf("workload %s: ArrayWords too large for a big-tier slot", p.Name)
		}
		if p.Unroll == 0 {
			p.Unroll = p.sizedUnroll()
		}
		if p.Epochs == 0 {
			p.Epochs = bigDefaultEpochs
		}
	}

	// The program and the image share nothing: build the program on a
	// second goroutine while this one fills the image.
	var prog *isa.Program
	var err error
	built := make(chan struct{})
	go func() {
		defer close(built)
		prog, err = p.program()
	}()
	image := p.image()
	<-built
	if err != nil {
		return nil, err
	}
	return &Benchmark{Params: p, Program: prog, image: image}, nil
}

// image fills and freezes the benchmark's initial data image. It does
// not depend on Epochs or Unroll, only on the data layout and Seed.
// Each array is drawn into one reused buffer, in the order the words
// lie in memory, and stored with one bulk write.
func (p Params) image() *mem.Memory {
	rng := rand.New(rand.NewSource(p.Seed))
	image := mem.New()
	buf := make([]uint64, p.ArrayWords)

	// Stream 0 holds the branch-steering data (0/1 with TakenBias);
	// remaining streams hold values to accumulate. The big tier
	// repeats the layout once per phase, each phase in its own block.
	for ph := 0; ph < max(1, p.Phases); ph++ {
		streamAt, armAt := streamBase, streamBase+8*streamSpace
		space := streamSpace
		if p.Phases > 1 {
			streamAt, armAt = bigPhaseBase(ph), bigPhaseBase(ph)+bigArmSlot*bigStreamSpace
			space = bigStreamSpace
		}
		for i := range buf {
			buf[i] = b2u(rng.Float64() < p.TakenBias)
		}
		image.WriteWords(uint64(streamAt), buf)
		for s := 1; s < p.Streams; s++ {
			for i := range buf {
				buf[i] = uint64(rng.Int63n(1 << 20))
			}
			image.WriteWords(uint64(streamAt+s*space), buf)
		}
		if p.ArmLoads > 0 {
			for i := range buf {
				buf[i] = uint64(rng.Int63n(1 << 16))
			}
			image.WriteWords(uint64(armAt), buf)
		}
	}
	if p.PointerChase {
		// A random permutation cycle over the chase array: each word
		// holds the address of the next element, so the successor
		// table is the array itself.
		perm := rng.Perm(len(buf))
		for i, from := range perm {
			buf[from] = uint64(chaseBase + perm[(i+1)%len(perm)]*8)
		}
		image.WriteWords(chaseBase, buf)
	}
	image.Freeze()
	return image
}

// MustGenerate is Generate that panics on error (parameter tables are
// compile-time constants).
func MustGenerate(p Params) *Benchmark {
	b, err := Generate(p)
	if err != nil {
		panic(err)
	}
	return b
}

// bodyLayout parameterizes one copy of the loop body: the data-block
// addresses it embeds as immediates. The base tier builds one copy over
// the classic layout; the big tier builds Phases×Unroll copies, each
// phase over its own block.
type bodyLayout struct {
	streamBase func(s int) int
	armBase    int
	storeDisp  int
}

func baseLayout() bodyLayout {
	return bodyLayout{
		streamBase: func(s int) int { return streamBase + s*streamSpace },
		armBase:    streamBase + 8*streamSpace,
		storeDisp:  storeBase - streamBase,
	}
}

func bigLayout(ph int) bodyLayout {
	base := bigPhaseBase(ph)
	return bodyLayout{
		streamBase: func(s int) int { return base + s*bigStreamSpace },
		armBase:    base + bigArmSlot*bigStreamSpace,
		storeDisp:  bigStoreSlot * bigStreamSpace,
	}
}

// program builds the benchmark's code.
func (p Params) program() (*isa.Program, error) {
	var b asm.Builder
	if p.Phases > 1 {
		p.buildBig(&b)
	} else {
		p.buildBase(&b)
	}
	prog, err := b.Program(p.Name)
	if err != nil {
		return nil, fmt.Errorf("workload %s: %v", p.Name, err)
	}
	return prog, nil
}

// buildBase builds the classic single-phase shape: set-up, one loop of
// one body copy, halt.
func (p Params) buildBase(b *asm.Builder) {
	b.MovI(rCount, int64(p.Iters))
	b.MovI(rMask, int64(p.ArrayWords*8-1))
	for s := 0; s < p.Streams; s++ {
		b.MovI(isa.Reg(rPtr0+s), int64(streamBase+s*streamSpace))
	}
	if p.PointerChase {
		b.MovI(rChase, chaseBase)
	}
	if p.Gathers > 0 {
		b.MovI(rGBase, streamBase)
	}
	if p.ArmLoads > 0 {
		b.MovI(rArmPtr, streamBase+8*streamSpace)
	}
	loop := b.NewLabel()
	b.Bind(loop)
	p.emitBody(b, baseLayout())
	b.OpI(isa.OpSubI, rCount, rCount, 1)
	b.Branch(isa.OpBNEZ, rCount, loop)
	b.Halt()
}

// buildBig builds the megabyte-scale tier: an outer epoch loop over
// Phases distinct copies of the kernel, each phase an inner loop of
// Unroll body copies over its own 2MB data block. The multi-level
// structure (epoch loop → per-phase loops → unrolled hammock bodies)
// stands in for the call trees of real binaries — the ISA has direct
// branches only, so "calls" are fully inlined phase bodies.
func (p Params) buildBig(b *asm.Builder) {
	// The labels: the epoch loop's, each phase loop's, and per body
	// copy two a hammock (its else arm and its join).
	b.Grow(p.bigLen(), 1+p.Phases*(1+p.Unroll*2*p.Hammocks))
	b.MovI(rEpoch, int64(p.Epochs))
	b.MovI(rMask, int64(p.ArrayWords*8-1))
	if p.PointerChase {
		b.MovI(rChase, chaseBase)
	}
	// Pad even-length body copies to an odd instruction count: the MBS,
	// stride and SRSMT tables are set-indexed by PC, and identical-length
	// copies whose length shares a factor with the power-of-two set
	// counts would alias the same few sets, starving the predictors in a
	// way no real instruction mix does.
	pad := p.bodyLen()%2 == 0
	epoch := b.NewLabel()
	b.Bind(epoch)
	for ph := 0; ph < p.Phases; ph++ {
		lay := bigLayout(ph)
		b.MovI(rCount, int64(p.Iters))
		for s := 0; s < p.Streams; s++ {
			b.MovI(isa.Reg(rPtr0+s), int64(lay.streamBase(s)))
		}
		if p.Gathers > 0 {
			b.MovI(rGBase, int64(lay.streamBase(0)))
		}
		if p.ArmLoads > 0 {
			b.MovI(rArmPtr, int64(lay.armBase))
		}
		loop := b.NewLabel()
		b.Bind(loop)
		for u := 0; u < p.Unroll; u++ {
			p.emitBody(b, lay)
			if pad {
				b.Nop()
			}
		}
		b.OpI(isa.OpSubI, rCount, rCount, 1)
		b.Branch(isa.OpBNEZ, rCount, loop)
	}
	b.OpI(isa.OpSubI, rEpoch, rEpoch, 1)
	b.Branch(isa.OpBNEZ, rEpoch, epoch)
	b.Halt()
}

// bodyLen returns the instruction count of one body copy, read off a
// throwaway build of it (every copy has the same length; only its
// immediates depend on the layout).
func (p Params) bodyLen() int {
	var b asm.Builder
	p.emitBody(&b, bigLayout(0))
	return b.Len()
}

// paddedBodyLen returns the instruction count of one body copy with the
// nop pad buildBig adds to an even-length body.
func (p Params) paddedBodyLen() int {
	return p.bodyLen() | 1
}

// bigLen returns the exact instruction count buildBig emits, so the
// build reserves its code once and Program takes it without a copy.
// It mirrors buildBig: the set-up, then per phase the pointer set-up,
// the unrolled copies and the loop branch, then the epoch branch and
// the halt.
func (p Params) bigLen() int {
	setup := 2 // epoch count, mask
	if p.PointerChase {
		setup++
	}
	phase := 1 + p.Streams + 2 // count, stream pointers; the loop's subi, bnez
	if p.Gathers > 0 {
		phase++
	}
	if p.ArmLoads > 0 {
		phase++
	}
	return setup + p.Phases*(phase+p.Unroll*p.paddedBodyLen()) + 3
}

// sizedUnroll picks the body replication factor that pushes the big
// tier past bigStaticTarget static instructions.
func (p Params) sizedUnroll() int {
	per := p.Phases * p.paddedBodyLen()
	return (bigStaticTarget + per - 1) / per
}

// emitBody builds one copy of the per-iteration loop body over lay:
// strided loads, hammocks with their control-independent regions,
// gathers, filler ILP, stores, and the stream-pointer advances. Each
// copy allocates its own labels.
func (p Params) emitBody(b *asm.Builder, lay bodyLayout) {
	// Strided loads, one per stream.
	for s := 0; s < p.Streams; s++ {
		b.Ld(isa.Reg(rValBase+s), isa.Reg(rPtr0+s), 0)
	}
	if p.PointerChase {
		b.Ld(rChase, rChase, 0) // dependent chain
	}

	// Hammocks: branch on the steering word (stream 0), perturbed per
	// hammock so multiple hammocks do not alias perfectly.
	for h := 0; h < p.Hammocks; h++ {
		var cond isa.Reg = rValBase // steering value
		if h > 0 {
			// Derive a different condition from the same data.
			b.OpI(isa.OpShrI, rTmp, isa.Reg(rValBase+(h%p.Streams)), int64(h))
			b.Op3(isa.OpAnd, rTmp, rTmp, rValBase)
			cond = rTmp
		}
		armOps := p.ArmOps
		if armOps <= 0 {
			armOps = 2
		}
		els, join := b.NewLabel(), b.NewLabel()
		b.Branch(isa.OpBNEZ, cond, els)
		// then arm: control-dependent writes (never reusable).
		if h == 0 && p.ArmLoads > 0 {
			// A strided load living inside the arm: perfectly strided
			// on its own dynamic instances, consumed only here.
			b.Ld(rArmVal, rArmPtr, 0)
			b.OpI(isa.OpAddI, rArmPtr, rArmPtr, 8)
			b.Op3(isa.OpAnd, rArmTmp, rArmPtr, rMask)
			b.MovI(rArmTmp+1, int64(lay.armBase))
			b.Op3(isa.OpAdd, rArmPtr, rArmTmp+1, rArmTmp)
			b.Op3(isa.OpAdd, rArmVal+1, rArmVal+1, rArmVal)
		}
		for a := 0; a < armOps; a++ {
			r := isa.Reg(rArm + a%3)
			switch a % 3 {
			case 0:
				b.OpI(isa.OpAddI, r, r, 1)
			case 1:
				b.Op3(isa.OpXor, r, r, rValBase)
			case 2:
				b.Op3(isa.OpAdd, r, r, rArm)
			}
		}
		b.Jmp(join)
		b.Bind(els)
		// else arm, slightly lighter.
		for a := 0; a < (armOps+1)/2; a++ {
			r := isa.Reg(rArm + 3 + a%2)
			b.OpI(isa.OpSubI, r, r, int64(a+1))
		}
		b.Bind(join)
		// Control-independent region: accumulate strided-load values.
		for c := 0; c < p.CIOps; c++ {
			val := isa.Reg(rValBase + 1 + (c % max(1, p.Streams-1)))
			if p.Streams == 1 {
				val = rValBase
			}
			acc := isa.Reg(rAccBase + (h*p.CIOps+c)%12)
			op := isa.OpAdd
			if c%3 == 1 {
				op = isa.OpXor
			}
			b.Op3(op, acc, acc, val)
		}
	}

	// Gather loads: address = streamBase + (value & mask); the index
	// register is data-dependent, so the access pattern is irregular.
	for g := 0; g < p.Gathers; g++ {
		val := isa.Reg(rValBase + g%p.Streams)
		b.Op3(isa.OpAnd, rTmp+3, val, rMask)
		b.Op3(isa.OpAdd, rTmp+3, rTmp+3, rGBase)
		b.Ld(isa.Reg(rGather+g%2), rTmp+3, 0)
		b.Op3(isa.OpAdd, isa.Reg(rAccBase+12+g%2), isa.Reg(rAccBase+12+g%2), isa.Reg(rGather+g%2))
	}

	// Filler ILP: independent chains not fed by loads.
	for f := 0; f < p.FillerOps; f++ {
		ra := isa.Reg(rFill + f%8)
		rb := isa.Reg(rFill + (f+3)%8)
		switch f % 4 {
		case 0:
			b.OpI(isa.OpAddI, ra, ra, int64(f+1))
		case 1:
			b.Op3(isa.OpXor, ra, ra, rb)
		case 2:
			b.Op3(isa.OpAdd, ra, ra, rb)
		case 3:
			b.OpI(isa.OpShlI, ra, ra, 1)
		}
	}

	// Stores. The regular store goes to the disjoint store region;
	// StoreEvery > 1 (a power of two) gates it to every k-th iteration.
	if p.StoreEvery == 1 {
		b.St(rAccBase, rPtr0, int64(lay.storeDisp))
	} else if p.StoreEvery > 1 {
		skip := b.NewLabel()
		b.MovI(rTmp+1, int64(p.StoreEvery-1))
		b.Op3(isa.OpAnd, rTmp, rCount, rTmp+1)
		b.Branch(isa.OpBNEZ, rTmp, skip)
		b.St(rAccBase, rPtr0, int64(lay.storeDisp))
		b.Bind(skip)
	}
	if p.StoreIntoStream && p.Streams > 1 {
		// Every 64th iteration, additionally store three words ahead of
		// a value stream's read pointer — inside the window its replica
		// batch is prefetching, which trips the §2.4.3 coherence check
		// for a small fraction of stores.
		skip := b.NewLabel()
		b.MovI(rTmp+1, 63)
		b.Op3(isa.OpAnd, rTmp, rCount, rTmp+1)
		b.Branch(isa.OpBNEZ, rTmp, skip)
		b.St(rAccBase, rPtr0+1, 24)
		b.Bind(skip)
	}

	// Advance the stream pointers (unit stride, wrapped to the array).
	for s := 0; s < p.Streams; s++ {
		b.OpI(isa.OpAddI, isa.Reg(rPtr0+s), isa.Reg(rPtr0+s), 8)
		b.Op3(isa.OpAnd, rTmp+1, isa.Reg(rPtr0+s), rMask)
		b.MovI(rTmp+2, int64(lay.streamBase(s)))
		b.Op3(isa.OpAdd, isa.Reg(rPtr0+s), rTmp+2, rTmp+1)
	}
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}

// b2u returns 1 for true and 0 for false.
func b2u(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}
