package workload

import (
	"fmt"
	"math/rand"

	"civect/internal/asm"
	"civect/internal/isa"
	"civect/internal/mem"
)

// SpecWithIters generates a named benchmark with a custom loop trip
// count (tests run small instances to completion; the harness keeps the
// long default and bounds committed instructions instead).
func SpecWithIters(name string, iters int) (*Benchmark, error) {
	p, ok := ParamsFor(name)
	if !ok {
		return nil, errUnknown(name)
	}
	p.Iters = iters
	return Generate(p)
}

// Random generates a random, guaranteed-halting program plus data image
// for property-based testing: a counted loop whose body mixes random
// arithmetic over a register pool, loads and stores within a bounded
// region, and hammocks steered by loaded data. The loop counter
// register is never touched by the random body, so termination is
// structural.
func Random(seed int64) *Benchmark {
	rng := rand.New(rand.NewSource(seed))
	const (
		poolLo, poolHi = 16, 31 // registers the random body may write
		dataWords      = 1 << 8
		dataBase       = 0x4000
	)
	iters := 8 + rng.Intn(48)
	bodyOps := 4 + rng.Intn(24)

	data := make([]uint64, dataWords)
	for i := range data {
		data[i] = uint64(rng.Int63n(1 << 16))
	}
	image := mem.New()
	image.WriteWords(dataBase, data)

	reg := func() isa.Reg { return isa.Reg(poolLo + rng.Intn(poolHi-poolLo+1)) }
	alu := [...]isa.Op{isa.OpAdd, isa.OpSub, isa.OpXor, isa.OpOr, isa.OpAnd}

	var b asm.Builder
	b.MovI(1, int64(iters))         // loop counter (reserved)
	b.MovI(2, dataBase)             // data base (reserved)
	b.MovI(3, int64(dataWords*8-1)) // offset mask (reserved)
	for r := poolLo; r <= poolHi; r++ {
		if rng.Intn(2) == 0 {
			b.MovI(isa.Reg(r), rng.Int63n(1000)-500)
		}
	}
	loop := b.NewLabel()
	b.Bind(loop)
	for i := 0; i < bodyOps; i++ {
		switch rng.Intn(10) {
		case 0, 1: // load: address = base + (reg & mask)
			a, d := reg(), reg()
			b.Op3(isa.OpAnd, 4, a, 3)
			b.Op3(isa.OpAdd, 4, 4, 2)
			b.Ld(d, 4, 0)
		case 2: // store
			a, s := reg(), reg()
			b.Op3(isa.OpAnd, 4, a, 3)
			b.Op3(isa.OpAdd, 4, 4, 2)
			b.St(s, 4, 0)
		case 3: // hammock
			c := reg()
			thenR, elseR := reg(), reg()
			els, join := b.NewLabel(), b.NewLabel()
			b.Branch(isa.OpBNEZ, c, els)
			b.OpI(isa.OpAddI, thenR, thenR, int64(rng.Intn(9)+1))
			b.Jmp(join)
			b.Bind(els)
			b.OpI(isa.OpSubI, elseR, elseR, int64(rng.Intn(9)+1))
			b.Bind(join)
		case 4:
			d, a := reg(), reg()
			b.Op3(isa.OpMul, d, a, reg())
		case 5:
			d, a := reg(), reg()
			b.Op3(isa.OpDiv, d, a, reg())
		case 6:
			d, a := reg(), reg()
			b.Op3(isa.OpSLT, d, a, reg())
		case 7:
			d, a := reg(), reg()
			b.OpI(isa.OpShrI, d, a, int64(rng.Intn(8)))
		default:
			d, a := reg(), reg()
			op := alu[rng.Intn(len(alu))]
			b.Op3(op, d, a, reg())
		}
	}
	b.OpI(isa.OpSubI, 1, 1, 1)
	b.Branch(isa.OpBNEZ, 1, loop)
	b.Halt()

	prog, err := b.Program(fmt.Sprintf("random-%d", seed))
	if err != nil {
		panic(fmt.Sprintf("workload: random program invalid: %v", err))
	}
	image.Freeze()
	return &Benchmark{
		Params:  Params{Name: prog.Name, Iters: iters, Seed: seed},
		Program: prog,
		image:   image,
	}
}
