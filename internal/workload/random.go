package workload

import (
	"fmt"
	"math/rand"

	"civect/internal/asm"
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

	image := mem.New()
	for i := 0; i < dataWords; i++ {
		image.Write64(uint64(dataBase+i*8), uint64(rng.Int63n(1<<16)))
	}

	reg := func() int { return poolLo + rng.Intn(poolHi-poolLo+1) }

	var b []string
	emit := func(format string, args ...any) { b = append(b, fmt.Sprintf(format, args...)) }

	emit("        movi r1, %d", iters)         // loop counter (reserved)
	emit("        movi r2, %d", dataBase)      // data base (reserved)
	emit("        movi r3, %d", dataWords*8-1) // offset mask (reserved)
	for r := poolLo; r <= poolHi; r++ {
		if rng.Intn(2) == 0 {
			emit("        movi r%d, %d", r, rng.Int63n(1000)-500)
		}
	}
	emit("loop:")
	hammocks := 0
	for i := 0; i < bodyOps; i++ {
		switch rng.Intn(10) {
		case 0, 1: // load: address = base + (reg & mask)
			a, d := reg(), reg()
			emit("        and  r4, r%d, r3", a)
			emit("        add  r4, r4, r2")
			emit("        ld   r%d, 0(r4)", d)
		case 2: // store
			a, s := reg(), reg()
			emit("        and  r4, r%d, r3", a)
			emit("        add  r4, r4, r2")
			emit("        st   r%d, 0(r4)", s)
		case 3: // hammock
			c := reg()
			h := hammocks
			hammocks++
			thenR, elseR := reg(), reg()
			emit("        bnez r%d, rh%de", c, h)
			emit("        addi r%d, r%d, %d", thenR, thenR, rng.Intn(9)+1)
			emit("        jmp  rh%dj", h)
			emit("rh%de:", h)
			emit("        subi r%d, r%d, %d", elseR, elseR, rng.Intn(9)+1)
			emit("rh%dj:", h)
		case 4:
			d, a := reg(), reg()
			emit("        mul  r%d, r%d, r%d", d, a, reg())
		case 5:
			d, a := reg(), reg()
			emit("        div  r%d, r%d, r%d", d, a, reg())
		case 6:
			d, a := reg(), reg()
			emit("        slt  r%d, r%d, r%d", d, a, reg())
		case 7:
			d, a := reg(), reg()
			emit("        shri r%d, r%d, %d", d, a, rng.Intn(8))
		default:
			d, a := reg(), reg()
			ops := []string{"add", "sub", "xor", "or", "and"}
			emit("        %s  r%d, r%d, r%d", ops[rng.Intn(len(ops))], d, a, reg())
		}
	}
	emit("        subi r1, r1, 1")
	emit("        bnez r1, loop")
	emit("        halt")

	src := ""
	for _, line := range b {
		src += line + "\n"
	}
	prog, err := asm.Assemble(fmt.Sprintf("random-%d", seed), src)
	if err != nil {
		panic(fmt.Sprintf("workload: random program invalid: %v\n%s", err, src))
	}
	image.Freeze()
	return &Benchmark{
		Params:  Params{Name: prog.Name, Iters: iters, Seed: seed},
		Program: prog,
		image:   image,
	}
}
