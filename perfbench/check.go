package main

import (
	"errors"
	"fmt"
	"hash/fnv"
	"time"

	"civect/internal/core"
	"civect/internal/emu"
	"civect/internal/isa"
	"civect/internal/mem"
)

// checker counts attempted and failed ops. A failed check marks its op
// failed and the run goes on; fail_frac and the result line's failed
// count report it.
type checker struct {
	attempted, failed int
	failures          []string // the first few, for the report

	stats   map[int]core.Stats
	digests map[int]uint64
}

const keepFailures = 8

// count records one op whose checks returned err.
func (c *checker) count(what string, err error) {
	c.attempted++
	if err == nil {
		return
	}
	c.failed++
	if len(c.failures) < keepFailures {
		c.failures = append(c.failures, fmt.Sprintf("%s: %v", what, err))
	}
}

// sameStats checks that a cell's full statistics repeat bit-identically:
// the first call per cell records them, later calls compare. It
// reports whether this was the cell's first run.
func (c *checker) sameStats(cell int, st core.Stats) (first bool, err error) {
	if c.stats == nil {
		c.stats = map[int]core.Stats{}
	}
	ref, seen := c.stats[cell]
	if !seen {
		c.stats[cell] = st
		return true, nil
	}
	if ref != st {
		return false, fmt.Errorf("stats differ from the cell's first run (committed %d vs %d, cycles %d vs %d)",
			st.Committed, ref.Committed, st.Cycles, ref.Cycles)
	}
	return false, nil
}

// sameDigest checks that a cell's output digest repeats exactly.
func (c *checker) sameDigest(cell int, d uint64) error {
	if c.digests == nil {
		c.digests = map[int]uint64{}
	}
	ref, seen := c.digests[cell]
	if !seen {
		c.digests[cell] = d
		return nil
	}
	if ref != d {
		return fmt.Errorf("output digest %016x differs from the cell's first run %016x", d, ref)
	}
	return nil
}

// archState is what a detailed run leaves architecturally visible.
type archState struct {
	committed uint64
	halted    bool
	regs      [isa.NumLogical]uint64
	memSum    uint64
}

func archOf(p *core.Proc, st *core.Stats) archState {
	return archState{committed: st.Committed, halted: p.Halted(), regs: p.ARF(), memSum: p.Mem().Checksum()}
}

// checkArch runs the functional emulator over a fresh image to the same
// committed count and compares registers and memory. A run stopped by
// its budget expects the emulator to stop there with emu.ErrLimit; a
// halted run expects the emulator to halt after as many instructions.
// It returns the emulator's instruction count and run time.
func checkArch(prog *isa.Program, image *mem.Memory, got archState) (uint64, time.Duration, error) {
	cpu := emu.New(image)
	limit := got.committed
	if got.halted {
		limit = 0
	}
	t := time.Now()
	err := cpu.Run(prog, limit)
	d := time.Since(t)
	return cpu.Executed, d, compareArch(cpu, err, got)
}

func compareArch(cpu *emu.CPU, err error, got archState) error {
	switch {
	case got.halted && (err != nil || cpu.Executed != got.committed):
		return fmt.Errorf("detailed run halted after %d instructions, emulator after %d (%v)", got.committed, cpu.Executed, err)
	case !got.halted && !errors.Is(err, emu.ErrLimit):
		return fmt.Errorf("emulator stopped with %v, want %v at %d instructions", err, emu.ErrLimit, got.committed)
	}
	for i, v := range cpu.Regs {
		if got.regs[i] != v {
			return fmt.Errorf("r%d = %#x after %d instructions, emulator says %#x", i, got.regs[i], got.committed, v)
		}
	}
	if s := cpu.Mem.Checksum(); got.memSum != s {
		return fmt.Errorf("memory checksum %016x after %d instructions, emulator says %016x", got.memSum, got.committed, s)
	}
	return nil
}

// digest hashes output bytes.
func digest(parts ...[]byte) uint64 {
	h := fnv.New64a()
	for _, p := range parts {
		h.Write(p)
	}
	return h.Sum64()
}
