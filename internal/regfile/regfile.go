// Package regfile models the physical register file and the paper's
// speculative data memory (§2.4.6).
//
// File is a monolithic physical register file with a free list; the
// paper evaluates 128/256/512/768 registers and an unbounded file. It
// also records occupancy statistics, which back the §2.4.2 numbers
// (average registers in use with and without DAEC).
//
// SpecMem is the "small and cheap slow memory, similar to a hierarchical
// register file" that holds replica results: a fixed number of positions
// with two write ports from the functional units and two read ports
// toward the register file, twice slower than the register file.
package regfile

import "fmt"

// reg is one physical register. Value, readiness and allocation state
// live together so the hot Ready+Value pair costs one cache line, not
// two array walks.
type reg struct {
	val     uint64
	ready   bool
	alloced bool
}

// File is a physical register file with a free list. Size <= 0 means
// unbounded (the file grows on demand), matching the paper's "Inf"
// configurations.
type File struct {
	bounded bool
	regs    []reg
	free    []int

	inUse      int
	peak       int
	occSum     uint64
	occSamples uint64
}

// NewFile builds a file with n physical registers; n <= 0 is unbounded.
func NewFile(n int) *File {
	f := new(File)
	f.Reset(n)
	return f
}

// Reset re-initializes f in place as a file of n physical registers
// (n <= 0 is unbounded), all free and none sampled. A bounded file
// reuses its arrays when n is unchanged; an unbounded one keeps their
// capacity for its on-demand growth.
func (f *File) Reset(n int) {
	regs, free := f.regs[:0], f.free[:0]
	if n > 0 {
		if len(f.regs) == n {
			regs = f.regs
			clear(regs)
		} else {
			regs = make([]reg, n)
		}
		if cap(free) < n {
			free = make([]int, 0, n)
		}
		for i := n - 1; i >= 0; i-- {
			free = append(free, i) // pop from the end -> ascending order
		}
	}
	*f = File{bounded: n > 0, regs: regs, free: free}
}

// Size returns the capacity, or -1 for an unbounded file.
func (f *File) Size() int {
	if !f.bounded {
		return -1
	}
	return len(f.regs)
}

// Len returns the number of registers the file holds now: the capacity
// of a bounded file, the grown length of an unbounded one.
func (f *File) Len() int { return len(f.regs) }

// FreeCount returns how many registers are currently allocatable; it is
// unbounded files' current slack plus growth, so it returns a large
// number for them.
func (f *File) FreeCount() int {
	if !f.bounded {
		return 1 << 30
	}
	return len(f.free)
}

// Alloc takes a free register, marking it not-ready. ok is false when a
// bounded file is exhausted.
func (f *File) Alloc() (r int, ok bool) {
	if len(f.free) == 0 {
		if f.bounded {
			return 0, false
		}
		f.regs = append(f.regs, reg{})
		f.free = append(f.free, len(f.regs)-1)
	}
	r = f.free[len(f.free)-1]
	f.free = f.free[:len(f.free)-1]
	f.regs[r] = reg{alloced: true}
	f.inUse++
	if f.inUse > f.peak {
		f.peak = f.inUse
	}
	return r, true
}

// Release returns a register to the free list. Releasing a register that
// is not allocated is a simulator bug and panics.
func (f *File) Release(r int) {
	if !f.regs[r].alloced {
		panic(fmt.Sprintf("regfile: double free of p%d", r))
	}
	f.regs[r].alloced = false
	f.free = append(f.free, r)
	f.inUse--
}

// Write sets the value and marks the register ready.
func (f *File) Write(r int, val uint64) {
	f.regs[r].val = val
	f.regs[r].ready = true
}

// Value reads a register's value.
func (f *File) Value(r int) uint64 { return f.regs[r].val }

// Ready reports whether the register's value has been produced.
func (f *File) Ready(r int) bool { return f.regs[r].ready }

// Allocated reports whether the register is currently allocated.
func (f *File) Allocated(r int) bool { return r < len(f.regs) && f.regs[r].alloced }

// InUse returns the number of currently allocated registers.
func (f *File) InUse() int { return f.inUse }

// Peak returns the maximum simultaneous occupancy seen.
func (f *File) Peak() int { return f.peak }

// Sample records one occupancy sample (called once per simulated cycle).
func (f *File) Sample() {
	f.occSum += uint64(f.inUse)
	f.occSamples++
}

// SampleN records n occupancy samples at the current occupancy in one
// call — the batched catch-up a stall fast-forward uses for skipped
// cycles. With no allocation activity in between (which skipped cycles
// guarantee), it is bit-identical to n consecutive Sample calls.
func (f *File) SampleN(n uint64) {
	f.occSum += n * uint64(f.inUse)
	f.occSamples += n
}

// AvgInUse returns the mean occupancy across samples (§2.4.2's metric).
func (f *File) AvgInUse() float64 {
	if f.occSamples == 0 {
		return 0
	}
	return float64(f.occSum) / float64(f.occSamples)
}

// SpecMem models the speculative data memory: Size positions, two write
// ports from the functional units, two read ports to the register file,
// and an access latency (2 cycles in the paper; §3.2 also evaluates 5).
// Port budgets are per cycle, reset by BeginCycle.
type SpecMem struct {
	size    int
	latency int

	vals    []uint64
	ready   []bool
	alloced []bool
	free    []int
	inUse   int

	readPorts  int
	writePorts int
	readsUsed  int
	writesUsed int
}

// NewSpecMem builds a speculative data memory with n positions and the
// given access latency in cycles.
func NewSpecMem(n, latency int) *SpecMem {
	s := new(SpecMem)
	s.Reset(n, latency)
	return s
}

// Reset re-initializes s in place with n free positions and the given
// access latency, reusing its arrays when n is unchanged.
func (s *SpecMem) Reset(n, latency int) {
	if n <= 0 {
		panic("regfile: spec memory needs a positive size")
	}
	if latency <= 0 {
		latency = 2
	}
	vals, ready, alloced, free := s.vals, s.ready, s.alloced, s.free[:0]
	if len(vals) == n {
		clear(vals)
		clear(ready)
		clear(alloced)
	} else {
		vals, ready, alloced = make([]uint64, n), make([]bool, n), make([]bool, n)
	}
	if cap(free) < n {
		free = make([]int, 0, n)
	}
	for i := n - 1; i >= 0; i-- {
		free = append(free, i)
	}
	*s = SpecMem{
		size: n, latency: latency,
		vals: vals, ready: ready, alloced: alloced, free: free,
		readPorts: 2, writePorts: 2,
	}
}

// Size returns the number of positions.
func (s *SpecMem) Size() int { return s.size }

// Latency returns the access latency in cycles.
func (s *SpecMem) Latency() int { return s.latency }

// FreeCount returns the number of unallocated positions.
func (s *SpecMem) FreeCount() int { return len(s.free) }

// Allocated reports whether position pos is in use.
func (s *SpecMem) Allocated(pos int) bool { return s.alloced[pos] }

// InUse returns the number of allocated positions.
func (s *SpecMem) InUse() int { return s.inUse }

// BeginCycle resets the per-cycle port budgets.
func (s *SpecMem) BeginCycle() { s.readsUsed, s.writesUsed = 0, 0 }

// Alloc takes a free position (not a port operation).
func (s *SpecMem) Alloc() (pos int, ok bool) {
	if len(s.free) == 0 {
		return 0, false
	}
	pos = s.free[len(s.free)-1]
	s.free = s.free[:len(s.free)-1]
	s.alloced[pos] = true
	s.ready[pos] = false
	s.vals[pos] = 0
	s.inUse++
	return pos, true
}

// Release frees a position.
func (s *SpecMem) Release(pos int) {
	if !s.alloced[pos] {
		panic(fmt.Sprintf("regfile: double free of spec position %d", pos))
	}
	s.alloced[pos] = false
	s.free = append(s.free, pos)
	s.inUse--
}

// TryWrite attempts to use a write port this cycle to store val at pos;
// it returns false when both write ports are busy.
func (s *SpecMem) TryWrite(pos int, val uint64) bool {
	if s.writesUsed >= s.writePorts {
		return false
	}
	s.writesUsed++
	s.vals[pos] = val
	s.ready[pos] = true
	return true
}

// TryRead attempts to use a read port this cycle; on success it returns
// the value and the latency after which the consumer sees it.
func (s *SpecMem) TryRead(pos int) (val uint64, lat int, ok bool) {
	if s.readsUsed >= s.readPorts {
		return 0, 0, false
	}
	s.readsUsed++
	return s.vals[pos], s.latency, true
}

// Ready reports whether the position holds a produced value.
func (s *SpecMem) Ready(pos int) bool { return s.ready[pos] }

// Value reads a position without modeling a port (for validation
// bookkeeping, not data movement).
func (s *SpecMem) Value(pos int) uint64 { return s.vals[pos] }
