// Package emu implements the architectural (functional) emulator for the
// ISA. It executes programs with no timing model and serves as the
// golden reference: every timing-simulator mode must commit exactly this
// architectural behaviour.
//
// One interpreter loop, Walk, executes every instruction the package
// runs, keeping the PC and the executed count in locals and reporting
// each instruction to an Observer: Run walks with an observer that does
// nothing, StepOne with one that records a Step, and the sampling
// passes with their profiling and warming observers. No Step is built
// on the way, which is what makes the functional passes cheap.
package emu

import (
	"fmt"

	"civect/internal/isa"
	"civect/internal/mem"
)

// Step describes the architectural effect of a single executed
// instruction; the timing simulator's tests use it to cross-check
// committed instructions, and trace-driven analyses consume it directly.
type Step struct {
	PC    int
	Instr isa.Instr
	// NextPC is the PC after this instruction (branch-resolved).
	NextPC int
	// Taken is set for conditional branches that were taken.
	Taken bool
	// Addr is the effective address for loads and stores.
	Addr uint64
	// Value is the register result (loads/ALU) or the stored value.
	Value uint64
	// Dest is the destination register; HasDest reports whether the
	// instruction writes one.
	Dest    isa.Reg
	HasDest bool
}

// CPU is the architectural machine state.
type CPU struct {
	Regs   [isa.NumLogical]uint64
	PC     int
	Mem    *mem.Memory
	Halted bool

	// Executed counts architecturally executed instructions.
	Executed uint64
}

// New returns a CPU with zeroed registers starting at PC 0 over m.
func New(m *mem.Memory) *CPU {
	if m == nil {
		m = mem.New()
	}
	return &CPU{Mem: m}
}

// ErrLimit is returned by Run and Walk when the instruction budget is
// exhausted before the program halts.
var ErrLimit = fmt.Errorf("emu: instruction limit reached")

// Observer receives every instruction Walk executes, after its effect
// is applied: the instruction and its PC, the effective address (loads
// and stores), the value (the register result for loads and ALU
// operations, the stored value for stores, zero otherwise) and whether
// a branch or jump was taken. Walk's observer is a type parameter, so
// each call site names its observer type; the compiler shares one copy
// of the loop per type shape and calls Observe through it once per
// instruction, so an observer should be pointer-sized (a pointer, a
// struct holding one, or an empty struct) to pass in a register.
type Observer interface {
	Observe(pc int, in isa.Instr, addr, val uint64, taken bool)
}

// Walk executes p from c's current state until the program halts or
// c.Executed reaches limit (0: no limit), reporting each executed
// instruction to o. It returns ErrLimit if the budget ran out first; a
// CPU that is already halted is left as it is. A PC outside the image
// executes as a halt.
//
//civet:hotpath
func Walk[O Observer](c *CPU, p *isa.Program, limit uint64, o O) error {
	if c.Halted {
		return nil
	}
	code, m, regs := p.Code, c.Mem, &c.Regs
	pc, n := c.PC, c.Executed
	for {
		if limit > 0 && n >= limit {
			c.PC, c.Executed = pc, n
			return ErrLimit
		}
		in := isa.Instr{Op: isa.OpHalt}
		if uint(pc) < uint(len(code)) {
			in = code[pc]
		}
		ra, rb := regs[in.Ra], regs[in.Rb]
		var addr, val uint64
		next, taken := pc+1, false
		switch in.Op {
		case isa.OpNop:
		case isa.OpMovI:
			val = uint64(in.Imm)
			regs[in.Rd] = val
		case isa.OpMov:
			val = ra
			regs[in.Rd] = val
		case isa.OpAdd:
			val = ra + rb
			regs[in.Rd] = val
		case isa.OpAddI:
			val = ra + uint64(in.Imm)
			regs[in.Rd] = val
		case isa.OpSub:
			val = ra - rb
			regs[in.Rd] = val
		case isa.OpSubI:
			val = ra - uint64(in.Imm)
			regs[in.Rd] = val
		case isa.OpMul:
			val = ra * rb
			regs[in.Rd] = val
		case isa.OpDiv:
			if rb != 0 {
				val = ra / rb
			}
			regs[in.Rd] = val
		case isa.OpAnd:
			val = ra & rb
			regs[in.Rd] = val
		case isa.OpOr:
			val = ra | rb
			regs[in.Rd] = val
		case isa.OpXor:
			val = ra ^ rb
			regs[in.Rd] = val
		case isa.OpShlI:
			val = ra << (uint64(in.Imm) & 63)
			regs[in.Rd] = val
		case isa.OpShrI:
			val = ra >> (uint64(in.Imm) & 63)
			regs[in.Rd] = val
		case isa.OpSLT:
			if int64(ra) < int64(rb) {
				val = 1
			}
			regs[in.Rd] = val
		case isa.OpSLTI:
			if int64(ra) < in.Imm {
				val = 1
			}
			regs[in.Rd] = val
		case isa.OpSEQ:
			if ra == rb {
				val = 1
			}
			regs[in.Rd] = val
		case isa.OpSEQI:
			if ra == uint64(in.Imm) {
				val = 1
			}
			regs[in.Rd] = val
		case isa.OpLd:
			addr = ra + uint64(in.Imm)
			val = m.Read64(addr)
			regs[in.Rd] = val
		case isa.OpSt:
			addr, val = ra+uint64(in.Imm), rb
			m.Write64(addr, val)
		case isa.OpBEQZ:
			if ra == 0 {
				next, taken = in.Target, true
			}
		case isa.OpBNEZ:
			if ra != 0 {
				next, taken = in.Target, true
			}
		case isa.OpJmp:
			next, taken = in.Target, true
		case isa.OpHalt:
			o.Observe(pc, in, 0, 0, false)
			c.PC, c.Executed, c.Halted = pc, n+1, true
			return nil
		}
		o.Observe(pc, in, addr, val, taken)
		pc = next
		n++
	}
}

// nopObserver is Run's observer: it ignores every instruction.
type nopObserver struct{}

func (nopObserver) Observe(int, isa.Instr, uint64, uint64, bool) {}

// Run executes the program until it halts or maxInstr instructions have
// executed (maxInstr <= 0 means no limit). It returns ErrLimit if the
// budget ran out first.
func (c *CPU) Run(p *isa.Program, maxInstr uint64) error {
	return Walk(c, p, maxInstr, nopObserver{})
}

// stepRecorder is StepOne's observer: it records the one instruction
// walked into a Step.
type stepRecorder struct{ s *Step }

func (r stepRecorder) Observe(pc int, in isa.Instr, addr, val uint64, taken bool) {
	*r.s = Step{PC: pc, Instr: in, Addr: addr, Value: val, Taken: taken}
}

// StepOne executes the instruction at the current PC and advances.
// Calling StepOne on a halted CPU is a no-op returning a Halt step.
func (c *CPU) StepOne(p *isa.Program) Step {
	if c.Halted {
		return Step{PC: c.PC, Instr: isa.Instr{Op: isa.OpHalt}, NextPC: c.PC}
	}
	var s Step
	// The one-instruction budget always runs out unless the
	// instruction halts, so Walk's ErrLimit carries nothing here.
	_ = Walk(c, p, c.Executed+1, stepRecorder{&s})
	s.NextPC = c.PC
	s.Dest, s.HasDest = s.Instr.WritesReg()
	return s
}

// RegChecksum digests the architectural register file; combined with
// Memory.Checksum it identifies the full architectural state.
func (c *CPU) RegChecksum() uint64 {
	var sum uint64
	for i, v := range c.Regs {
		x := (uint64(i)+1)*0x9e3779b97f4a7c15 + v
		x ^= x >> 30
		x *= 0xbf58476d1ce4e5b9
		x ^= x >> 27
		x *= 0x94d049bb133111eb
		x ^= x >> 31
		sum += x
	}
	return sum
}
