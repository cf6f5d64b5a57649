// Package isa defines the instruction set architecture used by the
// reproduction: a small 64-bit RISC machine in the style of MIPS/Alpha,
// with 64 logical integer registers, no condition flags, and direct
// branches only.
//
// Program counters are instruction indices (not byte addresses): the
// instruction at PC p is Program.Code[p]. Data addresses are byte
// addresses over 64-bit words. This keeps the front end of the timing
// simulator simple without losing anything the paper's mechanism needs:
// hammocks, loops, strided loads and register dataflow are all expressed
// exactly as in the paper's Alpha examples.
package isa

import "fmt"

// NumLogical is the number of logical (architectural) integer registers.
// The paper's rename-map extension is sized for 64 entries (§3.1).
const NumLogical = 64

// Reg identifies a logical register, 0 <= r < NumLogical.
type Reg uint8

// String returns the conventional register name ("R7").
func (r Reg) String() string { return fmt.Sprintf("R%d", r) }

// Op enumerates the instruction opcodes.
type Op uint8

// Opcode values. Arithmetic ops are three-register or register-immediate;
// comparisons write 0/1 to the destination (no flags); memory ops use
// base+displacement addressing on 64-bit words.
const (
	OpNop Op = iota

	// Arithmetic / logical.
	OpMovI // Rd = Imm
	OpMov  // Rd = Ra
	OpAdd  // Rd = Ra + Rb
	OpAddI // Rd = Ra + Imm
	OpSub  // Rd = Ra - Rb
	OpSubI // Rd = Ra - Imm
	OpMul  // Rd = Ra * Rb
	OpDiv  // Rd = Ra / Rb (0 if Rb == 0)
	OpAnd  // Rd = Ra & Rb
	OpOr   // Rd = Ra | Rb
	OpXor  // Rd = Ra ^ Rb
	OpShlI // Rd = Ra << Imm
	OpShrI // Rd = Ra >> Imm (logical)

	// Comparisons (write 0/1).
	OpSLT  // Rd = (Ra < Rb) signed
	OpSLTI // Rd = (Ra < Imm) signed
	OpSEQ  // Rd = (Ra == Rb)
	OpSEQI // Rd = (Ra == Imm)

	// Memory (64-bit words, byte addressing).
	OpLd // Rd = Mem[Ra + Imm]
	OpSt // Mem[Ra + Imm] = Rb

	// Control flow (direct targets, instruction indices).
	OpBEQZ // if Ra == 0 goto Target
	OpBNEZ // if Ra != 0 goto Target
	OpJmp  // goto Target (unconditional)

	OpHalt // stop the program

	numOps // sentinel; must be last
)

var opNames = [numOps]string{
	OpNop:  "nop",
	OpMovI: "movi",
	OpMov:  "mov",
	OpAdd:  "add",
	OpAddI: "addi",
	OpSub:  "sub",
	OpSubI: "subi",
	OpMul:  "mul",
	OpDiv:  "div",
	OpAnd:  "and",
	OpOr:   "or",
	OpXor:  "xor",
	OpShlI: "shli",
	OpShrI: "shri",
	OpSLT:  "slt",
	OpSLTI: "slti",
	OpSEQ:  "seq",
	OpSEQI: "seqi",
	OpLd:   "ld",
	OpSt:   "st",
	OpBEQZ: "beqz",
	OpBNEZ: "bnez",
	OpJmp:  "jmp",
	OpHalt: "halt",
}

// String returns the mnemonic for the opcode.
func (o Op) String() string {
	if int(o) < len(opNames) && opNames[o] != "" {
		return opNames[o]
	}
	return fmt.Sprintf("op(%d)", uint8(o))
}

// Valid reports whether o is a defined opcode.
func (o Op) Valid() bool { return o < numOps }

// Instr is one decoded instruction. Fields that an opcode does not use
// are zero. Target is an absolute instruction index for branches/jumps.
type Instr struct {
	Op     Op
	Rd     Reg
	Ra     Reg
	Rb     Reg
	Imm    int64
	Target int
}

// IsCondBranch reports whether the instruction is a conditional branch.
func (i Instr) IsCondBranch() bool { return i.Op == OpBEQZ || i.Op == OpBNEZ }

// IsJump reports whether the instruction is an unconditional direct jump.
func (i Instr) IsJump() bool { return i.Op == OpJmp }

// IsControl reports whether the instruction may redirect fetch.
func (i Instr) IsControl() bool { return i.IsCondBranch() || i.IsJump() || i.Op == OpHalt }

// IsLoad reports whether the instruction reads data memory.
func (i Instr) IsLoad() bool { return i.Op == OpLd }

// IsStore reports whether the instruction writes data memory.
func (i Instr) IsStore() bool { return i.Op == OpSt }

// IsMem reports whether the instruction accesses data memory.
func (i Instr) IsMem() bool { return i.IsLoad() || i.IsStore() }

// WritesReg reports whether the instruction writes a destination register,
// and which one.
func (i Instr) WritesReg() (Reg, bool) {
	switch i.Op {
	case OpMovI, OpMov, OpAdd, OpAddI, OpSub, OpSubI, OpMul, OpDiv,
		OpAnd, OpOr, OpXor, OpShlI, OpShrI,
		OpSLT, OpSLTI, OpSEQ, OpSEQI, OpLd:
		return i.Rd, true
	}
	return 0, false
}

// SrcRegs appends the source registers of the instruction to dst and
// returns the result. The slice is at most two entries.
func (i Instr) SrcRegs(dst []Reg) []Reg {
	switch i.Op {
	case OpMov, OpAddI, OpSubI, OpShlI, OpShrI, OpSLTI, OpSEQI:
		dst = append(dst, i.Ra)
	case OpAdd, OpSub, OpMul, OpDiv, OpAnd, OpOr, OpXor, OpSLT, OpSEQ:
		dst = append(dst, i.Ra, i.Rb)
	case OpLd:
		dst = append(dst, i.Ra)
	case OpSt:
		dst = append(dst, i.Ra, i.Rb)
	case OpBEQZ, OpBNEZ:
		dst = append(dst, i.Ra)
	}
	return dst
}

// String disassembles the instruction.
func (i Instr) String() string {
	switch i.Op {
	case OpNop, OpHalt:
		return i.Op.String()
	case OpMovI:
		return fmt.Sprintf("%s %s, %d", i.Op, i.Rd, i.Imm)
	case OpMov:
		return fmt.Sprintf("%s %s, %s", i.Op, i.Rd, i.Ra)
	case OpAdd, OpSub, OpMul, OpDiv, OpAnd, OpOr, OpXor, OpSLT, OpSEQ:
		return fmt.Sprintf("%s %s, %s, %s", i.Op, i.Rd, i.Ra, i.Rb)
	case OpAddI, OpSubI, OpShlI, OpShrI, OpSLTI, OpSEQI:
		return fmt.Sprintf("%s %s, %s, %d", i.Op, i.Rd, i.Ra, i.Imm)
	case OpLd:
		return fmt.Sprintf("%s %s, %d(%s)", i.Op, i.Rd, i.Imm, i.Ra)
	case OpSt:
		return fmt.Sprintf("%s %s, %d(%s)", i.Op, i.Rb, i.Imm, i.Ra)
	case OpBEQZ, OpBNEZ:
		return fmt.Sprintf("%s %s, %d", i.Op, i.Ra, i.Target)
	case OpJmp:
		return fmt.Sprintf("%s %d", i.Op, i.Target)
	}
	return fmt.Sprintf("?%d", i.Op)
}

// Program is a static program image: code plus an optional description of
// the initial data memory (applied by the caller through mem.Memory).
//
// Code and Name must not change after the program's first use: its
// validation, decode table (Decode) and digest (Hash) are computed once
// and kept with it. Build a new Program instead of editing one.
type Program struct {
	Code []Instr
	// Name identifies the program in stats and logs.
	Name string

	derived derived
}

// Len returns the number of static instructions.
func (p *Program) Len() int { return len(p.Code) }

// At returns the instruction at pc, or OpHalt if pc is outside the image
// (fetch down a wrong path can run off the end; treating out-of-range PCs
// as halt keeps the pipeline model total without affecting correct-path
// semantics, because a correct-path PC is always in range for a
// well-formed program).
func (p *Program) At(pc int) Instr {
	if pc < 0 || pc >= len(p.Code) {
		return Instr{Op: OpHalt}
	}
	return p.Code[pc]
}

// Validate checks static well-formedness: opcodes defined, registers in
// range, branch targets inside the image, and a reachable halt.
func (p *Program) Validate() error {
	if len(p.Code) == 0 {
		return fmt.Errorf("isa: empty program")
	}
	haltSeen := false
	for pc, in := range p.Code {
		if !in.Op.Valid() {
			return fmt.Errorf("isa: pc %d: invalid opcode %d", pc, in.Op)
		}
		if in.Rd >= NumLogical || in.Ra >= NumLogical || in.Rb >= NumLogical {
			return fmt.Errorf("isa: pc %d: register out of range in %v", pc, in)
		}
		if in.IsCondBranch() || in.IsJump() {
			if in.Target < 0 || in.Target >= len(p.Code) {
				return fmt.Errorf("isa: pc %d: branch target %d out of range", pc, in.Target)
			}
		}
		if in.Op == OpHalt {
			haltSeen = true
		}
	}
	if !haltSeen {
		return fmt.Errorf("isa: program has no halt instruction")
	}
	return nil
}

// Disassemble renders the whole program, one instruction per line,
// prefixed with the PC.
func (p *Program) Disassemble() string {
	out := make([]byte, 0, len(p.Code)*24)
	for pc, in := range p.Code {
		out = append(out, fmt.Sprintf("%4d: %s\n", pc, in)...)
	}
	return string(out)
}
