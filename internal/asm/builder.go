package asm

import (
	"fmt"
	"slices"

	"civect/internal/isa"
)

// Label names a code position for branches and jumps. NewLabel makes
// one, Bind fixes it at the next instruction, and a branch may use it
// before or after it is bound.
type Label int

// Builder encodes a program instruction by instruction: the typed form
// of the assembly dialect, with no text in between. The zero value is
// an empty builder. Misuse (an opcode passed to the wrong form, a label
// bound twice or never) is recorded and reported by Program, so a
// sequence of calls needs no error checks of its own.
type Builder struct {
	code   []isa.Instr
	labels []labelPos
	fixups []fixup
	err    error
}

type labelPos struct {
	pc    int
	bound bool
}

// fixup is a branch or jump whose target is resolved by Program.
type fixup struct {
	pc    int
	label Label
}

// form is an instruction's operand shape; each has one Builder method
// and one line syntax.
type form uint8

const (
	formNone   form = iota // nop, halt
	formRI                 // movi rd, imm
	formRR                 // mov rd, ra
	formRRR                // op rd, ra, rb
	formRRI                // op rd, ra, imm
	formMem                // ld rd, disp(ra) / st rb, disp(ra)
	formBranch             // beqz/bnez ra, target
	formJmp                // jmp target
)

func formOf(op isa.Op) form {
	switch op {
	case isa.OpMovI:
		return formRI
	case isa.OpMov:
		return formRR
	case isa.OpAdd, isa.OpSub, isa.OpMul, isa.OpDiv, isa.OpAnd, isa.OpOr, isa.OpXor, isa.OpSLT, isa.OpSEQ:
		return formRRR
	case isa.OpAddI, isa.OpSubI, isa.OpShlI, isa.OpShrI, isa.OpSLTI, isa.OpSEQI:
		return formRRI
	case isa.OpLd, isa.OpSt:
		return formMem
	case isa.OpBEQZ, isa.OpBNEZ:
		return formBranch
	case isa.OpJmp:
		return formJmp
	}
	return formNone
}

// Len returns the number of instructions encoded so far, which is also
// the PC the next instruction gets.
func (b *Builder) Len() int { return len(b.code) }

// NewLabel returns a fresh, unbound label.
func (b *Builder) NewLabel() Label {
	b.labels = append(b.labels, labelPos{})
	return Label(len(b.labels) - 1)
}

// Abs returns a label bound to the absolute instruction index pc, for
// numeric branch targets. Program's validation rejects one outside the
// program.
func (b *Builder) Abs(pc int) Label {
	b.labels = append(b.labels, labelPos{pc: pc, bound: true})
	return Label(len(b.labels) - 1)
}

// Bind fixes l at the next instruction's PC. A label is bound once.
func (b *Builder) Bind(l Label) {
	switch {
	case l < 0 || int(l) >= len(b.labels):
		b.fail(fmt.Errorf("asm: pc %d: bind of unknown label %d", len(b.code), l))
	case b.labels[l].bound:
		b.fail(fmt.Errorf("asm: label %d bound twice, at pc %d and %d", l, b.labels[l].pc, len(b.code)))
	default:
		b.labels[l] = labelPos{pc: len(b.code), bound: true}
	}
}

// Nop encodes nop.
func (b *Builder) Nop() { b.code = append(b.code, isa.Instr{Op: isa.OpNop}) }

// Halt encodes halt.
func (b *Builder) Halt() { b.code = append(b.code, isa.Instr{Op: isa.OpHalt}) }

// MovI encodes movi rd, imm.
func (b *Builder) MovI(rd isa.Reg, imm int64) {
	b.code = append(b.code, isa.Instr{Op: isa.OpMovI, Rd: rd, Imm: imm})
}

// Mov encodes mov rd, ra.
func (b *Builder) Mov(rd, ra isa.Reg) {
	b.code = append(b.code, isa.Instr{Op: isa.OpMov, Rd: rd, Ra: ra})
}

// Op3 encodes a three-register operation: op rd, ra, rb.
func (b *Builder) Op3(op isa.Op, rd, ra, rb isa.Reg) {
	b.check("Op3", op, formRRR)
	b.code = append(b.code, isa.Instr{Op: op, Rd: rd, Ra: ra, Rb: rb})
}

// OpI encodes a register-immediate operation: op rd, ra, imm.
func (b *Builder) OpI(op isa.Op, rd, ra isa.Reg, imm int64) {
	b.check("OpI", op, formRRI)
	b.code = append(b.code, isa.Instr{Op: op, Rd: rd, Ra: ra, Imm: imm})
}

// Ld encodes ld rd, disp(base).
func (b *Builder) Ld(rd, base isa.Reg, disp int64) {
	b.code = append(b.code, isa.Instr{Op: isa.OpLd, Rd: rd, Ra: base, Imm: disp})
}

// St encodes st src, disp(base).
func (b *Builder) St(src, base isa.Reg, disp int64) {
	b.code = append(b.code, isa.Instr{Op: isa.OpSt, Rb: src, Ra: base, Imm: disp})
}

// Branch encodes a conditional branch, beqz or bnez ra, target.
func (b *Builder) Branch(op isa.Op, ra isa.Reg, target Label) {
	b.check("Branch", op, formBranch)
	b.fixups = append(b.fixups, fixup{pc: len(b.code), label: target})
	b.code = append(b.code, isa.Instr{Op: op, Ra: ra})
}

// Jmp encodes jmp target.
func (b *Builder) Jmp(target Label) {
	b.fixups = append(b.fixups, fixup{pc: len(b.code), label: target})
	b.code = append(b.code, isa.Instr{Op: isa.OpJmp})
}

// Program resolves every label reference, validates the code and
// returns it as a program named name. It ends the build: b is reset
// and may encode another program.
func (b *Builder) Program(name string) (*isa.Program, error) {
	defer func() { *b = Builder{} }()
	if b.err != nil {
		return nil, b.err
	}
	for _, f := range b.fixups {
		if f.label < 0 || int(f.label) >= len(b.labels) {
			return nil, fmt.Errorf("asm: pc %d: unknown label %d", f.pc, f.label)
		}
		pos := b.labels[f.label]
		if !pos.bound {
			return nil, fmt.Errorf("asm: pc %d: label %d is never bound", f.pc, f.label)
		}
		b.code[f.pc].Target = pos.pc
	}
	// The program keeps its code for as long as it runs: hand it over
	// without the append slack.
	p := &isa.Program{Name: name, Code: slices.Clone(b.code)}
	if err := p.Validate(); err != nil {
		return nil, err
	}
	return p, nil
}

// check records a misuse when op does not have the method's form.
func (b *Builder) check(method string, op isa.Op, want form) {
	if formOf(op) != want {
		b.fail(fmt.Errorf("asm: pc %d: %s cannot encode %v", len(b.code), method, op))
	}
}

// fail keeps the first misuse for Program to report.
func (b *Builder) fail(err error) {
	if b.err == nil {
		b.err = err
	}
}
