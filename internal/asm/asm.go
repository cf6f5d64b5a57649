// Package asm owns program encoding for the ISA. Builder is the typed
// encoder: one method per instruction form, integer Labels with
// forward-reference fixups, and a Program call that resolves them and
// validates the result. The workload generators drive it directly.
// Assemble is the text front-end over the same Builder, so tests,
// examples and user kernels (like the paper's Figure 1 hammock) can be
// written readably instead of as instruction literals.
//
// Syntax, one instruction per line:
//
//	; comment (also # and //)
//	loop:                 ; label definitions end with ':'
//	    movi r1, 0
//	    ld   r0, 0(r1)    ; loads/stores use disp(base)
//	    beqz r0, else     ; branch targets are labels or absolute indices
//	    addi r2, r2, 1
//	    jmp  join
//	else:
//	    addi r3, r3, 1
//	join:
//	    add  r4, r4, r0
//	    halt
//
// Register names are r0..r63 (case-insensitive). Immediates are decimal
// or 0x-prefixed hexadecimal, optionally negative.
package asm

import (
	"fmt"
	"strconv"
	"strings"

	"civect/internal/isa"
)

// Assemble translates source into a program named name, in one pass:
// each line is encoded through a Builder as it is read, a label name
// becomes a Label when first seen (definition or use), and a numeric
// target passes through as an absolute index.
func Assemble(name, source string) (*isa.Program, error) {
	a := &assembler{names: make(map[string]int)}
	for a.line = 1; source != ""; a.line++ {
		var line string
		line, source, _ = strings.Cut(source, "\n")
		if err := a.assembleLine(line); err != nil {
			return nil, fmt.Errorf("asm: line %d: %v", a.line, err)
		}
	}
	for _, s := range a.syms {
		if !s.defined {
			return nil, fmt.Errorf("asm: line %d: unknown label or target %q", s.line, s.name)
		}
	}
	return a.b.Program(name)
}

// MustAssemble is Assemble that panics on error; for tests and examples
// with constant sources.
func MustAssemble(name, source string) *isa.Program {
	p, err := Assemble(name, source)
	if err != nil {
		panic(err)
	}
	return p
}

type assembler struct {
	b     Builder
	names map[string]int // label name -> index in syms
	syms  []symbol       // in order of first appearance
	line  int
	err   error // the current line's first operand error
}

// symbol is a label name's Label and whether a line has defined it.
type symbol struct {
	name    string
	label   Label
	defined bool
	line    int // where it was first seen, for an unknown-label error
}

// mnemonics maps each opcode's assembly name to the opcode.
var mnemonics = func() map[string]isa.Op {
	m := make(map[string]isa.Op)
	for op := isa.Op(0); op.Valid(); op++ {
		m[op.String()] = op
	}
	return m
}()

// operands is the operand count of each form's line syntax.
var operands = [...]int{formNone: 0, formRI: 2, formRR: 2, formRRR: 3, formRRI: 3, formMem: 2, formBranch: 2, formJmp: 1}

func (a *assembler) symbol(name string) *symbol {
	i, ok := a.names[name]
	if !ok {
		i = len(a.syms)
		a.names[name] = i
		a.syms = append(a.syms, symbol{name: name, label: a.b.NewLabel(), line: a.line})
	}
	return &a.syms[i]
}

// assembleLine binds the line's label definitions and encodes its
// instruction, if any.
func (a *assembler) assembleLine(raw string) error {
	text := stripComment(raw)
	for {
		text = strings.TrimSpace(text)
		if text == "" {
			return nil
		}
		i := strings.Index(text, ":")
		if i < 0 || !isLabel(text[:i]) {
			return a.encode(text)
		}
		s := a.symbol(text[:i])
		if s.defined {
			return fmt.Errorf("duplicate label %q", s.name)
		}
		s.defined = true
		a.b.Bind(s.label)
		text = text[i+1:]
	}
}

func stripComment(s string) string {
	for _, mark := range []string{";", "#", "//"} {
		if i := strings.Index(s, mark); i >= 0 {
			s = s[:i]
		}
	}
	return s
}

func isLabel(s string) bool {
	if s == "" {
		return false
	}
	for i, r := range s {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r == '_':
		case r >= '0' && r <= '9':
			if i == 0 {
				return false
			}
		default:
			return false
		}
	}
	return true
}

// encode parses one instruction and hands it to the builder. Operands
// are parsed left to right and the first bad one is reported; an
// instruction encoded from a bad line is never used, because the error
// ends the assembly.
func (a *assembler) encode(text string) error {
	fields := strings.Fields(strings.ReplaceAll(text, ",", " "))
	if len(fields) == 0 {
		return fmt.Errorf("empty instruction")
	}
	mn := strings.ToLower(fields[0])
	op, ok := mnemonics[mn]
	if !ok {
		return fmt.Errorf("unknown mnemonic %q", mn)
	}
	f, ops := formOf(op), fields[1:]
	if want := operands[f]; len(ops) != want {
		unit := "operands"
		if want == 1 {
			unit = "operand"
		}
		return fmt.Errorf("%s wants %d %s, got %d", op, want, unit, len(ops))
	}

	a.err = nil
	switch f {
	case formNone:
		if op == isa.OpHalt {
			a.b.Halt()
		} else {
			a.b.Nop()
		}
	case formRI:
		a.b.MovI(a.reg(ops[0]), a.imm(ops[1]))
	case formRR:
		a.b.Mov(a.reg(ops[0]), a.reg(ops[1]))
	case formRRR:
		a.b.Op3(op, a.reg(ops[0]), a.reg(ops[1]), a.reg(ops[2]))
	case formRRI:
		a.b.OpI(op, a.reg(ops[0]), a.reg(ops[1]), a.imm(ops[2]))
	case formMem:
		r := a.reg(ops[0])
		disp, base := a.memRef(ops[1])
		if op == isa.OpLd {
			a.b.Ld(r, base, disp)
		} else {
			a.b.St(r, base, disp)
		}
	case formBranch:
		a.b.Branch(op, a.reg(ops[0]), a.target(ops[1]))
	case formJmp:
		a.b.Jmp(a.target(ops[0]))
	}
	return a.err
}

// fail keeps the line's first operand error.
func (a *assembler) fail(err error) {
	if a.err == nil {
		a.err = err
	}
}

func (a *assembler) reg(s string) isa.Reg {
	s = strings.ToLower(s)
	if len(s) < 2 || s[0] != 'r' {
		a.fail(fmt.Errorf("bad register %q", s))
		return 0
	}
	n, err := strconv.Atoi(s[1:])
	if err != nil || n < 0 || n >= isa.NumLogical {
		a.fail(fmt.Errorf("bad register %q", s))
		return 0
	}
	return isa.Reg(n)
}

func (a *assembler) imm(s string) int64 {
	v, err := strconv.ParseInt(s, 0, 64)
	if err != nil {
		a.fail(fmt.Errorf("bad immediate %q", s))
	}
	return v
}

// memRef parses disp(base); an empty disp is 0, and nothing may follow
// the closing parenthesis.
func (a *assembler) memRef(s string) (disp int64, base isa.Reg) {
	dispStr, rest, open := strings.Cut(s, "(")
	baseStr, tail, closed := strings.Cut(rest, ")")
	switch {
	case !open || !closed:
		a.fail(fmt.Errorf("bad memory operand %q, want disp(reg)", s))
		return 0, 0
	case tail != "":
		a.fail(fmt.Errorf("bad memory operand %q: trailing text %q", s, tail))
		return 0, 0
	}
	if dispStr == "" {
		dispStr = "0"
	}
	return a.imm(dispStr), a.reg(baseStr)
}

// target resolves a branch operand: a label name (defined anywhere in
// the source) or an absolute instruction index.
func (a *assembler) target(s string) Label {
	if isLabel(s) {
		return a.symbol(s).label
	}
	n, err := strconv.Atoi(s)
	if err != nil {
		a.fail(fmt.Errorf("unknown label or target %q", s))
	}
	return a.b.Abs(n)
}
