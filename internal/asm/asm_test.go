package asm

import (
	"strings"
	"testing"

	"civect/internal/isa"
)

func TestAssembleHammock(t *testing.T) {
	// The paper's Figure 1 kernel.
	src := `
        movi r1, 0
        movi r2, 0
        movi r3, 0
        movi r4, 0
loop:   ld   r0, 0(r1)
        bnez r0, else
        addi r2, r2, 1     ; then: count zeros... (inverted sense vs paper)
        jmp  join
else:   addi r3, r3, 1
join:   add  r4, r4, r0
        addi r1, r1, 8
        slti r5, r1, 400
        bnez r5, loop
        halt
`
	p, err := Assemble("hammock", src)
	if err != nil {
		t.Fatal(err)
	}
	if p.Len() != 14 {
		t.Fatalf("program length = %d, want 14", p.Len())
	}
	// "loop" label at index 4, "else" at 8, "join" at 9.
	if in := p.Code[5]; in.Op != isa.OpBNEZ || in.Target != 8 {
		t.Errorf("branch = %v, want bnez -> 8", in)
	}
	if in := p.Code[7]; in.Op != isa.OpJmp || in.Target != 9 {
		t.Errorf("jmp = %v, want jmp -> 9", in)
	}
	if in := p.Code[13]; in.Op != isa.OpHalt {
		t.Errorf("last = %v, want halt", in)
	}
	if in := p.Code[4]; in.Op != isa.OpLd || in.Rd != 0 || in.Ra != 1 || in.Imm != 0 {
		t.Errorf("load = %v", in)
	}
}

func TestAssembleAllForms(t *testing.T) {
	src := `
        nop
        movi r1, -5
        mov  r2, r1
        add  r3, r1, r2
        addi r3, r3, 0x10
        sub  r4, r3, r1
        subi r4, r4, 1
        mul  r5, r4, r4
        div  r6, r5, r4
        and  r7, r6, r5
        or   r8, r7, r6
        xor  r9, r8, r7
        shli r10, r9, 3
        shri r11, r10, 2
        slt  r12, r11, r10
        slti r13, r12, 100
        seq  r14, r13, r12
        seqi r15, r14, 1
        ld   r16, 8(r1)
        st   r16, -8(r2)
        beqz r16, 0
        bnez r16, end
        jmp  end
end:    halt
`
	p, err := Assemble("all", src)
	if err != nil {
		t.Fatal(err)
	}
	wantOps := []isa.Op{
		isa.OpNop, isa.OpMovI, isa.OpMov, isa.OpAdd, isa.OpAddI, isa.OpSub,
		isa.OpSubI, isa.OpMul, isa.OpDiv, isa.OpAnd, isa.OpOr, isa.OpXor,
		isa.OpShlI, isa.OpShrI, isa.OpSLT, isa.OpSLTI, isa.OpSEQ, isa.OpSEQI,
		isa.OpLd, isa.OpSt, isa.OpBEQZ, isa.OpBNEZ, isa.OpJmp, isa.OpHalt,
	}
	if p.Len() != len(wantOps) {
		t.Fatalf("len = %d, want %d", p.Len(), len(wantOps))
	}
	for i, op := range wantOps {
		if p.Code[i].Op != op {
			t.Errorf("instr %d op = %v, want %v", i, p.Code[i].Op, op)
		}
	}
	if p.Code[1].Imm != -5 {
		t.Errorf("movi imm = %d, want -5", p.Code[1].Imm)
	}
	if p.Code[4].Imm != 16 {
		t.Errorf("hex imm = %d, want 16", p.Code[4].Imm)
	}
	if p.Code[19].Imm != -8 || p.Code[19].Rb != 16 || p.Code[19].Ra != 2 {
		t.Errorf("st = %+v", p.Code[19])
	}
}

func TestCommentsAndBlankLines(t *testing.T) {
	src := `
; full-line comment
# another
// and another

        movi r1, 1    ; trailing
        halt          # trailing
`
	p, err := Assemble("c", src)
	if err != nil {
		t.Fatal(err)
	}
	if p.Len() != 2 {
		t.Fatalf("len = %d, want 2", p.Len())
	}
}

func TestMultipleLabelsSameLine(t *testing.T) {
	src := `
a: b:  movi r1, 1
       beqz r1, a
       bnez r1, b
       halt
`
	p, err := Assemble("m", src)
	if err != nil {
		t.Fatal(err)
	}
	if p.Code[1].Target != 0 || p.Code[2].Target != 0 {
		t.Errorf("both labels should resolve to 0: %v %v", p.Code[1], p.Code[2])
	}
}

func TestNumericTargets(t *testing.T) {
	p, err := Assemble("n", "beqz r1, 1\nhalt\n")
	if err != nil {
		t.Fatal(err)
	}
	if p.Code[0].Target != 1 {
		t.Errorf("target = %d, want 1", p.Code[0].Target)
	}
}

func TestErrors(t *testing.T) {
	cases := []struct {
		name, src, wantSub string
	}{
		{"unknown mnemonic", "frob r1, r2\nhalt", "unknown mnemonic"},
		{"bad register", "movi r99, 0\nhalt", "bad register"},
		{"bad register name", "movi x1, 0\nhalt", "bad register"},
		{"bad imm", "movi r1, zz\nhalt", "bad immediate"},
		{"unknown label", "jmp nowhere\nhalt", "unknown label"},
		{"duplicate label", "a: nop\na: nop\nhalt", "duplicate label"},
		{"operand count", "add r1, r2\nhalt", "wants 3 operands"},
		{"bad memref", "ld r1, r2\nhalt", "bad memory operand"},
		{"no halt", "nop", "no halt"},
		{"target out of range", "jmp 99\nhalt", "out of range"},
		{"unknown label line", "nop\nbeqz r1, gone\njmp gone\nhalt", "line 2: unknown label"},
		{"duplicate label line", "a: nop\nnop\na: halt", "line 3: duplicate label"},
		{"junk after memref", "nop\nld r1, 8(r2)junk\nhalt", "line 2: bad memory operand"},
		{"second memref", "nop\nld r1, 8(r2)(r3)\nhalt", "line 2: bad memory operand"},
	}
	for _, tc := range cases {
		_, err := Assemble(tc.name, tc.src)
		if err == nil {
			t.Errorf("%s: expected error", tc.name)
			continue
		}
		if !strings.Contains(err.Error(), tc.wantSub) {
			t.Errorf("%s: error %q does not contain %q", tc.name, err, tc.wantSub)
		}
	}
}

func TestMustAssemblePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("MustAssemble should panic on bad input")
		}
	}()
	MustAssemble("bad", "frob\n")
}

// Round-trip: disassembled output of an assembled program re-assembles to
// the same instructions (labels become numeric targets, which the
// assembler accepts).
func TestRoundTrip(t *testing.T) {
	src := `
        movi r1, 0
loop:   ld   r0, 0(r1)
        beqz r0, done
        addi r1, r1, 8
        jmp  loop
done:   halt
`
	p1, err := Assemble("rt", src)
	if err != nil {
		t.Fatal(err)
	}
	// Strip the "pc:" prefixes from the disassembly.
	var b strings.Builder
	for _, in := range p1.Code {
		b.WriteString(in.String())
		b.WriteString("\n")
	}
	p2, err := Assemble("rt2", b.String())
	if err != nil {
		t.Fatalf("reassembly failed: %v\nsource:\n%s", err, b.String())
	}
	if p1.Len() != p2.Len() {
		t.Fatalf("length mismatch %d vs %d", p1.Len(), p2.Len())
	}
	for i := range p1.Code {
		if p1.Code[i] != p2.Code[i] {
			t.Errorf("instr %d: %v vs %v", i, p1.Code[i], p2.Code[i])
		}
	}
}
