package emu

import (
	"testing"

	"civect/internal/asm"
	"civect/internal/isa"
	"civect/internal/mem"
)

func TestArithmetic(t *testing.T) {
	src := `
        movi r1, 10
        movi r2, 3
        add  r3, r1, r2   ; 13
        sub  r4, r1, r2   ; 7
        mul  r5, r1, r2   ; 30
        div  r6, r1, r2   ; 3
        movi r7, 0
        div  r8, r1, r7   ; div by zero -> 0
        and  r9, r1, r2   ; 2
        or   r10, r1, r2  ; 11
        xor  r11, r1, r2  ; 9
        shli r12, r1, 2   ; 40
        shri r13, r1, 1   ; 5
        slt  r14, r2, r1  ; 1
        slti r15, r1, 5   ; 0
        seq  r16, r1, r1  ; 1
        seqi r17, r1, 10  ; 1
        mov  r18, r5      ; 30
        halt
`
	c := New(nil)
	if err := c.Run(asm.MustAssemble("arith", src), 0); err != nil {
		t.Fatal(err)
	}
	want := map[isa.Reg]uint64{
		3: 13, 4: 7, 5: 30, 6: 3, 8: 0, 9: 2, 10: 11, 11: 9,
		12: 40, 13: 5, 14: 1, 15: 0, 16: 1, 17: 1, 18: 30,
	}
	for r, v := range want {
		if c.Regs[r] != v {
			t.Errorf("R%d = %d, want %d", r, c.Regs[r], v)
		}
	}
}

func TestSignedComparison(t *testing.T) {
	src := `
        movi r1, -1
        movi r2, 1
        slt  r3, r1, r2   ; -1 < 1 signed -> 1
        slti r4, r1, 0    ; -1 < 0 -> 1
        halt
`
	c := New(nil)
	if err := c.Run(asm.MustAssemble("signed", src), 0); err != nil {
		t.Fatal(err)
	}
	if c.Regs[3] != 1 || c.Regs[4] != 1 {
		t.Errorf("signed compares wrong: r3=%d r4=%d", c.Regs[3], c.Regs[4])
	}
}

func TestLoadStore(t *testing.T) {
	src := `
        movi r1, 0x100
        movi r2, 77
        st   r2, 0(r1)
        ld   r3, 0(r1)
        ld   r4, 8(r1)   ; unmapped -> 0
        halt
`
	c := New(nil)
	if err := c.Run(asm.MustAssemble("ls", src), 0); err != nil {
		t.Fatal(err)
	}
	if c.Regs[3] != 77 {
		t.Errorf("R3 = %d, want 77", c.Regs[3])
	}
	if c.Regs[4] != 0 {
		t.Errorf("R4 = %d, want 0", c.Regs[4])
	}
	if c.Mem.Read64(0x100) != 77 {
		t.Error("store did not reach memory")
	}
}

// TestHammockFigure1 runs the paper's Figure 1 kernel over a 50-element
// array and checks the three architectural results: count of zero
// elements, count of non-zero elements, and the element sum.
func TestHammockFigure1(t *testing.T) {
	m := mem.New()
	zeros, nonzeros, sum := 0, 0, uint64(0)
	for i := 0; i < 50; i++ {
		var v uint64
		if i%3 == 0 {
			v = 0
		} else {
			v = uint64(i)
		}
		m.Write64(uint64(i*8), v)
		if v == 0 {
			zeros++
		} else {
			nonzeros++
		}
		sum += v
	}
	src := `
        movi r1, 0
        movi r2, 0
        movi r3, 0
        movi r4, 0
loop:   ld   r0, 0(r1)
        bnez r0, else
        addi r3, r3, 1     ; zero count (paper's R3)
        jmp  join
else:   addi r2, r2, 1     ; non-zero count (paper's R2)
join:   add  r4, r4, r0
        addi r1, r1, 8
        slti r5, r1, 400
        bnez r5, loop
        halt
`
	c := New(m)
	if err := c.Run(asm.MustAssemble("hammock", src), 0); err != nil {
		t.Fatal(err)
	}
	if c.Regs[3] != uint64(zeros) {
		t.Errorf("zero count = %d, want %d", c.Regs[3], zeros)
	}
	if c.Regs[2] != uint64(nonzeros) {
		t.Errorf("non-zero count = %d, want %d", c.Regs[2], nonzeros)
	}
	if c.Regs[4] != sum {
		t.Errorf("sum = %d, want %d", c.Regs[4], sum)
	}
}

func TestBranches(t *testing.T) {
	src := `
        movi r1, 3
        movi r2, 0
loop:   addi r2, r2, 1
        subi r1, r1, 1
        bnez r1, loop
        beqz r1, end
        movi r2, 999     ; skipped
end:    halt
`
	c := New(nil)
	if err := c.Run(asm.MustAssemble("br", src), 0); err != nil {
		t.Fatal(err)
	}
	if c.Regs[2] != 3 {
		t.Errorf("R2 = %d, want 3", c.Regs[2])
	}
}

func TestJmp(t *testing.T) {
	src := `
        jmp over
        movi r1, 1   ; skipped
over:   movi r2, 2
        halt
`
	c := New(nil)
	if err := c.Run(asm.MustAssemble("jmp", src), 0); err != nil {
		t.Fatal(err)
	}
	if c.Regs[1] != 0 || c.Regs[2] != 2 {
		t.Errorf("r1=%d r2=%d", c.Regs[1], c.Regs[2])
	}
}

func TestRunLimit(t *testing.T) {
	src := `
loop:   jmp loop
        halt
`
	c := New(nil)
	err := c.Run(asm.MustAssemble("inf", src), 100)
	if err != ErrLimit {
		t.Errorf("err = %v, want ErrLimit", err)
	}
	if c.Executed != 100 {
		t.Errorf("executed = %d, want 100", c.Executed)
	}
}

func TestStepAfterHalt(t *testing.T) {
	p := asm.MustAssemble("h", "halt\n")
	c := New(nil)
	c.StepOne(p)
	if !c.Halted {
		t.Fatal("should be halted")
	}
	before := c.Executed
	s := c.StepOne(p)
	if s.Instr.Op != isa.OpHalt {
		t.Error("step after halt should report halt")
	}
	if c.Executed != before {
		t.Error("step after halt must not count instructions")
	}
}

func TestStepMetadata(t *testing.T) {
	src := `
        movi r1, 0x200
        ld   r2, 8(r1)
        st   r1, 16(r1)
        beqz r2, 0
        halt
`
	p := asm.MustAssemble("meta", src)
	c := New(nil)

	s := c.StepOne(p)
	if !s.HasDest || s.Dest != 1 || s.Value != 0x200 {
		t.Errorf("movi step = %+v", s)
	}
	s = c.StepOne(p)
	if s.Addr != 0x208 || !s.HasDest || s.Dest != 2 {
		t.Errorf("ld step = %+v", s)
	}
	s = c.StepOne(p)
	if s.Addr != 0x210 || s.Value != 0x200 || s.HasDest {
		t.Errorf("st step = %+v", s)
	}
	s = c.StepOne(p)
	if !s.Taken || s.NextPC != 0 {
		t.Errorf("beqz step = %+v (r2 is 0, should be taken)", s)
	}
}
