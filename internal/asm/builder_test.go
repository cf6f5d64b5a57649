package asm

import (
	"strings"
	"testing"

	"civect/internal/isa"
)

// TestBuilderMatchesAssemble builds the Figure 1 hammock through the
// builder, with a backward loop label and forward else/join labels, and
// checks it against the text front-end's encoding of the same kernel.
func TestBuilderMatchesAssemble(t *testing.T) {
	want := MustAssemble("hammock", `
        movi r1, 0
loop:   ld   r0, 0(r1)
        bnez r0, else
        addi r2, r2, 1
        jmp  join
else:   subi r3, r3, 1
join:   add  r4, r4, r0
        st   r4, -8(r1)
        addi r1, r1, 8
        slti r5, r1, 400
        bnez r5, loop
        mov  r6, r4
        nop
        halt
`)
	var b Builder
	loop, els, join := b.NewLabel(), b.NewLabel(), b.NewLabel()
	b.MovI(1, 0)
	b.Bind(loop)
	b.Ld(0, 1, 0)
	b.Branch(isa.OpBNEZ, 0, els)
	b.OpI(isa.OpAddI, 2, 2, 1)
	b.Jmp(join)
	b.Bind(els)
	b.OpI(isa.OpSubI, 3, 3, 1)
	b.Bind(join)
	b.Op3(isa.OpAdd, 4, 4, 0)
	b.St(4, 1, -8)
	b.OpI(isa.OpAddI, 1, 1, 8)
	b.OpI(isa.OpSLTI, 5, 1, 400)
	b.Branch(isa.OpBNEZ, 5, loop)
	b.Mov(6, 4)
	b.Nop()
	b.Halt()
	if b.Len() != want.Len() {
		t.Fatalf("Len = %d, want %d", b.Len(), want.Len())
	}
	got, err := b.Program("hammock")
	if err != nil {
		t.Fatal(err)
	}
	if got.Hash() != want.Hash() {
		t.Errorf("builder program differs from the assembled one:\n%s\nwant:\n%s", got.Disassemble(), want.Disassemble())
	}
	if b.Len() != 0 {
		t.Errorf("Program left %d instructions in the builder", b.Len())
	}
}

// TestBuilderGrow: a build into exactly the reserved room hands its
// buffer to the program uncopied, also for a reservation the allocator
// would round up to a larger size class; a build with slack left gets a
// copy without it. Either way the program is the one an unreserved
// build makes.
func TestBuilderGrow(t *testing.T) {
	build := func(b *Builder, n int) {
		for range n - 3 {
			b.Nop()
		}
		l := b.NewLabel()
		b.Bind(l)
		b.OpI(isa.OpSubI, 1, 1, 1)
		b.Branch(isa.OpBNEZ, 1, l)
		b.Halt()
	}
	for _, c := range []struct{ reserve, n int }{{3, 3}, {64, 3}, {112_517, 112_517}} {
		var plain Builder
		build(&plain, c.n)
		want, err := plain.Program("loop")
		if err != nil {
			t.Fatal(err)
		}
		var b Builder
		b.Grow(c.reserve, 1)
		buf := b.code[:c.reserve]
		build(&b, c.n)
		got, err := b.Program("loop")
		if err != nil {
			t.Fatal(err)
		}
		if got.Hash() != want.Hash() {
			t.Errorf("reserve %d: program differs from the unreserved build", c.reserve)
		}
		if shared := &got.Code[0] == &buf[0]; shared != (c.reserve == c.n) {
			t.Errorf("reserve %d: code shared with the build buffer = %v for %d instructions", c.reserve, shared, c.n)
		}
		if cap(got.Code) != got.Len() {
			t.Errorf("reserve %d: program code has capacity %d for %d instructions", c.reserve, cap(got.Code), got.Len())
		}
	}
}

func TestBuilderNumericTarget(t *testing.T) {
	var b Builder
	b.Branch(isa.OpBEQZ, 1, b.Abs(2))
	b.Nop()
	b.Halt()
	p, err := b.Program("n")
	if err != nil {
		t.Fatal(err)
	}
	if p.Code[0].Target != 2 {
		t.Errorf("target = %d, want 2", p.Code[0].Target)
	}

	b.Jmp(b.Abs(9))
	b.Halt()
	if _, err := b.Program("far"); err == nil || !strings.Contains(err.Error(), "out of range") {
		t.Errorf("numeric target past the end: err = %v, want out of range", err)
	}
}

func TestBuilderErrors(t *testing.T) {
	cases := []struct {
		name    string
		build   func(b *Builder)
		wantSub string
	}{
		{"unbound label", func(b *Builder) {
			b.Jmp(b.NewLabel())
			b.Halt()
		}, "never bound"},
		{"label bound twice", func(b *Builder) {
			l := b.NewLabel()
			b.Bind(l)
			b.Nop()
			b.Bind(l)
			b.Jmp(l)
			b.Halt()
		}, "bound twice"},
		{"bind of an unknown label", func(b *Builder) {
			b.Bind(Label(3))
			b.Halt()
		}, "unknown label"},
		{"jump to an unknown label", func(b *Builder) {
			b.Jmp(Label(-1))
			b.Halt()
		}, "unknown label"},
		{"wrong form", func(b *Builder) {
			b.Op3(isa.OpAddI, 1, 2, 3)
			b.Halt()
		}, "Op3 cannot encode addi"},
		{"branch op", func(b *Builder) {
			l := b.NewLabel()
			b.Bind(l)
			b.Branch(isa.OpJmp, 1, l)
			b.Halt()
		}, "Branch cannot encode jmp"},
		{"no halt", func(b *Builder) { b.Nop() }, "no halt"},
	}
	for _, tc := range cases {
		var b Builder
		tc.build(&b)
		p, err := b.Program(tc.name)
		if err == nil {
			t.Errorf("%s: built %d instructions, want an error", tc.name, p.Len())
			continue
		}
		if !strings.Contains(err.Error(), tc.wantSub) {
			t.Errorf("%s: error %q does not contain %q", tc.name, err, tc.wantSub)
		}
	}
}
