package isa

import (
	"slices"
	"sync"
	"testing"
)

func decodeFixture() *Program {
	return &Program{Name: "fixture", Code: []Instr{
		{Op: OpMovI, Rd: 1, Imm: 5},
		{Op: OpLd, Rd: 2, Ra: 1, Imm: 8},
		{Op: OpAdd, Rd: 3, Ra: 1, Rb: 2},
		{Op: OpSt, Ra: 1, Rb: 3},
		{Op: OpBEQZ, Ra: 3, Target: 0},
		{Op: OpJmp, Target: 6},
		{Op: OpHalt},
	}}
}

// TestDecodeMatchesInstr: every decoded entry agrees with the Instr
// classification methods it caches.
func TestDecodeMatchesInstr(t *testing.T) {
	p := decodeFixture()
	table, err := p.Decode()
	if err != nil {
		t.Fatal(err)
	}
	for pc, in := range p.Code {
		d := &table[pc]
		dest, hasDest := in.WritesReg()
		if d.IsLoad() != in.IsLoad() || d.IsStore() != in.IsStore() || d.IsMem() != in.IsMem() ||
			d.IsCondBranch() != in.IsCondBranch() || d.IsJump() != in.IsJump() || d.IsControl() != in.IsControl() ||
			d.HasDest() != hasDest || (hasDest && d.Dest() != dest) || !slices.Equal(d.Srcs(), in.SrcRegs(nil)) {
			t.Errorf("pc %d (%v): decoded %+v disagrees with the instruction", pc, in, *d)
		}
	}
}

// TestDecodeOnce: the table and digest are computed once per program and
// shared by every caller, including concurrent ones; an invalid program
// reports its validation error on every call.
func TestDecodeOnce(t *testing.T) {
	p := decodeFixture()
	tables := make([][]Decoded, 4)
	hashes := make([]uint64, 4)
	var wg sync.WaitGroup
	for i := range tables {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			tables[i], _ = p.Decode()
			hashes[i] = p.Hash()
		}(i)
	}
	wg.Wait()
	for i := range tables {
		if &tables[i][0] != &tables[0][0] || hashes[i] != hashes[0] {
			t.Fatalf("caller %d got a different decode table or hash", i)
		}
	}

	twin := decodeFixture()
	if twin.Hash() != p.Hash() {
		t.Error("identical programs hash differently")
	}
	other := decodeFixture()
	other.Code[0].Imm++
	if other.Hash() == p.Hash() {
		t.Error("a changed immediate does not change the hash")
	}

	bad := &Program{Code: []Instr{{Op: OpNop}}}
	for i := 0; i < 2; i++ {
		if table, err := bad.Decode(); err == nil || table != nil {
			t.Fatalf("call %d: Decode of a program without halt = (%v, %v), want a validation error", i, table, err)
		}
	}
}
