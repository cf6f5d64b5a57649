package asm

import "testing"

// FuzzAssemble holds the text front-end to its contract on arbitrary
// input: an error, or a program that validates and whose disassembly
// re-assembles to the same instructions — never a panic. The seed
// corpus lives in testdata/fuzz/FuzzAssemble.
func FuzzAssemble(f *testing.F) {
	f.Fuzz(func(t *testing.T, src string) {
		p, err := Assemble("fuzz", src)
		if err != nil {
			if p != nil {
				t.Fatalf("error %v came with a program", err)
			}
			return
		}
		if err := p.Validate(); err != nil {
			t.Fatalf("assembled an invalid program: %v", err)
		}
		var dis []byte
		for _, in := range p.Code {
			dis = append(dis, in.String()...)
			dis = append(dis, '\n')
		}
		q, err := Assemble("fuzz", string(dis))
		if err != nil {
			t.Fatalf("disassembly does not re-assemble: %v\n%s", err, dis)
		}
		if q.Hash() != p.Hash() {
			t.Fatalf("disassembly re-assembles differently:\n%s\nvs\n%s", p.Disassemble(), q.Disassemble())
		}
	})
}
