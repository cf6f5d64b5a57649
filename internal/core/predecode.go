package core

import "civect/internal/isa"

// Pre-decode: the static program never changes, so the hot stages
// (fetch, rename, issue, complete, commit) index the program's decode
// table by PC instead of re-deriving every instruction's properties with
// per-opcode switches each cycle. The table is built once per program
// (isa.Program.Decode) and shared by every processor over it.

// haltMeta mirrors Program.At's out-of-image behaviour: wrong-path
// fetch past the end reads as halt.
var haltMeta = isa.DecodeInstr(isa.Instr{Op: isa.OpHalt})

// metaAt returns the pre-decoded metadata for pc.
func (p *Proc) metaAt(pc int) *isa.Decoded {
	if pc < 0 || pc >= len(p.imeta) {
		return &haltMeta
	}
	return &p.imeta[pc]
}
