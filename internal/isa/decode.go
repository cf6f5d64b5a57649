package isa

import "sync"

// Decoding: a simulator's hot stages need every instruction's class and
// operands each cycle, so instead of re-deriving them with per-opcode
// switches they index a table built once per program. The table, the
// validation verdict it depends on and the program digest are derived
// on first use and kept with the Program, which is why its Code must not
// change after that.

type decodedFlags uint8

const (
	dLoad decodedFlags = 1 << iota
	dStore
	dCondBr
	dJump
	dControl
	dMem
	dHasDest
)

// Decoded is one instruction's pre-decoded static properties: its class
// flags, destination and source registers.
type Decoded struct {
	srcs  [2]Reg
	nsrc  uint8
	dest  Reg
	flags decodedFlags
}

// The class predicates answer as the Instr methods of the same names do.

func (d *Decoded) IsLoad() bool       { return d.flags&dLoad != 0 }
func (d *Decoded) IsStore() bool      { return d.flags&dStore != 0 }
func (d *Decoded) IsCondBranch() bool { return d.flags&dCondBr != 0 }
func (d *Decoded) IsJump() bool       { return d.flags&dJump != 0 }
func (d *Decoded) IsControl() bool    { return d.flags&dControl != 0 }
func (d *Decoded) IsMem() bool        { return d.flags&dMem != 0 }
func (d *Decoded) HasDest() bool      { return d.flags&dHasDest != 0 }

// Dest returns the destination register (meaningful when HasDest).
func (d *Decoded) Dest() Reg { return d.dest }

// Srcs returns the source registers; the result aliases the table and
// must not be mutated.
func (d *Decoded) Srcs() []Reg { return d.srcs[:d.nsrc] }

// DecodeInstr decodes one instruction.
func DecodeInstr(in Instr) Decoded {
	var d Decoded
	if in.IsLoad() {
		d.flags |= dLoad
	}
	if in.IsStore() {
		d.flags |= dStore
	}
	if in.IsCondBranch() {
		d.flags |= dCondBr
	}
	if in.IsJump() {
		d.flags |= dJump
	}
	if in.IsControl() {
		d.flags |= dControl
	}
	if in.IsMem() {
		d.flags |= dMem
	}
	if dest, ok := in.WritesReg(); ok {
		d.flags |= dHasDest
		d.dest = dest
	}
	var scratch [2]Reg
	d.nsrc = uint8(copy(d.srcs[:], in.SrcRegs(scratch[:0])))
	return d
}

// derived is what a Program computes once about itself.
type derived struct {
	decodeOnce sync.Once
	table      []Decoded
	err        error

	hashOnce sync.Once
	hash     uint64
}

// Decode validates the program and returns its per-PC decode table, both
// computed on the first call and shared read-only by every later caller
// (so any number of simulators may decode one program concurrently). The
// table must not be mutated.
func (p *Program) Decode() ([]Decoded, error) {
	p.derived.decodeOnce.Do(func() {
		if p.derived.err = p.Validate(); p.derived.err != nil {
			return
		}
		p.derived.table = make([]Decoded, len(p.Code))
		for pc, in := range p.Code {
			p.derived.table[pc] = DecodeInstr(in)
		}
	})
	return p.derived.table, p.derived.err
}

// Hash digests the program (its name and every instruction field) so a
// checkpoint can refuse restoration over the wrong program. It is
// computed on the first call.
func (p *Program) Hash() uint64 {
	p.derived.hashOnce.Do(func() {
		const (
			offset = 0xcbf29ce484222325
			prime  = 0x00000100000001b3
		)
		h := uint64(offset)
		mix := func(v uint64) {
			for i := 0; i < 8; i++ {
				h ^= (v >> (8 * i)) & 0xff
				h *= prime
			}
		}
		for _, c := range []byte(p.Name) {
			h ^= uint64(c)
			h *= prime
		}
		for _, in := range p.Code {
			mix(uint64(in.Op) | uint64(in.Rd)<<8 | uint64(in.Ra)<<16 | uint64(in.Rb)<<24)
			mix(uint64(in.Imm))
			mix(uint64(in.Target))
		}
		p.derived.hash = h
	})
	return p.derived.hash
}
