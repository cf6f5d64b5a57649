package regfile

import "civect/internal/ckpt"

// Checkpoint serialization. The free lists are stored verbatim, in
// order: allocation pops from the tail, so free-list order determines
// which physical register every future rename receives — restoring it
// exactly is what makes a restored run allocate bit-identically to the
// uninterrupted one. The occupancy accumulators round-trip exactly too,
// so end-of-run RegAvgInUse matches to the last bit.

// SaveState encodes the register file.
func (f *File) SaveState(e *ckpt.Encoder) {
	e.Tag("regfile")
	e.Bool(f.bounded)
	e.Int(len(f.regs))
	for i := range f.regs {
		e.U64(f.regs[i].val)
		e.Bool(f.regs[i].ready)
		e.Bool(f.regs[i].alloced)
	}
	e.Int(len(f.free))
	for _, r := range f.free {
		e.Int(r)
	}
	e.Int(f.inUse)
	e.Int(f.peak)
	e.U64(f.occSum)
	e.U64(f.occSamples)
}

// LoadFile decodes a register file written by SaveState.
func LoadFile(d *ckpt.Decoder) *File {
	d.Tag("regfile")
	f := &File{bounded: d.Bool()}
	nregs := d.Count()
	f.regs = make([]reg, nregs)
	for i := range f.regs {
		f.regs[i].val = d.U64()
		f.regs[i].ready = d.Bool()
		f.regs[i].alloced = d.Bool()
	}
	nfree := d.Count()
	f.free = make([]int, nfree)
	onList := make([]bool, nregs)
	for i := range f.free {
		r := d.Int()
		if r < 0 || r >= nregs || onList[r] || f.regs[r].alloced {
			d.Fail("free-list register %d out of range, repeated or allocated (file size %d)", r, nregs)
			return f
		}
		f.free[i], onList[r] = r, true
	}
	f.inUse = d.Int()
	f.peak = d.Int()
	f.occSum = d.U64()
	f.occSamples = d.U64()
	return f
}

// SaveState encodes the speculative data memory.
func (s *SpecMem) SaveState(e *ckpt.Encoder) {
	e.Tag("specmem")
	e.Int(s.size)
	e.Int(s.latency)
	for i := 0; i < s.size; i++ {
		e.U64(s.vals[i])
		e.Bool(s.ready[i])
		e.Bool(s.alloced[i])
	}
	e.Int(len(s.free))
	for _, p := range s.free {
		e.Int(p)
	}
	e.Int(s.inUse)
}

// LoadSpecMem decodes a speculative data memory written by SaveState.
// The per-cycle port budgets are not part of the state: BeginCycle
// resets them before any access on the first restored cycle.
func LoadSpecMem(d *ckpt.Decoder) *SpecMem {
	d.Tag("specmem")
	size := d.Int()
	latency := d.Int()
	if d.Err() != nil {
		return nil
	}
	// Every position costs the payload 10 bytes, so a size the rest of
	// it cannot hold is rejected before anything is allocated.
	if size <= 0 || size > d.Remaining()/10 {
		d.Fail("spec memory size %d out of range", size)
		return nil
	}
	s := NewSpecMem(size, latency)
	for i := 0; i < size; i++ {
		s.vals[i] = d.U64()
		s.ready[i] = d.Bool()
		s.alloced[i] = d.Bool()
	}
	nfree := d.Count()
	s.free = s.free[:0]
	onList := make([]bool, size)
	for i := 0; i < nfree; i++ {
		p := d.Int()
		if p < 0 || p >= size || onList[p] || s.alloced[p] {
			d.Fail("spec memory free-list position %d out of range, repeated or allocated (size %d)", p, size)
			return s
		}
		onList[p] = true
		s.free = append(s.free, p)
	}
	s.inUse = d.Int()
	return s
}
