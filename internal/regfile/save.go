package regfile

import "civect/internal/ckpt"

// Checkpoint serialization, one walk per structure for both directions.
// The free lists are stored verbatim, in order: allocation pops from the
// tail, so free-list order determines which physical register every
// future rename receives — restoring it exactly is what makes a
// restored run allocate bit-identically to the uninterrupted one. The
// occupancy accumulators round-trip exactly too, so end-of-run
// RegAvgInUse matches to the last bit.

// Walk saves or loads the register file. A load takes the checkpoint's
// size; the caller checks it against the configuration.
func (f *File) Walk(c *ckpt.Codec) {
	c.Tag("regfile")
	c.Bool(&f.bounded)
	ckpt.Slice(c, &f.regs, func(r *reg) {
		c.U64(&r.val)
		c.Bool(&r.ready)
		c.Bool(&r.alloced)
	})
	ckpt.Slice(c, &f.free, c.Int)
	if c.Decoding() {
		checkFree(c, f.free, len(f.regs), func(r int) bool { return f.regs[r].alloced }, "free-list register")
	}
	c.Int(&f.inUse)
	c.Int(&f.peak)
	c.U64(&f.occSum)
	c.U64(&f.occSamples)
}

// Walk saves or loads the speculative data memory; a load needs the
// same size and latency. The per-cycle port budgets are not part of the
// state: BeginCycle resets them before any access on the first restored
// cycle.
func (s *SpecMem) Walk(c *ckpt.Codec) {
	c.Tag("specmem")
	if !c.Size(s.size, "spec memory size") || !c.Size(s.latency, "spec memory latency") {
		return
	}
	for i := 0; i < s.size; i++ {
		c.U64(&s.vals[i])
		c.Bool(&s.ready[i])
		c.Bool(&s.alloced[i])
	}
	ckpt.Slice(c, &s.free, c.Int)
	if c.Decoding() {
		checkFree(c, s.free, s.size, func(p int) bool { return s.alloced[p] }, "spec memory free-list position")
	}
	c.Int(&s.inUse)
}

// checkFree fails c unless every entry of a decoded free list is in
// [0, n), listed once and not allocated.
func checkFree(c *ckpt.Codec, free []int, n int, alloced func(int) bool, what string) {
	on := make([]bool, n)
	for _, r := range free {
		if r < 0 || r >= n || on[r] || alloced(r) {
			c.Fail("%s %d out of range, repeated or allocated (size %d)", what, r, n)
			return
		}
		on[r] = true
	}
}
