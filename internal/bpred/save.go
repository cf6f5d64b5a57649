package bpred

import (
	"fmt"

	"civect/internal/ckpt"
)

// Checkpoint serialization: warm predictor state. Every counter, the
// global history register and the MBS LRU clock round-trip exactly — a
// restored run's prediction stream, and so its misprediction recoveries
// and CI episodes, must match the uninterrupted run bit-for-bit.

// Walk saves or loads the gshare predictor; a load needs the same
// entry count.
func (g *Gshare) Walk(c *ckpt.Codec) {
	c.Tag("gshare")
	if !c.Size(len(g.table), "gshare size") {
		return
	}
	c.Bytes(g.table)
	c.U64(&g.history)
}

// Walk saves or loads the MBS table; a load needs the same geometry.
func (m *MBS) Walk(c *ckpt.Codec) {
	c.Tag("mbs")
	if !c.Size(len(m.ways), "MBS ways") {
		return
	}
	for i := range m.ways {
		w := &m.ways[i]
		c.U64(&w.pc)
		c.Bool(&w.valid)
		c.U8(&w.counter)
		c.Bool(&w.prev)
		c.Bool(&w.seen)
		c.U64(&w.lru)
	}
	c.U64(&m.clock)
}

// CopyFrom overwrites g's state with src's — the warm-state transplant,
// without a round trip through bytes. The entry counts must match.
func (g *Gshare) CopyFrom(src *Gshare) error {
	if len(src.table) != len(g.table) {
		return fmt.Errorf("gshare size mismatch: source has %d entries, predictor has %d", len(src.table), len(g.table))
	}
	copy(g.table, src.table)
	g.history = src.history
	return nil
}

// CopyFrom overwrites m's state with src's; the geometries must match.
func (m *MBS) CopyFrom(src *MBS) error {
	if len(src.ways) != len(m.ways) {
		return fmt.Errorf("MBS geometry mismatch: source has %d ways, table has %d", len(src.ways), len(m.ways))
	}
	copy(m.ways, src.ways)
	m.clock = src.clock
	return nil
}
