package bpred

import (
	"fmt"

	"civect/internal/ckpt"
)

// Checkpoint serialization: warm predictor state. Every counter, the
// global history register and the MBS LRU clock round-trip exactly — a
// restored run's prediction stream, and so its misprediction recoveries
// and CI episodes, must match the uninterrupted run bit-for-bit.

// SaveState encodes the gshare predictor.
func (g *Gshare) SaveState(e *ckpt.Encoder) {
	e.Tag("gshare")
	e.Int(len(g.table))
	for _, c := range g.table {
		e.U8(c)
	}
	e.U64(g.history)
}

// LoadState restores state saved from a predictor with the same entry
// count.
func (g *Gshare) LoadState(d *ckpt.Decoder) {
	d.Tag("gshare")
	n := d.Int()
	if d.Err() != nil {
		return
	}
	if n != len(g.table) {
		d.Fail("gshare size mismatch: checkpoint has %d entries, predictor has %d", n, len(g.table))
		return
	}
	for i := range g.table {
		g.table[i] = d.U8()
	}
	g.history = d.U64()
}

// SaveState encodes the MBS table.
func (m *MBS) SaveState(e *ckpt.Encoder) {
	e.Tag("mbs")
	e.Int(len(m.ways))
	for i := range m.ways {
		w := &m.ways[i]
		e.U64(w.pc)
		e.Bool(w.valid)
		e.U8(w.counter)
		e.Bool(w.prev)
		e.Bool(w.seen)
		e.U64(w.lru)
	}
	e.U64(m.clock)
}

// LoadState restores state saved from a table with the same geometry.
func (m *MBS) LoadState(d *ckpt.Decoder) {
	d.Tag("mbs")
	n := d.Int()
	if d.Err() != nil {
		return
	}
	if n != len(m.ways) {
		d.Fail("MBS geometry mismatch: checkpoint has %d ways, table has %d", n, len(m.ways))
		return
	}
	for i := range m.ways {
		w := &m.ways[i]
		w.pc = d.U64()
		w.valid = d.Bool()
		w.counter = d.U8()
		w.prev = d.Bool()
		w.seen = d.Bool()
		w.lru = d.U64()
	}
	m.clock = d.U64()
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
