package cache

import (
	"fmt"

	"civect/internal/ckpt"
)

// Checkpoint serialization. Caches are timing state — tags, LRU stamps,
// hit/miss counters — and all of it must round-trip exactly: a restored
// run's every future hit/miss decision, and therefore every latency,
// depends on it. State loads into an already-constructed cache (the
// configuration travels in the processor section of the checkpoint), so
// geometry is checked, not rebuilt.

// SaveState encodes the cache's lines, clock and statistics.
func (c *Cache) SaveState(e *ckpt.Encoder) {
	e.Tag("cache")
	e.Int(len(c.lines))
	for i := range c.lines {
		e.U64(c.lines[i].tag)
		e.Bool(c.lines[i].valid)
		e.Bool(c.lines[i].dirty)
		e.U64(c.lines[i].lru)
	}
	e.U64(c.clock)
	e.U64(c.Stats.Accesses)
	e.U64(c.Stats.Hits)
	e.U64(c.Stats.Misses)
}

// LoadState restores state saved from a cache with identical geometry.
func (c *Cache) LoadState(d *ckpt.Decoder) {
	d.Tag("cache")
	n := d.Int()
	if d.Err() != nil {
		return
	}
	if n != len(c.lines) {
		d.Fail("cache geometry mismatch: checkpoint has %d lines, cache has %d", n, len(c.lines))
		return
	}
	for i := range c.lines {
		c.lines[i].tag = d.U64()
		c.lines[i].valid = d.Bool()
		c.lines[i].dirty = d.Bool()
		c.lines[i].lru = d.U64()
	}
	c.clock = d.U64()
	c.Stats.Accesses = d.U64()
	c.Stats.Hits = d.U64()
	c.Stats.Misses = d.U64()
}

// CopyFrom overwrites c's lines, clock and statistics with src's — the
// warm-state transplant, without a round trip through bytes. The
// geometries must match.
func (c *Cache) CopyFrom(src *Cache) error {
	if len(src.lines) != len(c.lines) {
		return fmt.Errorf("cache geometry mismatch: source has %d lines, cache has %d", len(src.lines), len(c.lines))
	}
	copy(c.lines, src.lines)
	c.clock = src.clock
	c.Stats = src.Stats
	return nil
}

// SaveState encodes the hierarchy: its cycle cursor, in-flight misses,
// wide-bus line latches, and all four cache levels.
func (h *Hierarchy) SaveState(e *ckpt.Encoder) {
	e.Tag("hier")
	e.U64(h.cycle)
	e.Int(h.portsUsed)
	e.Int(len(h.missFreeAt))
	for _, t := range h.missFreeAt {
		e.U64(t)
	}
	e.Int(len(h.wideBuf))
	for i := range h.wideBuf {
		wb := &h.wideBuf[i]
		e.Bool(wb.valid)
		e.U64(wb.addr)
		e.Int(wb.served)
		e.U64(wb.readyAt)
		e.U64(wb.lru)
	}
	h.L1I.SaveState(e)
	h.L1D.SaveState(e)
	h.L2.SaveState(e)
	h.L3.SaveState(e)
}

// LoadState restores state saved from a hierarchy with identical
// configuration.
func (h *Hierarchy) LoadState(d *ckpt.Decoder) {
	d.Tag("hier")
	h.cycle = d.U64()
	h.portsUsed = d.Int()
	nmiss := d.Count()
	h.missFreeAt = h.missFreeAt[:0]
	for i := 0; i < nmiss; i++ {
		h.missFreeAt = append(h.missFreeAt, d.U64())
	}
	nwide := d.Int()
	if d.Err() != nil {
		return
	}
	if nwide != len(h.wideBuf) {
		d.Fail("wide-bus latch count mismatch: checkpoint has %d, hierarchy has %d", nwide, len(h.wideBuf))
		return
	}
	for i := range h.wideBuf {
		wb := &h.wideBuf[i]
		wb.valid = d.Bool()
		wb.addr = d.U64()
		wb.served = d.Int()
		wb.readyAt = d.U64()
		wb.lru = d.U64()
	}
	h.L1I.LoadState(d)
	h.L1D.LoadState(d)
	h.L2.LoadState(d)
	h.L3.LoadState(d)
}
