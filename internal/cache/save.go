package cache

import (
	"encoding/binary"
	"fmt"

	"civect/internal/ckpt"
)

// Checkpoint serialization, one walk per structure for both directions.
// Caches are timing state — tags, LRU stamps,
// hit/miss counters — and all of it must round-trip exactly: a restored
// run's every future hit/miss decision, and therefore every latency,
// depends on it. State loads into an already-constructed cache (the
// configuration travels in the processor section of the checkpoint), so
// geometry is checked, not rebuilt.

// Walk saves or loads the cache's lines, clock and statistics; a load
// needs identical geometry.
func (c *Cache) Walk(k *ckpt.Codec) {
	k.Tag("cache")
	if !k.Size(len(c.lines), "cache lines") {
		return
	}
	if k.Decoding() {
		c.decodeLines(k)
	} else {
		for i := range c.lines {
			l := &c.lines[i]
			k.U64(&l.tag)
			k.Bool(&l.valid)
			k.Bool(&l.dirty)
			k.U64(&l.lru)
		}
	}
	k.U64(&c.clock)
	k.U64(&c.Stats.Accesses)
	k.U64(&c.Stats.Hits)
	k.U64(&c.Stats.Misses)
}

// decodeLines is the lines' decoding half of Walk, in bulk: restoring a
// sample decodes every line of four caches ahead of the sample, so the
// lines are read as one block rather than field by field. Each line is
// tag, valid, dirty, lru: 18 bytes.
func (c *Cache) decodeLines(k *ckpt.Codec) {
	const lineBytes = 18
	base := k.Offset()
	b := k.Raw(len(c.lines) * lineBytes)
	if b == nil {
		return
	}
	for i := range c.lines {
		l := b[i*lineBytes : (i+1)*lineBytes]
		for _, j := range []int{8, 9} {
			if l[j] > 1 {
				k.Fail("malformed bool at offset %d", base+i*lineBytes+j)
				return
			}
		}
		c.lines[i] = line{
			tag:   binary.LittleEndian.Uint64(l),
			valid: l[8] == 1,
			dirty: l[9] == 1,
			lru:   binary.LittleEndian.Uint64(l[10:]),
		}
	}
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

// Walk saves or loads the hierarchy: its cycle cursor, in-flight
// misses, wide-bus line latches, and all four cache levels. A load
// needs an identical configuration.
func (h *Hierarchy) Walk(c *ckpt.Codec) {
	c.Tag("hier")
	c.U64(&h.cycle)
	c.Int(&h.portsUsed)
	ckpt.Slice(c, &h.missFreeAt, c.U64)
	if !c.Size(len(h.wideBuf), "wide-bus latches") {
		return
	}
	for i := range h.wideBuf {
		wb := &h.wideBuf[i]
		c.Bool(&wb.valid)
		c.U64(&wb.addr)
		c.Int(&wb.served)
		c.U64(&wb.readyAt)
		c.U64(&wb.lru)
	}
	h.L1I.Walk(c)
	h.L1D.Walk(c)
	h.L2.Walk(c)
	h.L3.Walk(c)
}
