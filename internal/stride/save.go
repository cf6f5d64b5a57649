package stride

import (
	"fmt"

	"civect/internal/ckpt"
)

// Checkpoint serialization: the warm stride table, LRU stamps and clock
// included — replacement decisions after a restore must match the
// uninterrupted run's exactly.

// Walk saves or loads the predictor; a load needs the same geometry.
func (p *Predictor) Walk(c *ckpt.Codec) {
	c.Tag("stride")
	if !c.Size(len(p.ways), "stride ways") {
		return
	}
	for i := range p.ways {
		w := &p.ways[i]
		c.U64(&w.PC)
		c.U64(&w.LastAddr)
		c.I64(&w.Stride)
		c.U8(&w.Conf)
		c.Bool(&w.S)
		c.Bool(&w.valid)
		c.U64(&w.lru)
	}
	c.U64(&p.clock)
}

// CopyFrom overwrites p's state with src's — the warm-state transplant,
// without a round trip through bytes. The geometries must match.
func (p *Predictor) CopyFrom(src *Predictor) error {
	if len(src.ways) != len(p.ways) {
		return fmt.Errorf("stride geometry mismatch: source has %d ways, predictor has %d", len(src.ways), len(p.ways))
	}
	copy(p.ways, src.ways)
	p.clock = src.clock
	return nil
}
