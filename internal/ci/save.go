package ci

import (
	"civect/internal/ckpt"
	"civect/internal/isa"
)

// Checkpoint serialization for the CI structures, one walk per
// structure for both directions. The SRSMT is the one table in the
// machine whose state is pointer-shaped — operand references cache
// producer ways, consumer chains hold entry pointers — so everything
// pointer-valued is encoded as its way index and re-linked against the
// restored table's fixed way storage on load. Dead references (a
// consumer chained to a since-recycled way) are preserved verbatim:
// they influence chain-compaction thresholds and wake iteration, so
// dropping them would perturb a restored run.

// WalkInstr saves or loads an instruction.
func WalkInstr(c *ckpt.Codec, in *isa.Instr) {
	c.U8((*uint8)(&in.Op))
	c.U8((*uint8)(&in.Rd))
	c.U8((*uint8)(&in.Ra))
	c.U8((*uint8)(&in.Rb))
	c.I64(&in.Imm)
	c.Int(&in.Target)
}

// WalkRef saves or loads an entry pointer as its way index, -1 for nil.
// A load re-links the index against t's ways and fails, naming what,
// when it is out of range; t may be nil, a table with no ways.
func (t *SRSMT) WalkRef(c *ckpt.Codec, e **Entry, what string) {
	w := -1
	if *e != nil {
		w = int((*e).way)
	}
	c.Int(&w)
	if !c.Decoding() {
		return
	}
	*e = nil
	n := 0
	if t != nil {
		n = len(t.ways)
	}
	if w >= n {
		c.Fail("%s way %d out of range (%d ways)", what, w, n)
	} else if w >= 0 {
		*e = &t.ways[w]
	}
}

// Walk saves or loads the whole table. A load needs identical geometry
// and a freshly reset table (all ways invalid). The validity bitmap is
// rebuilt from the entries; only valid entries are stored, in way
// order.
func (t *SRSMT) Walk(c *ckpt.Codec) {
	c.Tag("srsmt")
	if !c.Size(t.sets, "SRSMT sets") || !c.Size(t.assoc, "SRSMT associativity") {
		return
	}
	c.U64(&t.clock)
	c.U64(&t.gen)
	ckpt.Slice(c, &t.present, c.U64)
	nvalid := 0
	for i := range t.ways {
		if t.headers[i].Valid {
			nvalid++
		}
	}
	c.Count(&nvalid)
	w := -1
	for k := 0; k < nvalid; k++ {
		if !c.Decoding() {
			for w++; !t.headers[w].Valid; w++ {
			}
		}
		c.Int(&w)
		if c.Err() != nil {
			return
		}
		if w < 0 || w >= len(t.ways) {
			c.Fail("SRSMT way %d out of range (%d ways)", w, len(t.ways))
			return
		}
		if c.Decoding() {
			t.headers[w].Valid = true
			t.valid[w>>6] |= 1 << (uint(w) & 63)
		}
		t.walkEntry(c, &t.ways[w])
	}
}

func (t *SRSMT) walkEntry(c *ckpt.Codec, ent *Entry) {
	h := ent.TurnHeader
	c.Bool(&h.SeedCaptured)
	c.Bool(&h.SeedBroken)
	c.Bool(&h.Listed)
	c.U8(&h.Idle)
	c.U8(&h.NSrc)
	c.U64(&h.Gen)
	c.U64(&h.ActiveMask)
	c.U64(&h.BlockedMask)
	c.U64(&h.IssuedMask)
	c.U64(&h.NextDone)
	c.Int(&h.Issue)
	c.Int(&h.Pending)
	c.Int(&h.NRegs)
	c.Int(&h.Decode)
	c.Int(&h.Commit)
	c.Int(&h.Alloc)
	c.Int(&h.SeedPhys)
	c.U64(&h.Stamp)

	c.Bool(&ent.IsLoad)
	ckpt.Slice(c, &ent.Replicas, func(r *Replica) {
		c.U8((*uint8)(&r.State))
		c.Int(&r.Abs)
		c.Int(&r.Dest)
		c.U64(&r.Value)
		c.U64(&r.Addr)
		c.U64(&r.DoneAt)
	})
	ckpt.Slice(c, &ent.Consumers, func(r *ConsumerRef) {
		t.WalkRef(c, &r.Ent, "consumer")
		if c.Err() == nil && r.Ent == nil {
			c.Fail("consumer chained to no entry")
		}
		c.U64(&r.Gen)
	})
	c.U64(&ent.PC)
	WalkInstr(c, &ent.Instr)
	c.I64(&ent.Stride)
	c.U64(&ent.BatchBase)
	t.walkOperand(c, &ent.Src1)
	t.walkOperand(c, &ent.Src2)
	c.U64(&ent.CreatorSeq)
	c.Int(&ent.DAEC)
	c.Bool(&ent.HasRange)
	c.U64(&ent.RangeLo)
	c.U64(&ent.RangeHi)
	c.U64(&ent.Episode)
	c.U64(&ent.lru)
}

// walkOperand saves or loads one seq1/seq2 slot; the cached producer
// pointer travels as its way index.
func (t *SRSMT) walkOperand(c *ckpt.Codec, o *OperandRef) {
	c.U8((*uint8)(&o.Kind))
	c.U64(&o.Value)
	c.U64(&o.PC)
	c.U64(&o.Gen)
	t.WalkRef(c, &o.Prod, "operand producer")
	c.Int(&o.Base)
}

// Walk saves or loads the NRBQ; a load needs the same capacity.
func (q *NRBQ) Walk(c *ckpt.Codec) {
	c.Tag("nrbq")
	if !c.Size(len(q.entries), "NRBQ capacity") {
		return
	}
	c.Int(&q.n)
	if q.n < 0 || q.n > len(q.entries) {
		c.Fail("NRBQ live count %d out of range (capacity %d)", q.n, len(q.entries))
		q.n = 0
		return
	}
	for i := 0; i < q.n; i++ {
		en := &q.entries[i]
		c.U64(&en.Seq)
		c.U64(&en.BranchPC)
		c.Int(&en.ReconvPC)
		c.U64((*uint64)(&en.Mask))
		c.Bool(&en.used)
	}
}
