package mem

import (
	"testing"
	"testing/quick"
)

func TestZeroValueUsable(t *testing.T) {
	var m Memory
	if got := m.Read64(0x1000); got != 0 {
		t.Errorf("zero-value read = %d, want 0", got)
	}
	m.Write64(0x1000, 7)
	if got := m.Read64(0x1000); got != 7 {
		t.Errorf("read after write = %d, want 7", got)
	}
}

func TestReadUnmappedIsZero(t *testing.T) {
	m := New()
	for _, addr := range []uint64{0, 8, 1 << 20, 1 << 40, ^uint64(0) - 7} {
		if got := m.Read64(addr); got != 0 {
			t.Errorf("Read64(%#x) = %d, want 0", addr, got)
		}
	}
	if m.PagesAllocated() != 0 {
		t.Errorf("reads must not allocate pages, got %d", m.PagesAllocated())
	}
}

func TestWriteReadRoundTrip(t *testing.T) {
	m := New()
	m.Write64(0x100, 42)
	m.Write64(0x108, 43)
	if got := m.Read64(0x100); got != 42 {
		t.Errorf("Read64(0x100) = %d", got)
	}
	if got := m.Read64(0x108); got != 43 {
		t.Errorf("Read64(0x108) = %d", got)
	}
}

func TestWordAlignmentTruncation(t *testing.T) {
	m := New()
	m.Write64(0x100, 99)
	for off := uint64(0); off < 8; off++ {
		if got := m.Read64(0x100 + off); got != 99 {
			t.Errorf("Read64(0x100+%d) = %d, want 99 (same word)", off, got)
		}
	}
	m.Write64(0x105, 7) // same word as 0x100
	if got := m.Read64(0x100); got != 7 {
		t.Errorf("misaligned write must hit containing word, got %d", got)
	}
}

func TestCrossPageIndependence(t *testing.T) {
	m := New()
	m.Write64(0xFF8, 1)  // last word of page 0
	m.Write64(0x1000, 2) // first word of page 1
	if m.Read64(0xFF8) != 1 || m.Read64(0x1000) != 2 {
		t.Error("adjacent words across a page boundary interfere")
	}
	if m.PagesAllocated() != 2 {
		t.Errorf("expected 2 pages, got %d", m.PagesAllocated())
	}
}

func TestClone(t *testing.T) {
	m := New()
	m.Write64(0x10, 5)
	m.Write64(0x2000, 6)
	c := m.Clone()
	if c.Read64(0x10) != 5 || c.Read64(0x2000) != 6 {
		t.Error("clone missing data")
	}
	c.Write64(0x10, 99)
	if m.Read64(0x10) != 5 {
		t.Error("clone write leaked into original")
	}
	m.Write64(0x2000, 77)
	if c.Read64(0x2000) != 6 {
		t.Error("original write leaked into clone")
	}
}

func TestChecksumProperties(t *testing.T) {
	a := New()
	b := New()
	if a.Checksum() != b.Checksum() {
		t.Error("empty memories must have equal checksums")
	}
	a.Write64(0x100, 1)
	if a.Checksum() == b.Checksum() {
		t.Error("checksum must change after a write")
	}
	b.Write64(0x100, 1)
	if a.Checksum() != b.Checksum() {
		t.Error("identical contents must have identical checksums")
	}
	// Zero writes must not affect the checksum (mapped zero == unmapped).
	b.Write64(0x9000, 0)
	if a.Checksum() != b.Checksum() {
		t.Error("writing zero must not change checksum")
	}
	// Order independence.
	c := New()
	c.Write64(0x200, 2)
	c.Write64(0x100, 1)
	d := New()
	d.Write64(0x100, 1)
	d.Write64(0x200, 2)
	if c.Checksum() != d.Checksum() {
		t.Error("checksum must be order independent")
	}
}

// Property: Memory agrees with a plain map model under random operations.
// Half the operations land on pages that share one TLB entry, so they
// evict each other and exercise the page-table path.
func TestMemoryMatchesMapModel(t *testing.T) {
	colliding := collidingKeys(4)
	f := func(ops []struct {
		Addr    uint64
		Val     uint64
		Write   bool
		Collide bool
	}) bool {
		m := New()
		model := map[uint64]uint64{}
		for _, op := range ops {
			a := op.Addr &^ 7
			if op.Collide {
				a = colliding[a>>pageShift%4]<<pageShift | a&(pageBytes-8)
			}
			if op.Write {
				m.Write64(a, op.Val)
				model[a] = op.Val
			} else if m.Read64(a) != model[a] {
				return false
			}
		}
		for a, v := range model {
			if m.Read64(a) != v {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// Property: Clone is always an exact, independent copy.
func TestClonePropery(t *testing.T) {
	f := func(addrs []uint64, vals []uint64) bool {
		m := New()
		n := len(addrs)
		if len(vals) < n {
			n = len(vals)
		}
		for i := 0; i < n; i++ {
			m.Write64(addrs[i], vals[i])
		}
		c := m.Clone()
		return c.Checksum() == m.Checksum()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}
