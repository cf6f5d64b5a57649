package stride

import (
	"testing"
	"testing/quick"
)

func TestBadGeometryPanics(t *testing.T) {
	for _, f := range []func(){
		func() { New(100, 4) },
		func() { New(0, 4) },
		func() { New(256, 0) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected panic")
				}
			}()
			f()
		}()
	}
}

func TestLearnsUnitStride(t *testing.T) {
	p := New(256, 4)
	pc := uint64(0x100)
	for i := 0; i < 5; i++ {
		p.Observe(pc, uint64(i*8))
	}
	e := p.Lookup(pc)
	if e == nil {
		t.Fatal("entry missing")
	}
	if e.Stride != 8 {
		t.Errorf("stride = %d, want 8", e.Stride)
	}
	if !e.Confident() {
		t.Errorf("should be confident after repeated stride, conf = %d", e.Conf)
	}
	if e.LastAddr != 32 {
		t.Errorf("last addr = %d, want 32", e.LastAddr)
	}
}

func TestConfidenceRampsAndSaturates(t *testing.T) {
	p := New(256, 4)
	pc := uint64(0x10)
	p.Observe(pc, 0) // allocate
	p.Observe(pc, 8) // stride=8, conf=0
	if e := p.Lookup(pc); e.Confident() {
		t.Error("one stride observation must not be confident")
	}
	p.Observe(pc, 16) // conf=1
	if e := p.Lookup(pc); e.Confident() {
		t.Error("conf=1 is not trusted (paper: trusted when > 1)")
	}
	p.Observe(pc, 24) // conf=2
	if e := p.Lookup(pc); !e.Confident() {
		t.Error("conf=2 should be trusted")
	}
	for i := 4; i < 10; i++ {
		p.Observe(pc, uint64(i*8))
	}
	if e := p.Lookup(pc); e.Conf != 3 {
		t.Errorf("conf should saturate at 3, got %d", e.Conf)
	}
}

func TestStrideChangeResetsConfidence(t *testing.T) {
	p := New(256, 4)
	pc := uint64(0x20)
	for i := 0; i < 6; i++ {
		p.Observe(pc, uint64(i*8))
	}
	p.Observe(pc, 1000) // irregular jump
	e := p.Lookup(pc)
	if e.Confident() {
		t.Error("stride change must reset confidence")
	}
	if e.LastAddr != 1000 {
		t.Errorf("last addr = %d, want 1000", e.LastAddr)
	}
}

func TestNegativeStride(t *testing.T) {
	p := New(256, 4)
	pc := uint64(0x30)
	for i := 10; i >= 0; i-- {
		p.Observe(pc, uint64(i*16))
	}
	e := p.Lookup(pc)
	if e.Stride != -16 {
		t.Errorf("stride = %d, want -16", e.Stride)
	}
	if !e.Confident() {
		t.Error("negative strides must gain confidence too")
	}
}

func TestNextAddrs(t *testing.T) {
	e := &Entry{LastAddr: 100, Stride: 8}
	got := e.NextAddrs(nil, 4)
	want := []uint64{108, 116, 124, 132}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("NextAddrs[%d] = %d, want %d", i, got[i], want[i])
		}
	}
	// Negative stride wraps via two's complement.
	e = &Entry{LastAddr: 100, Stride: -8}
	got = e.NextAddrs(nil, 2)
	if got[0] != 92 || got[1] != 84 {
		t.Errorf("negative NextAddrs = %v", got)
	}
}

func TestSFlagPersistsAcrossObserve(t *testing.T) {
	p := New(256, 4)
	pc := uint64(0x40)
	p.Observe(pc, 0)
	p.Lookup(pc).S = true
	p.Observe(pc, 8)
	if !p.Lookup(pc).S {
		t.Error("S flag must survive training updates")
	}
}

func TestEvictionDropsS(t *testing.T) {
	p := New(1, 2)
	p.Observe(0x1, 0)
	p.Lookup(0x1).S = true
	p.Observe(0x2, 0)
	p.Observe(0x1, 8) // touch 0x1 so 0x2 is LRU
	p.Observe(0x3, 0) // evicts 0x2
	if p.Lookup(0x2) != nil {
		t.Error("0x2 should be evicted")
	}
	if !p.Lookup(0x1).S {
		t.Error("0x1's S flag should persist")
	}
	// Now evict 0x1 and confirm a fresh allocation has S clear.
	p.Observe(0x3, 8)
	p.Observe(0x4, 0) // evicts 0x1
	if p.Lookup(0x1) != nil {
		t.Error("0x1 should be evicted")
	}
	p.Observe(0x1, 0) // reallocate
	if p.Lookup(0x1).S {
		t.Error("reallocated entry must not inherit S")
	}
}

func TestSizeBytes(t *testing.T) {
	// §3.1: "The stride predictor occupies 24576 bytes (4 ways * 256
	// elements per way * 24 bytes per element)".
	p := New(256, 4)
	if got := p.SizeBytes(); got != 24576 {
		t.Errorf("size = %d, want 24576", got)
	}
}

func TestReset(t *testing.T) {
	p := New(256, 4)
	p.Observe(0x50, 0)
	p.Reset(256, 4)
	if p.Lookup(0x50) != nil || p.clock != 0 {
		t.Error("reset should drop entries and the LRU clock")
	}
	p.Reset(64, 2)
	if p.SizeBytes() != 64*2*24 || len(p.ways) != 128 {
		t.Errorf("reset to 64x2 left %d ways", len(p.ways))
	}
}

// Property: confidence stays in 0..3, and after two identical strides the
// predictor always reports that stride.
func TestStrideProperties(t *testing.T) {
	f := func(pc uint16, start uint32, stride int16, reps uint8) bool {
		if stride == 0 {
			return true
		}
		p := New(64, 2)
		addr := uint64(start)
		p.Observe(uint64(pc), addr)
		n := int(reps%8) + 3
		for i := 0; i < n; i++ {
			addr += uint64(stride)
			p.Observe(uint64(pc), addr)
		}
		e := p.Lookup(uint64(pc))
		if e == nil {
			return false
		}
		return e.Stride == int64(stride) && e.Conf <= 3 && e.Confident()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}
