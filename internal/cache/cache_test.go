package cache

import (
	"reflect"
	"testing"
	"testing/quick"
)

func small() Config {
	return Config{SizeBytes: 256, LineBytes: 32, Assoc: 2, HitLat: 1, MissLat: 6}
}

func TestGeometry(t *testing.T) {
	c := New(small())
	if got := c.Config().Sets(); got != 4 {
		t.Fatalf("sets = %d, want 4", got)
	}
}

func TestBadGeometryPanics(t *testing.T) {
	cases := []Config{
		{SizeBytes: 192, LineBytes: 32, Assoc: 2}, // 3 sets: non-power-of-two
		{SizeBytes: 256, LineBytes: 24, Assoc: 2}, // non-power-of-two line
		{SizeBytes: 0, LineBytes: 32, Assoc: 2},   // zero sets
	}
	for i, cfg := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("case %d: expected panic", i)
				}
			}()
			New(cfg)
		}()
	}
}

func TestColdMissThenHit(t *testing.T) {
	c := New(small())
	hit, lat := c.Access(0x1000, false)
	if hit || lat != 7 {
		t.Errorf("cold access = (%v, %d), want (false, 7)", hit, lat)
	}
	hit, lat = c.Access(0x1000, false)
	if !hit || lat != 1 {
		t.Errorf("second access = (%v, %d), want (true, 1)", hit, lat)
	}
	// Same line, different word.
	hit, _ = c.Access(0x1018, false)
	if !hit {
		t.Error("same-line access should hit")
	}
	if c.Stats.Accesses != 3 || c.Stats.Hits != 2 || c.Stats.Misses != 1 {
		t.Errorf("stats = %+v", c.Stats)
	}
}

func TestLRUEviction(t *testing.T) {
	c := New(small()) // 4 sets, 2 ways, 32B lines; set stride = 128B
	// Three lines mapping to set 0: 0x000, 0x080, 0x100.
	c.Access(0x000, false)
	c.Access(0x080, false)
	c.Access(0x000, false) // touch 0x000 so 0x080 is LRU
	c.Access(0x100, false) // evicts 0x080
	if !c.Lookup(0x000) {
		t.Error("0x000 should still be resident")
	}
	if c.Lookup(0x080) {
		t.Error("0x080 should have been evicted (LRU)")
	}
	if !c.Lookup(0x100) {
		t.Error("0x100 should be resident")
	}
}

func TestLookupDoesNotTouch(t *testing.T) {
	c := New(small())
	c.Access(0x000, false)
	before := c.Stats
	c.Lookup(0x000)
	c.Lookup(0x999)
	if c.Stats != before {
		t.Error("Lookup must not update stats")
	}
}

// TestReset: a reset cache is cold — no line, clock or counter
// survives — and keeps its line array when the geometry keeps its size.
func TestReset(t *testing.T) {
	c := New(small())
	c.Access(0x0, false)
	lines := &c.lines[0]
	c.Reset(small())
	if c.Lookup(0x0) {
		t.Error("reset should invalidate")
	}
	if c.Stats != (Stats{}) || c.clock != 0 {
		t.Errorf("reset left stats %+v, clock %d", c.Stats, c.clock)
	}
	if &c.lines[0] != lines {
		t.Error("same-size reset reallocated the line array")
	}
	bigger := small()
	bigger.SizeBytes *= 2
	c.Reset(bigger)
	if len(c.lines) != bigger.Sets()*bigger.Assoc {
		t.Errorf("reset to %d sets left %d lines", bigger.Sets(), len(c.lines))
	}
}

func TestLineAddr(t *testing.T) {
	c := New(small())
	if got := c.LineAddr(0x1037); got != 0x1020 {
		t.Errorf("LineAddr = %#x, want 0x1020", got)
	}
}

// TestRepeatHitsMatchesAccesses: replaying a stream as runs of
// same-line reads, each one Access plus RepeatHits for the rest of the
// run, leaves lines, clock and statistics exactly as one Access per
// read does. Writes between the runs keep dirty lines in play.
func TestRepeatHitsMatchesAccesses(t *testing.T) {
	f := func(addrs []uint16, runs []uint8) bool {
		each, batched := New(small()), New(small())
		for i, a := range addrs {
			write := a%5 == 0
			k := 1
			if i < len(runs) {
				k += int(runs[i] % 8)
			}
			for range k {
				each.Access(uint64(a), write)
				write = false
			}
			batched.Access(uint64(a), a%5 == 0)
			// Any address of the line names it.
			batched.RepeatHits(batched.LineAddr(uint64(a)), uint64(k-1))
		}
		return reflect.DeepEqual(each, batched)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestRepeatHitsOnAbsentLinePanics(t *testing.T) {
	c := New(small())
	c.RepeatHits(0x1000, 0) // no hits: nothing to find
	defer func() {
		if recover() == nil {
			t.Error("RepeatHits on an absent line did not panic")
		}
	}()
	c.RepeatHits(0x1000, 1)
}

// Property: hits + misses == accesses, and re-accessing the same address
// immediately always hits.
func TestStatsInvariant(t *testing.T) {
	f := func(addrs []uint16) bool {
		c := New(small())
		for _, a := range addrs {
			c.Access(uint64(a), a%2 == 0)
			if hit, _ := c.Access(uint64(a), false); !hit {
				return false
			}
		}
		return c.Stats.Hits+c.Stats.Misses == c.Stats.Accesses
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestMissRate(t *testing.T) {
	var s Stats
	if s.MissRate() != 0 {
		t.Error("idle miss rate should be 0")
	}
	s = Stats{Accesses: 10, Hits: 7, Misses: 3}
	if got := s.MissRate(); got != 0.3 {
		t.Errorf("miss rate = %v, want 0.3", got)
	}
}

func TestHierarchyDefaults(t *testing.T) {
	cfg := DefaultHierConfig()
	if cfg.L1D.Sets() != 1024 { // 64KB / (32B * 2)
		t.Errorf("L1D sets = %d, want 1024", cfg.L1D.Sets())
	}
	if cfg.L1I.Sets() != 512 { // 64KB / (64B * 2)
		t.Errorf("L1I sets = %d, want 512", cfg.L1I.Sets())
	}
	if cfg.L2.Sets() != 2048 { // 256KB / (32B * 4)
		t.Errorf("L2 sets = %d, want 2048", cfg.L2.Sets())
	}
	if cfg.L3.Sets() != 8192 { // 2MB / (64B * 4)
		t.Errorf("L3 sets = %d, want 8192", cfg.L3.Sets())
	}
}

func TestHierarchyLatencies(t *testing.T) {
	h := NewHierarchy(DefaultHierConfig())
	h.BeginCycle(1)
	// Cold: misses L1 (1+6 charged via L2 walk), L2 (6+18), L3 (18+100).
	r := h.DataAccess(0x10000, false)
	if !r.OK || r.Hit {
		t.Fatalf("cold access = %+v", r)
	}
	// L1 hit lat 1 + L2 hit lat 6 + L3 (hit 18 + miss 100) = 125.
	if r.Lat != 125 {
		t.Errorf("cold latency = %d, want 125", r.Lat)
	}
	h.BeginCycle(200)
	r = h.DataAccess(0x10000, false)
	if !r.Hit || r.Lat != 1 {
		t.Errorf("warm access = %+v, want hit lat 1", r)
	}
}

func TestHierarchyL2Hit(t *testing.T) {
	cfg := DefaultHierConfig()
	h := NewHierarchy(cfg)
	h.BeginCycle(1)
	h.DataAccess(0x10000, false) // warm L2+L3
	// Evict from tiny... L1D is 64KB; conflict another line into same set.
	// L1D: 1024 sets * 32B = 32KB stride per way group.
	h.BeginCycle(2)
	h.DataAccess(0x10000+32768, false)
	h.BeginCycle(3)
	h.DataAccess(0x10000+65536, false) // 2-way: now 0x10000 evicted
	h.BeginCycle(4)
	r := h.DataAccess(0x10000, false)
	if r.Hit {
		t.Fatal("expected L1 miss after conflict eviction")
	}
	// L1 hit lat 1 + L2 hit 6 = 7 (L2 still holds the line).
	if r.Lat != 7 {
		t.Errorf("L2 hit latency = %d, want 7", r.Lat)
	}
}

func TestPortArbitration(t *testing.T) {
	cfg := DefaultHierConfig()
	cfg.DL1Ports = 1
	h := NewHierarchy(cfg)
	h.BeginCycle(1)
	if r := h.DataAccess(0x0, false); !r.OK {
		t.Fatal("first access should get the port")
	}
	if r := h.DataAccess(0x4000, false); r.OK {
		t.Fatal("second access should be rejected with 1 port")
	}
	h.BeginCycle(2)
	if r := h.DataAccess(0x4000, false); !r.OK {
		t.Fatal("port should be free next cycle")
	}

	cfg.DL1Ports = 2
	h2 := NewHierarchy(cfg)
	h2.BeginCycle(1)
	if !h2.DataAccess(0x0, false).OK || !h2.DataAccess(0x4000, false).OK {
		t.Fatal("two ports should allow two accesses")
	}
	if h2.DataAccess(0x8000, false).OK {
		t.Fatal("third access should be rejected with 2 ports")
	}
}

func TestWideBusCoalescing(t *testing.T) {
	cfg := DefaultHierConfig()
	cfg.WideBus = true
	cfg.DL1Ports = 1
	h := NewHierarchy(cfg)
	h.BeginCycle(1)
	r0 := h.DataAccess(0x100, false)
	if !r0.OK || r0.Coalesced {
		t.Fatalf("first wide access = %+v", r0)
	}
	// Same 32B line (0x100..0x11F): three more loads ride the latched
	// line, in the same cycle or later ones.
	for i := 1; i < 4; i++ {
		h.BeginCycle(uint64(1 + i))
		r := h.DataAccess(0x100+uint64(i*8), false)
		if !r.OK || !r.Coalesced {
			t.Fatalf("load %d should coalesce, got %+v", i, r)
		}
	}
	// A fifth load exceeds WideLoadsPerAccess: the line must be fetched
	// again through a port.
	h.BeginCycle(10)
	if r := h.DataAccess(0x118, false); !r.OK || r.Coalesced {
		t.Fatalf("fifth same-line load should refetch, got %+v", r)
	}
	// L1D has seen exactly two accesses (initial fetch + refetch).
	if h.L1D.Stats.Accesses != 2 {
		t.Errorf("L1D accesses = %d, want 2", h.L1D.Stats.Accesses)
	}
}

func TestWideBusRiderLatency(t *testing.T) {
	cfg := DefaultHierConfig()
	cfg.WideBus = true
	cfg.DL1Ports = 1
	h := NewHierarchy(cfg)
	h.BeginCycle(1)
	r0 := h.DataAccess(0x40000, false) // cold miss, long latency
	if r0.Hit {
		t.Fatal("expected a miss")
	}
	// A rider in the same cycle waits for the line to arrive.
	r1 := h.DataAccess(0x40008, false)
	if !r1.OK || !r1.Coalesced || r1.Lat != r0.Lat {
		t.Errorf("rider = %+v, want coalesced with lat %d", r1, r0.Lat)
	}
	// A rider long after the line arrived gets it in one cycle.
	h.BeginCycle(uint64(10 + r0.Lat))
	r2 := h.DataAccess(0x40010, false)
	if !r2.Coalesced || r2.Lat != 1 {
		t.Errorf("late rider = %+v, want lat 1", r2)
	}
}

func TestWideBusStoreInvalidatesLatch(t *testing.T) {
	cfg := DefaultHierConfig()
	cfg.WideBus = true
	cfg.DL1Ports = 2
	h := NewHierarchy(cfg)
	h.BeginCycle(1)
	h.DataAccess(0x100, false) // latch the line
	h.DataAccess(0x108, true)  // store to the same line
	h.BeginCycle(2)
	r := h.DataAccess(0x110, false)
	if r.Coalesced {
		t.Error("a store must invalidate the latched line")
	}
}

func TestWideBusDisabledNoCoalescing(t *testing.T) {
	cfg := DefaultHierConfig()
	cfg.WideBus = false
	cfg.DL1Ports = 2
	h := NewHierarchy(cfg)
	h.BeginCycle(1)
	h.DataAccess(0x100, false)
	r := h.DataAccess(0x108, false)
	if r.Coalesced {
		t.Error("no coalescing without wide bus")
	}
	if h.L1D.Stats.Accesses != 2 {
		t.Errorf("L1D accesses = %d, want 2", h.L1D.Stats.Accesses)
	}
}

func TestMSHRLimit(t *testing.T) {
	cfg := DefaultHierConfig()
	cfg.DL1Ports = 8
	cfg.MaxOutstandingMisses = 2
	h := NewHierarchy(cfg)
	h.BeginCycle(1)
	if !h.DataAccess(0x00000, false).OK {
		t.Fatal("miss 1 should proceed")
	}
	if !h.DataAccess(0x10000, false).OK {
		t.Fatal("miss 2 should proceed")
	}
	if h.DataAccess(0x20000, false).OK {
		t.Fatal("miss 3 should be rejected (MSHRs full)")
	}
	if h.OutstandingMisses() != 2 {
		t.Errorf("outstanding = %d, want 2", h.OutstandingMisses())
	}
	// A hit is still allowed while MSHRs are full.
	if r := h.DataAccess(0x00000, false); !r.OK || !r.Hit {
		t.Fatal("hit should proceed despite full MSHRs")
	}
	// After the misses complete, capacity frees up.
	h.BeginCycle(100000)
	if h.OutstandingMisses() != 0 {
		t.Errorf("outstanding after drain = %d, want 0", h.OutstandingMisses())
	}
	if !h.DataAccess(0x20000, false).OK {
		t.Fatal("miss should proceed after MSHRs drain")
	}
}

func TestFetchAccess(t *testing.T) {
	h := NewHierarchy(DefaultHierConfig())
	h.BeginCycle(1)
	if lat := h.FetchAccess(0x0); lat != 7 {
		t.Errorf("cold fetch lat = %d, want 7", lat)
	}
	if lat := h.FetchAccess(0x0); lat != 1 {
		t.Errorf("warm fetch lat = %d, want 1", lat)
	}
	if h.L1I.Stats.Accesses != 2 {
		t.Errorf("L1I accesses = %d", h.L1I.Stats.Accesses)
	}
}

func TestHierarchyReset(t *testing.T) {
	cfg := DefaultHierConfig()
	cfg.WideBus = true
	h := NewHierarchy(cfg)
	h.BeginCycle(1)
	h.DataAccess(0x100, false)
	h.Reset(cfg)
	if h.OutstandingMisses() != 0 || h.wideBuf[0].valid || h.L1D.Stats != (Stats{}) {
		t.Error("reset should drop in-flight misses, latches and statistics")
	}
	h.BeginCycle(2)
	if r := h.DataAccess(0x100, false); r.Hit {
		t.Error("reset should invalidate all levels")
	}
	if want := NewHierarchy(cfg); h.cycle != 2 || want.cfg != h.cfg {
		t.Errorf("reset config %+v, want %+v", h.cfg, want.cfg)
	}
}

func TestAdvanceToMatchesPerCycleBeginCycle(t *testing.T) {
	// AdvanceTo over an access-free range must leave the hierarchy in
	// the same state as per-cycle BeginCycle calls: misses retire at
	// the same cycles and MSHR occupancy matches throughout.
	mk := func() *Hierarchy {
		h := NewHierarchy(DefaultHierConfig())
		h.BeginCycle(1)
		for i := 0; i < 5; i++ {
			r := h.DataAccess(uint64(0x10000+i*4096), false)
			if !r.OK {
				t.Fatal("access rejected")
			}
			h.BeginCycle(uint64(2 + i))
		}
		return h
	}
	a, b := mk(), mk()
	for c := uint64(7); c <= 200; c++ {
		a.BeginCycle(c)
	}
	b.AdvanceTo(199)
	b.BeginCycle(200)
	if a.OutstandingMisses() != b.OutstandingMisses() {
		t.Errorf("outstanding misses diverge: stepped %d, advanced %d",
			a.OutstandingMisses(), b.OutstandingMisses())
	}
	am, aok := a.NextMissRetire()
	bm, bok := b.NextMissRetire()
	if am != bm || aok != bok {
		t.Errorf("next miss retire diverges: stepped (%d,%v), advanced (%d,%v)", am, aok, bm, bok)
	}
}

func TestNextMissRetire(t *testing.T) {
	h := NewHierarchy(DefaultHierConfig())
	if _, ok := h.NextMissRetire(); ok {
		t.Error("fresh hierarchy reports an in-flight miss")
	}
	h.BeginCycle(1)
	r := h.DataAccess(0x40000, false)
	if !r.OK || r.Hit {
		t.Fatalf("expected a miss, got %+v", r)
	}
	m, ok := h.NextMissRetire()
	if !ok || m != 1+uint64(r.Lat) {
		t.Errorf("NextMissRetire = (%d,%v), want (%d,true)", m, ok, 1+uint64(r.Lat))
	}
	h.BeginCycle(m)
	if _, ok := h.NextMissRetire(); ok {
		t.Error("miss still reported after its retire cycle")
	}
}
