package cache

// HierConfig configures the full memory hierarchy per Table 1.
type HierConfig struct {
	L1I Config
	L1D Config
	L2  Config
	L3  Config
	// DL1Ports is the number of L1 data ports usable per cycle (the
	// paper evaluates 1 and 2).
	DL1Ports int
	// WideBus makes each L1D port return a whole cache line, so up to
	// WideLoadsPerAccess loads to the same line share one access
	// (§2.4.5).
	WideBus bool
	// WideLoadsPerAccess bounds how many loads one wide access may serve
	// ("only up to 4 loads can be served in one of these wide accesses").
	WideLoadsPerAccess int
	// MaxOutstandingMisses bounds in-flight L1D misses (Table 1: up to
	// 16 outstanding misses).
	MaxOutstandingMisses int
}

// DefaultHierConfig returns Table 1's hierarchy: 64KB 2-way L1I (64B
// lines, 1-cycle hit, 6-cycle miss), 64KB 2-way L1D (32B lines, 1-cycle
// hit, 6-cycle miss, ≤16 outstanding misses), 256KB 4-way L2 (32B lines,
// 6-cycle hit, 18-cycle miss), 2MB 4-way L3 (64B lines, 18-cycle hit,
// 100-cycle miss to main memory).
func DefaultHierConfig() HierConfig {
	return HierConfig{
		L1I:                  Config{SizeBytes: 64 << 10, LineBytes: 64, Assoc: 2, HitLat: 1, MissLat: 6},
		L1D:                  Config{SizeBytes: 64 << 10, LineBytes: 32, Assoc: 2, HitLat: 1, MissLat: 6},
		L2:                   Config{SizeBytes: 256 << 10, LineBytes: 32, Assoc: 4, HitLat: 6, MissLat: 18},
		L3:                   Config{SizeBytes: 2 << 20, LineBytes: 64, Assoc: 4, HitLat: 18, MissLat: 100},
		DL1Ports:             1,
		WideBus:              false,
		WideLoadsPerAccess:   4,
		MaxOutstandingMisses: 16,
	}
}

// Hierarchy glues the levels together and models per-cycle L1D port
// arbitration, wide-bus load coalescing, and the outstanding-miss bound.
// The owning pipeline calls BeginCycle once per simulated cycle, then
// issues instruction and data accesses.
type Hierarchy struct {
	cfg HierConfig
	L1I *Cache
	L1D *Cache
	L2  *Cache
	L3  *Cache

	cycle uint64

	// Per-cycle L1D port state, reset by BeginCycle.
	portsUsed int

	// Wide-bus line buffers: each wide access latches the whole cache
	// line, and up to WideLoadsPerAccess outstanding loads are served
	// from it before another access is needed (§2.4.5).
	wideBuf []wideLine

	// missFreeAt holds completion cycles of in-flight L1D misses.
	missFreeAt []uint64
}

type wideLine struct {
	valid   bool
	addr    uint64 // line address
	served  int    // loads served from this latch
	readyAt uint64 // cycle the line data arrives
	lru     uint64
}

// NewHierarchy builds the hierarchy from cfg.
func NewHierarchy(cfg HierConfig) *Hierarchy {
	h := new(Hierarchy)
	h.Reset(cfg)
	return h
}

// Reset re-initializes h in place as a cold hierarchy for cfg: every
// level is Reset (reusing its line array when the geometry keeps its
// size), no miss is in flight and no wide-bus line is latched.
func (h *Hierarchy) Reset(cfg HierConfig) {
	if cfg.DL1Ports <= 0 {
		cfg.DL1Ports = 1
	}
	if cfg.WideLoadsPerAccess <= 0 {
		cfg.WideLoadsPerAccess = 4
	}
	if cfg.MaxOutstandingMisses <= 0 {
		cfg.MaxOutstandingMisses = 16
	}
	levels := [4]*Cache{h.L1I, h.L1D, h.L2, h.L3}
	for i, c := range levels {
		if c == nil {
			levels[i] = new(Cache)
		}
	}
	levels[0].Reset(cfg.L1I)
	levels[1].Reset(cfg.L1D)
	levels[2].Reset(cfg.L2)
	levels[3].Reset(cfg.L3)
	var wide []wideLine
	if cfg.WideBus {
		// One line latch per port plus one victim keeps interleaved
		// streams from thrashing a single buffer.
		wide = h.wideBuf
		if len(wide) == cfg.DL1Ports+1 {
			clear(wide)
		} else {
			wide = make([]wideLine, cfg.DL1Ports+1)
		}
	}
	*h = Hierarchy{
		cfg: cfg,
		L1I: levels[0], L1D: levels[1], L2: levels[2], L3: levels[3],
		wideBuf:    wide,
		missFreeAt: h.missFreeAt[:0],
	}
}

// Config returns the hierarchy configuration.
func (h *Hierarchy) Config() HierConfig { return h.cfg }

// BeginCycle resets per-cycle port state and retires completed misses.
func (h *Hierarchy) BeginCycle(cycle uint64) {
	h.cycle = cycle
	h.portsUsed = 0
	// Compact in-flight misses that have completed.
	out := h.missFreeAt[:0]
	for _, t := range h.missFreeAt {
		if t > cycle {
			out = append(out, t)
		}
	}
	h.missFreeAt = out
}

// AdvanceTo jumps the hierarchy's cycle forward across an access-free
// range in one call — the batched catch-up a stall fast-forward uses
// for skipped cycles. BeginCycle's per-cycle work is idempotent
// threshold compaction plus port-counter resets, so one batched call
// is identical to calling it for every skipped cycle when no access
// happens in between (which skipped cycles guarantee).
func (h *Hierarchy) AdvanceTo(cycle uint64) {
	if cycle > h.cycle {
		h.BeginCycle(cycle)
	}
}

// FetchAccess performs an instruction fetch of the line containing pc
// and returns the latency. The I-cache has its own port.
func (h *Hierarchy) FetchAccess(addr uint64) (lat int) {
	hit, lat := h.L1I.Access(addr, false)
	if hit {
		return lat
	}
	// Table 1 gives a flat 6-cycle I-miss time; the refill comes from L2.
	h.L2.Access(addr, false)
	return lat
}

// DataResult describes the outcome of a data access attempt.
type DataResult struct {
	// OK is false when no port (or MSHR) was available this cycle; the
	// instruction must retry next cycle.
	OK bool
	// Lat is the total latency in cycles until the data is available.
	Lat int
	// Hit reports an L1 hit.
	Hit bool
	// Coalesced reports that a wide bus served this load from a line
	// already fetched this cycle, consuming no extra port.
	Coalesced bool
}

// DataAccess attempts a data access this cycle. On a wide bus, a load
// whose line is already latched in a line buffer is served from it
// without a port or cache access, up to WideLoadsPerAccess loads per
// latch (§2.4.5). Stores always consume a port (write-back,
// write-allocate) and invalidate matching latches.
func (h *Hierarchy) DataAccess(addr uint64, write bool) DataResult {
	lineAddr := h.L1D.LineAddr(addr)

	if h.wideBuf != nil {
		if write {
			for i := range h.wideBuf {
				if h.wideBuf[i].valid && h.wideBuf[i].addr == lineAddr {
					h.wideBuf[i].valid = false
				}
			}
		} else {
			for i := range h.wideBuf {
				wb := &h.wideBuf[i]
				if wb.valid && wb.addr == lineAddr && wb.served < h.cfg.WideLoadsPerAccess {
					wb.served++
					wb.lru = h.cycle
					lat := 1
					if wb.readyAt > h.cycle {
						lat = int(wb.readyAt - h.cycle)
					}
					return DataResult{OK: true, Lat: lat, Hit: true, Coalesced: true}
				}
			}
		}
	}

	if h.portsUsed >= h.cfg.DL1Ports {
		return DataResult{}
	}

	// A miss needs a free MSHR.
	wouldHit := h.L1D.Lookup(addr)
	if !wouldHit && len(h.missFreeAt) >= h.cfg.MaxOutstandingMisses {
		return DataResult{}
	}

	h.portsUsed++
	hit, lat := h.L1D.Access(addr, write)
	if !hit {
		// Walk the outer levels; latencies accumulate.
		h2, lat2 := h.L2.Access(addr, write)
		lat = h.L1D.Config().HitLat + lat2
		if !h2 {
			_, lat3 := h.L3.Access(addr, write)
			lat = h.L1D.Config().HitLat + h.L2.Config().HitLat + lat3
		}
		h.missFreeAt = append(h.missFreeAt, h.cycle+uint64(lat))
	}
	if h.wideBuf != nil && !write {
		// Latch the whole line into the least-recently-used buffer.
		victim := 0
		for i := 1; i < len(h.wideBuf); i++ {
			if !h.wideBuf[i].valid {
				victim = i
				break
			}
			if h.wideBuf[i].lru < h.wideBuf[victim].lru {
				victim = i
			}
		}
		h.wideBuf[victim] = wideLine{
			valid: true, addr: lineAddr, served: 1,
			readyAt: h.cycle + uint64(lat), lru: h.cycle,
		}
	}
	return DataResult{OK: true, Lat: lat, Hit: hit}
}

// DataAccessReplica performs a data access for a speculative replica
// load. Replica loads may ride any valid wide-bus line latch without
// consuming one of its scalar servings: the per-access serving cap
// models register-file write ports, and replica results go to replica
// storage (whose write ports are modeled separately). A replica load
// whose line is not latched takes the normal port path and latches the
// line, so subsequent replicas of a unit-stride batch ride it.
func (h *Hierarchy) DataAccessReplica(addr uint64) DataResult {
	if h.wideBuf != nil {
		lineAddr := h.L1D.LineAddr(addr)
		for i := range h.wideBuf {
			wb := &h.wideBuf[i]
			if wb.valid && wb.addr == lineAddr {
				wb.lru = h.cycle
				lat := 1
				if wb.readyAt > h.cycle {
					lat = int(wb.readyAt - h.cycle)
				}
				return DataResult{OK: true, Lat: lat, Hit: true, Coalesced: true}
			}
		}
	}
	return h.DataAccess(addr, false)
}

// OutstandingMisses returns the number of in-flight L1D misses.
func (h *Hierarchy) OutstandingMisses() int { return len(h.missFreeAt) }

// PortsUsed returns how many L1D ports this cycle's accesses have
// consumed so far. Callers that reason about whether a failed access
// attempt would also fail on later cycles use it to detect transient
// port pressure (e.g. a commit-stage store write) that resets at the
// next BeginCycle.
func (h *Hierarchy) PortsUsed() int { return h.portsUsed }

// NextMissRetire returns the earliest cycle an in-flight L1D miss
// retires and frees its MSHR (the cycle BeginCycle compacts it away) —
// an event bound for callers that skip over access-free cycles. ok is
// false with no miss in flight.
func (h *Hierarchy) NextMissRetire() (cycle uint64, ok bool) {
	if len(h.missFreeAt) == 0 {
		return 0, false
	}
	m := h.missFreeAt[0]
	for _, t := range h.missFreeAt[1:] {
		if t < m {
			m = t
		}
	}
	return m, true
}
