// Package cache models the memory hierarchy of Table 1: set-associative
// write-back caches with LRU replacement, a three-level data hierarchy
// (L1D / L2 / L3, with the L3 miss time standing in for main memory), a
// separate instruction cache, optional wide buses that return a whole
// cache line per access (§2.4.5), and a bounded number of outstanding L1
// misses (MSHRs).
//
// The caches are timing models: an access returns the latency in cycles
// and updates hit/miss/access counters. Data contents live in mem.Memory;
// the cache only tracks presence.
package cache

// Config describes one cache level.
type Config struct {
	// SizeBytes is the total capacity.
	SizeBytes int
	// LineBytes is the line (block) size.
	LineBytes int
	// Assoc is the set associativity.
	Assoc int
	// HitLat is the access latency on a hit, in cycles.
	HitLat int
	// MissLat is the additional latency charged on a miss at this level
	// (the time to reach and return from the next level, as in Table 1's
	// flat "miss time" figures).
	MissLat int
}

// Sets returns the number of sets implied by the geometry.
func (c Config) Sets() int { return c.SizeBytes / (c.LineBytes * c.Assoc) }

// Stats counts accesses at one cache level.
type Stats struct {
	Accesses uint64
	Hits     uint64
	Misses   uint64
}

// MissRate returns Misses/Accesses (0 when idle).
func (s Stats) MissRate() float64 {
	if s.Accesses == 0 {
		return 0
	}
	return float64(s.Misses) / float64(s.Accesses)
}

type line struct {
	tag   uint64
	valid bool
	dirty bool
	lru   uint64
}

// Cache is a single set-associative cache level. The ways of all sets
// live in one flat backing array (set s occupies lines[s*Assoc :
// (s+1)*Assoc]), so building a cache costs one allocation and lookups
// stay on one cache line per set.
type Cache struct {
	cfg      Config
	lines    []line
	clock    uint64
	shift    uint // log2(LineBytes)
	setShift uint // log2(set count)
	setMsk   uint64

	Stats Stats
}

// New builds a cache from cfg. The geometry must be a power-of-two
// line size and set count.
func New(cfg Config) *Cache {
	c := new(Cache)
	c.Reset(cfg)
	return c
}

// Reset re-initializes c in place as a cold cache of geometry cfg: no
// valid line, zero clock and statistics. The line array is reused when
// cfg needs exactly as many lines, and cleared either way; Reset is the
// only initializer, so a reused cache carries nothing from its past.
func (c *Cache) Reset(cfg Config) {
	nsets := cfg.Sets()
	if nsets <= 0 || nsets&(nsets-1) != 0 {
		panic("cache: set count must be a positive power of two")
	}
	if cfg.LineBytes <= 0 || cfg.LineBytes&(cfg.LineBytes-1) != 0 {
		panic("cache: line size must be a positive power of two")
	}
	lines := c.lines
	if len(lines) == nsets*cfg.Assoc {
		clear(lines)
	} else {
		lines = make([]line, nsets*cfg.Assoc)
	}
	*c = Cache{cfg: cfg, lines: lines, setMsk: uint64(nsets - 1)}
	for b := cfg.LineBytes; b > 1; b >>= 1 {
		c.shift++
	}
	for n := nsets; n > 1; n >>= 1 {
		c.setShift++
	}
}

// set returns the ways of the set holding addr's index.
func (c *Cache) set(set int) []line {
	return c.lines[set*c.cfg.Assoc : (set+1)*c.cfg.Assoc]
}

// Config returns the cache geometry.
func (c *Cache) Config() Config { return c.cfg }

func (c *Cache) index(addr uint64) (set int, tag uint64) {
	block := addr >> c.shift
	return int(block & c.setMsk), block >> c.setShift
}

// Lookup reports whether addr currently hits, without updating any state
// or statistics.
func (c *Cache) Lookup(addr uint64) bool {
	set, tag := c.index(addr)
	lines := c.set(set)
	for i := range lines {
		if lines[i].valid && lines[i].tag == tag {
			return true
		}
	}
	return false
}

// Access performs a read (write=false) or write (write=true) access to
// the line containing addr. It returns whether it hit and the latency in
// cycles. Misses allocate (write-allocate) and evict LRU.
func (c *Cache) Access(addr uint64, write bool) (hit bool, lat int) {
	c.clock++
	c.Stats.Accesses++
	set, tag := c.index(addr)
	lines := c.set(set)
	for i := range lines {
		if lines[i].valid && lines[i].tag == tag {
			lines[i].lru = c.clock
			if write {
				lines[i].dirty = true
			}
			c.Stats.Hits++
			return true, c.cfg.HitLat
		}
	}
	c.Stats.Misses++
	// Allocate: fill an invalid way if one exists, else evict LRU.
	victim := -1
	for i := range lines {
		if !lines[i].valid {
			victim = i
			break
		}
	}
	if victim < 0 {
		victim = 0
		for i := 1; i < len(lines); i++ {
			if lines[i].lru < lines[victim].lru {
				victim = i
			}
		}
	}
	lines[victim] = line{tag: tag, valid: true, dirty: write, lru: c.clock}
	return false, c.cfg.HitLat + c.cfg.MissLat
}

// RepeatHits records n more read hits on the line holding addr, which
// must be present: clock, statistics and the line's LRU stamp end
// where n Access(addr, false) calls would leave them. So a run of k
// reads of one line, with no other access to c between them, is one
// Access followed by RepeatHits(addr, k-1).
func (c *Cache) RepeatHits(addr uint64, n uint64) {
	if n == 0 {
		return
	}
	set, tag := c.index(addr)
	lines := c.set(set)
	for i := range lines {
		if lines[i].valid && lines[i].tag == tag {
			c.clock += n
			c.Stats.Accesses += n
			c.Stats.Hits += n
			lines[i].lru = c.clock
			return
		}
	}
	panic("cache: RepeatHits on a line that is not present")
}

// LineAddr returns the address of the first byte of the line holding addr.
func (c *Cache) LineAddr(addr uint64) uint64 {
	return addr &^ (uint64(c.cfg.LineBytes) - 1)
}
