// Package cache implements the on-chip memory hierarchy substrate: set-
// associative caches with LRU replacement, fully-associative TLBs, a miss
// status holding register (MSHR) file bounding outstanding misses, and a
// memory bus model. The default configuration matches the paper: 32KB/2-way/
// 1-cycle L1I, 16KB/2-way/2-cycle L1D, 256KB/4-way/12-cycle unified L2,
// 64-entry TLBs, 16 outstanding misses, a 16-byte memory bus clocked at 1/4
// core frequency, and 200-cycle main memory.
package cache

// NoPrefetcher marks a line that was demand-fetched rather than installed by
// a p-thread prefetch.
const NoPrefetcher int32 = -1

// Config parameterizes one cache level.
type Config struct {
	SizeBytes  int
	Ways       int
	BlockBytes int
	HitLatency int
}

// Sets returns the number of sets implied by the configuration.
func (c Config) Sets() int { return c.SizeBytes / (c.Ways * c.BlockBytes) }

// Stats counts cache events.
type Stats struct {
	Accesses int64
	Misses   int64
}

// MissRate returns Misses/Accesses, or 0 for an untouched cache.
func (s Stats) MissRate() float64 {
	if s.Accesses == 0 {
		return 0
	}
	return float64(s.Misses) / float64(s.Accesses)
}

// Cache is a set-associative cache with true-LRU replacement.
//
// Timing is handled by the caller: lines carry a ReadyAt timestamp so a fill
// can be installed at miss time while still charging later accesses that
// arrive before the fill completes (this also implements MSHR merging
// behaviour at the line granularity).
type Cache struct {
	cfg       Config
	sets      int
	blockBits uint
	setMask   uint64  // sets-1 when sets is a power of two (a mask, not a division), else 0
	tag       []int64 // sets*ways; -1 invalid
	lru       []int32
	readyAt   []int64
	prefID    []int32 // p-thread static ID that installed the line, or NoPrefetcher
	lruClock  int32

	Stats Stats
}

// New returns an empty cache. It panics on a degenerate geometry, which
// indicates a configuration bug.
func New(cfg Config) *Cache {
	if cfg.SizeBytes <= 0 || cfg.Ways <= 0 || cfg.BlockBytes <= 0 || cfg.Sets() <= 0 {
		//lab:allow(panicpath: constructor precondition; a degenerate geometry is a configuration bug caught at sweep setup, never at run time)
		panic("cache: invalid geometry")
	}
	n := cfg.Sets() * cfg.Ways
	c := &Cache{
		cfg:  cfg,
		sets: cfg.Sets(),
		tag:  make([]int64, n),
		lru:  make([]int32, n),

		readyAt: make([]int64, n),
		prefID:  make([]int32, n),
	}
	c.blockBits = uint(log2(cfg.BlockBytes))
	if c.sets&(c.sets-1) == 0 {
		c.setMask = uint64(c.sets - 1)
	}
	for i := range c.tag {
		c.tag[i] = -1
		c.prefID[i] = NoPrefetcher
	}
	return c
}

// Config returns the cache's geometry.
func (c *Cache) Config() Config { return c.cfg }

// Reset returns the cache to its post-New state (all lines invalid, LRU and
// statistics cleared) without reallocating its storage, so a simulator can
// be reused across runs allocation-free.
func (c *Cache) Reset() {
	for i := range c.tag {
		c.tag[i] = -1
		c.lru[i] = 0
		c.readyAt[i] = 0
		c.prefID[i] = NoPrefetcher
	}
	c.lruClock = 0
	c.Stats = Stats{}
}

// Block returns the block address (line-aligned) of a byte address.
func (c *Cache) Block(addr int64) int64 { return addr >> c.blockBits }

// LookupResult describes the outcome of a cache probe.
type LookupResult struct {
	Hit     bool
	ReadyAt int64 // when the line's data is (or was) available; valid on hit
	PrefID  int32 // installing p-thread, or NoPrefetcher; valid on hit
}

// Lookup probes for addr at the given time, updating LRU and statistics on
// hit. A hit on a line whose fill is still in flight reports the line's
// ReadyAt in the future; the caller must wait for it (MSHR-merge semantics).
func (c *Cache) Lookup(addr int64) LookupResult {
	c.Stats.Accesses++
	set, base := c.set(addr)
	blk := c.Block(addr)
	for w := 0; w < c.cfg.Ways; w++ {
		if c.tag[base+w] == blk {
			c.lruClock++
			c.lru[base+w] = c.lruClock
			return LookupResult{Hit: true, ReadyAt: c.readyAt[base+w], PrefID: c.prefID[base+w]}
		}
	}
	c.Stats.Misses++
	_ = set
	return LookupResult{}
}

// Probe checks for presence without updating LRU or statistics.
func (c *Cache) Probe(addr int64) bool {
	_, base := c.set(addr)
	blk := c.Block(addr)
	for w := 0; w < c.cfg.Ways; w++ {
		if c.tag[base+w] == blk {
			return true
		}
	}
	return false
}

// Fill installs the block containing addr, evicting the LRU way. ReadyAt
// records when the fill data arrives; prefID records the installing
// p-thread (NoPrefetcher for demand fills).
func (c *Cache) Fill(addr, readyAt int64, prefID int32) {
	_, base := c.set(addr)
	blk := c.Block(addr)
	victim := 0
	for w := 0; w < c.cfg.Ways; w++ {
		if c.tag[base+w] == blk {
			// Already present (racing fills); refresh metadata only.
			if readyAt < c.readyAt[base+w] {
				c.readyAt[base+w] = readyAt
			}
			return
		}
		if c.lru[base+w] < c.lru[base+victim] {
			victim = w
		}
	}
	c.lruClock++
	c.tag[base+victim] = blk
	c.lru[base+victim] = c.lruClock
	c.readyAt[base+victim] = readyAt
	c.prefID[base+victim] = prefID
}

// ClearPrefID clears the prefetch marking of addr's line if present, so a
// prefetched line is counted as useful at most once.
func (c *Cache) ClearPrefID(addr int64) {
	_, base := c.set(addr)
	blk := c.Block(addr)
	for w := 0; w < c.cfg.Ways; w++ {
		if c.tag[base+w] == blk {
			c.prefID[base+w] = NoPrefetcher
			return
		}
	}
}

func (c *Cache) set(addr int64) (set, base int) {
	if blk := uint64(addr >> c.blockBits); c.setMask != 0 {
		set = int(blk & c.setMask)
	} else {
		set = int(blk % uint64(c.sets))
	}
	return set, set * c.cfg.Ways
}

func log2(n int) int {
	b := 0
	for 1<<uint(b) < n {
		b++
	}
	if 1<<uint(b) != n {
		//lab:allow(panicpath: reachable only via New, whose geometry check already enforces power-of-two sets)
		panic("cache: size not a power of two")
	}
	return b
}
