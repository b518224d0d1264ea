package cache

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func small() Config { return Config{SizeBytes: 1024, Ways: 2, BlockBytes: 64, HitLatency: 1} }

func TestConfigSets(t *testing.T) {
	if s := small().Sets(); s != 8 {
		t.Errorf("sets = %d, want 8", s)
	}
}

func TestLookupMissThenHit(t *testing.T) {
	c := New(small())
	if r := c.Lookup(0x100); r.Hit {
		t.Error("cold cache must miss")
	}
	c.Fill(0x100, 10, NoPrefetcher)
	r := c.Lookup(0x100)
	if !r.Hit || r.ReadyAt != 10 {
		t.Errorf("hit=%v readyAt=%d, want hit readyAt=10", r.Hit, r.ReadyAt)
	}
	// Same block, different byte.
	if r := c.Lookup(0x13f); !r.Hit {
		t.Error("same-block access must hit")
	}
	if r := c.Lookup(0x140); r.Hit {
		t.Error("next block must miss")
	}
}

func TestLRUEviction(t *testing.T) {
	c := New(small())                                 // 8 sets, 2 ways; set = (addr>>6) % 8
	a0, a1, a2 := int64(0), int64(8*64), int64(16*64) // all map to set 0
	c.Fill(a0, 0, NoPrefetcher)
	c.Fill(a1, 0, NoPrefetcher)
	c.Lookup(a0) // touch a0 so a1 is LRU
	c.Fill(a2, 0, NoPrefetcher)
	if !c.Probe(a0) {
		t.Error("recently-used line evicted")
	}
	if c.Probe(a1) {
		t.Error("LRU line not evicted")
	}
	if !c.Probe(a2) {
		t.Error("filled line absent")
	}
}

func TestPrefIDLifecycle(t *testing.T) {
	c := New(small())
	c.Fill(0x200, 5, 7)
	r := c.Lookup(0x200)
	if r.PrefID != 7 {
		t.Errorf("prefID = %d, want 7", r.PrefID)
	}
	c.ClearPrefID(0x200)
	if r := c.Lookup(0x200); r.PrefID != NoPrefetcher {
		t.Error("prefID must clear")
	}
}

func TestFillIdempotentOnPresentLine(t *testing.T) {
	c := New(small())
	c.Fill(0x300, 100, NoPrefetcher)
	c.Fill(0x300, 50, NoPrefetcher) // racing earlier fill: keep earliest ready
	r := c.Lookup(0x300)
	if r.ReadyAt != 50 {
		t.Errorf("readyAt = %d, want 50", r.ReadyAt)
	}
}

func TestStats(t *testing.T) {
	c := New(small())
	c.Lookup(0) // miss
	c.Fill(0, 0, NoPrefetcher)
	c.Lookup(0)    // hit
	c.Lookup(4096) // miss
	if c.Stats.Accesses != 3 || c.Stats.Misses != 2 {
		t.Errorf("stats = %+v", c.Stats)
	}
	if r := c.Stats.MissRate(); r < 0.66 || r > 0.67 {
		t.Errorf("miss rate = %v", r)
	}
	if (Stats{}).MissRate() != 0 {
		t.Error("empty miss rate must be 0")
	}
}

func TestInvalidGeometryPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("invalid geometry must panic")
		}
	}()
	New(Config{SizeBytes: 100, Ways: 3, BlockBytes: 7})
}

func TestProbeDoesNotTouchStats(t *testing.T) {
	c := New(small())
	c.Probe(0x100)
	if c.Stats.Accesses != 0 {
		t.Error("Probe must not count as an access")
	}
}

// Property: after filling N distinct blocks that all map to one set of a
// W-way cache, exactly the W most recently filled survive.
func TestLRUProperty(t *testing.T) {
	check := func(n uint8) bool {
		c := New(small()) // 8 sets, 2 ways
		count := int(n%6) + 3
		for i := 0; i < count; i++ {
			c.Fill(int64(i)*8*64, 0, NoPrefetcher) // all set 0
		}
		// The last 2 fills must be present, earlier ones absent.
		for i := 0; i < count; i++ {
			want := i >= count-2
			if c.Probe(int64(i)*8*64) != want {
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, nil); err != nil {
		t.Error(err)
	}
}

func TestTLB(t *testing.T) {
	tlb := NewTLB(4, 4096)
	if tlb.Lookup(0) {
		t.Error("cold TLB must miss")
	}
	if !tlb.Lookup(100) {
		t.Error("same page must hit")
	}
	// Fill 4 more pages to evict page 0.
	for p := int64(1); p <= 4; p++ {
		tlb.Lookup(p * 4096)
	}
	if tlb.Lookup(0) {
		t.Error("evicted page must miss")
	}
	if tlb.Stats.Accesses != 7 {
		t.Errorf("accesses = %d, want 7", tlb.Stats.Accesses)
	}
}

func TestTLBLRUOrder(t *testing.T) {
	tlb := NewTLB(2, 4096)
	tlb.Lookup(0 * 4096)
	tlb.Lookup(1 * 4096)
	tlb.Lookup(0 * 4096) // touch page 0; page 1 now LRU
	tlb.Lookup(2 * 4096) // evicts page 1
	if !tlb.Lookup(0 * 4096) {
		t.Error("MRU page evicted")
	}
	if tlb.Lookup(1 * 4096) {
		t.Error("LRU page not evicted")
	}
}

// scanTLB is the TLB without its way hint: every lookup scans all ways.
type scanTLB struct {
	tags  []int64
	lru   []int32
	clock int32
}

func (t *scanTLB) lookup(page int64) bool {
	victim := 0
	for i := range t.tags {
		if t.tags[i] == page {
			t.clock++
			t.lru[i] = t.clock
			return true
		}
		if t.lru[i] < t.lru[victim] {
			victim = i
		}
	}
	t.clock++
	t.tags[victim] = page
	t.lru[victim] = t.clock
	return false
}

// TestTLBHintMatchesScan checks that the way hint changes no outcome: over a
// seeded stream of pages, with hot and cold phases, evictions and a Reset
// that leaves stale hints behind, every lookup hits or misses exactly as a
// plain LRU scan does.
func TestTLBHintMatchesScan(t *testing.T) {
	const entries, pageBytes = 8, 4096
	tlb := NewTLB(entries, pageBytes)
	rng := rand.New(rand.NewSource(1))
	for round := 0; round < 2; round++ {
		ref := &scanTLB{tags: make([]int64, entries), lru: make([]int32, entries)}
		for i := range ref.tags {
			ref.tags[i] = -1
		}
		for i := 0; i < 20000; i++ {
			pages := int64(6) // phases that fit, then thrash
			if i/1000%2 == 1 {
				pages = 40
			}
			page := rng.Int63n(pages)
			addr := page*pageBytes + rng.Int63n(pageBytes)
			if got, want := tlb.Lookup(addr), ref.lookup(page); got != want {
				t.Fatalf("round %d, lookup %d (page %d): hit=%v, scan says %v", round, i, page, got, want)
			}
		}
		tlb.Reset()
	}
}

func TestMSHRAllocMergeExpire(t *testing.T) {
	m := NewMSHRFile(2)
	if !m.Alloc(1, 100, 0) || !m.Alloc(2, 120, 0) {
		t.Fatal("allocs into empty file must succeed")
	}
	if m.Alloc(3, 130, 0) {
		t.Error("alloc into full file must fail")
	}
	if ready, ok := m.Lookup(1, 50); !ok || ready != 100 {
		t.Errorf("merge lookup = %d,%v", ready, ok)
	}
	// After entry 1 completes (t=100), capacity frees up.
	if !m.Alloc(3, 300, 101) {
		t.Error("alloc after expiry must succeed")
	}
	if m.InFlight(101) != 2 {
		t.Errorf("in flight = %d, want 2", m.InFlight(101))
	}
	if m.Allocs != 3 || m.Merges != 1 || m.FullRej != 1 {
		t.Errorf("stats: allocs=%d merges=%d rej=%d", m.Allocs, m.Merges, m.FullRej)
	}
}

func TestMSHRLookupMissing(t *testing.T) {
	m := NewMSHRFile(4)
	if _, ok := m.Lookup(9, 0); ok {
		t.Error("lookup of absent block must fail")
	}
}
