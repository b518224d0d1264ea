package cache

// TLB is a fully-associative translation lookaside buffer with LRU
// replacement over fixed-size pages. A miss costs a fixed page-table-walk
// penalty, charged by the hierarchy.
type TLB struct {
	pageBits uint
	tags     []int64 // page numbers; -1 invalid
	lru      []int32
	clock    int32
	// hint remembers, per page&hintMask, the way that last held such a
	// page. A lookup whose hinted way holds its page is a hit without the
	// scan; a stale hint only costs the scan, since a page sits in at most
	// one way.
	hint     []int32
	hintMask int64

	Stats Stats
}

// NewTLB returns an empty TLB with the given number of entries and page
// size in bytes (a power of two).
func NewTLB(entries, pageBytes int) *TLB {
	hints := 1
	for hints < 2*entries {
		hints <<= 1
	}
	t := &TLB{
		pageBits: uint(log2(pageBytes)),
		tags:     make([]int64, entries),
		lru:      make([]int32, entries),
		hint:     make([]int32, hints),
		hintMask: int64(hints - 1),
	}
	for i := range t.tags {
		t.tags[i] = -1
	}
	return t
}

// Reset returns the TLB to its post-New state without reallocating. Hints
// may stay: each is checked against the tags before use.
func (t *TLB) Reset() {
	for i := range t.tags {
		t.tags[i] = -1
		t.lru[i] = 0
	}
	t.clock = 0
	t.Stats = Stats{}
}

// Lookup probes (and on miss, installs) the page of addr. It reports whether
// the translation hit.
func (t *TLB) Lookup(addr int64) bool {
	t.Stats.Accesses++
	page := addr >> t.pageBits
	h := &t.hint[page&t.hintMask]
	if w := *h; t.tags[w] == page {
		t.clock++
		t.lru[w] = t.clock
		return true
	}
	victim := 0
	for i := range t.tags {
		if t.tags[i] == page {
			t.clock++
			t.lru[i] = t.clock
			*h = int32(i)
			return true
		}
		if t.lru[i] < t.lru[victim] {
			victim = i
		}
	}
	t.Stats.Misses++
	t.clock++
	t.tags[victim] = page
	t.lru[victim] = t.clock
	*h = int32(victim)
	return false
}
