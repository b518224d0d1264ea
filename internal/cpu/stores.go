package cpu

import "math/bits"

// storeTable counts the dispatched, uncommitted main-thread stores per
// memory word: the LSQ state store-to-load forwarding reads. It is an
// open-addressing hash table with linear probing and backward-shift
// deletion, sized to twice the ROB, so at most half full and a few cache
// lines however large the program's memory image.
type storeTable struct {
	ents  []storeEnt
	mask  uint64
	shift uint8
	n     int // stores in flight, across all words
}

type storeEnt struct {
	word  int64
	count int32 // 0 = empty entry
}

// reset empties the table and sizes it for robSize in-flight stores,
// reusing its storage.
func (t *storeTable) reset(robSize int) {
	k := bits.Len(uint(2*robSize - 1))
	t.ents = grow(t.ents, 1<<k)
	clear(t.ents)
	t.mask = 1<<k - 1
	t.shift = uint8(64 - k)
	t.n = 0
}

// home returns word's preferred entry (Fibonacci hashing: the high bits of
// the product spread consecutive words across the table).
//
//lab:hotpath
func (t *storeTable) home(word int64) uint64 {
	return uint64(word) * 0x9E3779B97F4A7C15 >> t.shift
}

// add records a dispatched store to word.
//
//lab:hotpath
func (t *storeTable) add(word int64) {
	t.n++
	for i := t.home(word); ; i = (i + 1) & t.mask {
		e := &t.ents[i]
		if e.count == 0 {
			*e = storeEnt{word: word, count: 1}
			return
		}
		if e.word == word {
			e.count++
			return
		}
	}
}

// has reports whether a store to word is in flight.
//
//lab:hotpath
func (t *storeTable) has(word int64) bool {
	if t.n == 0 {
		return false
	}
	for i := t.home(word); ; i = (i + 1) & t.mask {
		e := &t.ents[i]
		if e.count == 0 {
			return false
		}
		if e.word == word {
			return true
		}
	}
}

// remove retires one committed store to word, which add recorded. When the
// word's last store leaves, later entries of its probe run shift back over
// the hole, so every lookup still stops at the first empty entry.
//
//lab:hotpath
func (t *storeTable) remove(word int64) {
	t.n--
	i := t.home(word)
	for t.ents[i].word != word || t.ents[i].count == 0 {
		i = (i + 1) & t.mask
	}
	if t.ents[i].count--; t.ents[i].count > 0 {
		return
	}
	for j := (i + 1) & t.mask; t.ents[j].count != 0; j = (j + 1) & t.mask {
		// Entry j may move into the hole at i unless its home lies
		// cyclically in (i, j].
		if h := t.home(t.ents[j].word); (j-h)&t.mask >= (j-i)&t.mask {
			t.ents[i] = t.ents[j]
			i = j
		}
	}
	t.ents[i].count = 0
}
