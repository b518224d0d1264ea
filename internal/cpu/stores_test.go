package cpu

import (
	"math/rand"
	"testing"
)

// TestStoreTableMatchesCounts drives the in-flight store table the way the
// pipeline does — stores enter at dispatch and leave at commit in program
// order, at most robSize at once — over a handful of words in a small
// table, so probe runs collide and every removal shifts entries back. After
// each step has must agree with a plain per-word count for every word.
func TestStoreTableMatchesCounts(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, robSize := range []int{1, 3, 4, 8} {
		var tab storeTable
		tab.reset(robSize)
		var inFlight []int64 // FIFO: dispatch order
		counts := map[int64]int{}
		const words = 24
		for step := 0; step < 20000; step++ {
			if len(inFlight) < robSize && (len(inFlight) == 0 || rng.Intn(2) == 0) {
				w := rng.Int63n(words) * 977 // spread, then collide modulo the table
				tab.add(w)
				inFlight = append(inFlight, w)
				counts[w]++
			} else {
				w := inFlight[0]
				inFlight = inFlight[1:]
				tab.remove(w)
				counts[w]--
			}
			for w := int64(0); w < words; w++ {
				if got, want := tab.has(w*977), counts[w*977] > 0; got != want {
					t.Fatalf("robSize %d, step %d: has(word %d) = %v, %d in flight", robSize, step, w*977, got, counts[w*977])
				}
			}
		}
	}
}
