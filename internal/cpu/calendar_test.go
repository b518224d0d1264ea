package cpu

import (
	"math"
	"math/rand"
	"testing"
)

// TestCalendarDeliversInTimeOrder drives the calendar the way the event
// engine does: every cycle it visits pops its bucket and may push events up
// to three wheel turns ahead, and an idle clock jumps straight to nextAt.
// Every event must pop exactly at its time, newest first among events due
// together, and nextAt must name the earliest pending one.
func TestCalendarDeliversInTimeOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var c calendar
	c.reset()
	due := map[int32]int64{} // pending event -> its time
	next := int32(0)         // events are numbered in push order
	var buf []int32
	now := int64(0)
	for step := 0; step < 20000; step++ {
		buf = c.pop(now, buf[:0])
		last := int32(math.MaxInt32)
		for _, d := range buf {
			if at, ok := due[d]; !ok || at != now {
				t.Fatalf("cycle %d: popped event %d due at %d (pending %v)", now, d, at, ok)
			}
			delete(due, d)
			if d > last {
				t.Fatalf("cycle %d: event %d popped after older event %d", now, d, last)
			}
			last = d
		}
		for k := rng.Intn(4); k > 0 && step < 15000; k-- {
			at := now + 1 + rng.Int63n(3*calSlots)
			if rng.Intn(2) == 0 {
				at = now + 1 + rng.Int63n(8) // crowd a few buckets
			}
			c.push(at, now, next)
			due[next] = at
			next++
		}
		want := int64(math.MaxInt64)
		for _, at := range due {
			want = min(want, at)
		}
		if got := c.nextAt(now); got != want {
			t.Fatalf("cycle %d: nextAt %d, earliest pending event at %d", now, got, want)
		}
		if want == math.MaxInt64 {
			break
		}
		if rng.Intn(3) == 0 {
			now = want
		} else {
			now++
		}
	}
	if len(due) != 0 {
		t.Fatalf("%d events never popped", len(due))
	}
}
