package cpu

import "math"

const (
	calBits  = 10
	calSlots = 1 << calBits // wheel horizon in cycles
	calMask  = calSlots - 1
)

type calEvent struct {
	at int64
	d  int32
}

// calNode is one event in a wheel bucket's list. Nodes live in a pool and
// are chained through index+1 links (0 terminates), like wakeNode, so the
// wheel is one small array of list heads and pushing or popping an event
// touches the pool's recently freed nodes instead of a slice per bucket.
type calNode struct {
	d    int32
	next int32
}

// calendar is a calendar/bucket queue of future completion events, each
// carrying a main-thread dynamic index (>= 0) or a p-thread context
// (ctxEvent). Events within the wheel horizon join the head of bucket
// at&calMask; events beyond it wait in a small time-sorted overflow list
// and migrate into the wheel as the clock approaches.
//
// The engine pops every cycle that holds an event (cycle skipping never
// jumps past nextAt), so at any cycle now the wheel holds only events in
// (now, now+calSlots): bucket t&calMask holds exactly the events due at t.
// Nodes therefore need no time stamp, and a pop takes its whole bucket,
// newest event first.
type calendar struct {
	head    [calSlots]int32 // per bucket: first node, index+1 (0 = empty)
	nodes   []calNode
	free    int32      // free-node list head, index+1 (0 = empty)
	far     []calEvent // sorted by at, ascending
	pending int
}

// reset empties the queue, keeping the node pool's storage for reuse.
func (c *calendar) reset() {
	c.head = [calSlots]int32{}
	c.nodes = c.nodes[:0]
	c.free = 0
	c.far = c.far[:0]
	c.pending = 0
}

// push schedules an event; at must be in the future. An event at now would
// land in the bucket this cycle already popped and surface only a full
// wheel turn later: Config.Validate's L1D.HitLatency floor keeps every
// completion at least one cycle after its issue.
//
//lab:hotpath
func (c *calendar) push(at int64, now int64, d int32) {
	c.pending++
	if at-now < calSlots {
		c.link(at, d)
		return
	}
	i := len(c.far)
	c.far = append(c.far, calEvent{})
	for i > 0 && c.far[i-1].at > at {
		c.far[i] = c.far[i-1]
		i--
	}
	c.far[i] = calEvent{at: at, d: d}
}

// link adds an event to its wheel bucket.
//
//lab:hotpath
func (c *calendar) link(at int64, d int32) {
	var n int32
	if c.free != 0 {
		n = c.free
		c.free = c.nodes[n-1].next
	} else {
		c.nodes = append(c.nodes, calNode{})
		n = int32(len(c.nodes))
	}
	s := at & calMask
	c.nodes[n-1] = calNode{d: d, next: c.head[s]}
	c.head[s] = n
}

// pop appends every event due at now to dst, newest first, and returns it.
//
//lab:hotpath
func (c *calendar) pop(now int64, dst []int32) []int32 {
	for len(c.far) > 0 && c.far[0].at-now < calSlots {
		ev := c.far[0]
		c.far = c.far[:copy(c.far, c.far[1:])]
		c.link(ev.at, ev.d)
	}
	s := now & calMask
	first := c.head[s]
	if first == 0 {
		return dst
	}
	c.head[s] = 0
	n := first
	for {
		node := &c.nodes[n-1]
		dst = append(dst, node.d)
		c.pending--
		if node.next == 0 {
			// Hand the whole list to the free list.
			node.next = c.free
			c.free = first
			return dst
		}
		n = node.next
	}
}

// nextAt returns the earliest pending event time strictly after now, or
// math.MaxInt64 when the calendar is empty.
//
//lab:hotpath
func (c *calendar) nextAt(now int64) int64 {
	if c.pending == 0 {
		return math.MaxInt64
	}
	for off := int64(1); off < calSlots; off++ {
		if c.head[(now+off)&calMask] != 0 {
			return now + off
		}
	}
	return c.far[0].at
}
