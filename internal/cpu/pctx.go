package cpu

import (
	"math/bits"

	"repro/internal/isa"
	"repro/internal/trace"
)

// Dependence-reference kinds for p-instruction source operands.
const (
	depNone uint8 = iota // value ready at spawn (live-in already computed, R0, immediate)
	depMain              // value produced by an in-flight main-thread instruction
	depBody              // value produced by an earlier body instruction
)

type depRef struct {
	kind uint8
	idx  int32 // main-thread dynamic index or body index
}

// bodyInst is the static summary of one body instruction, built once per
// installed p-thread and shared by all its instances: isa predicate flags
// plus flagTarget, the functional-unit latency, and each source operand as
// bodySrc encodes it.
type bodyInst struct {
	flags      uint8
	lat        uint8
	src1, src2 int32
}

// flagTarget marks a body load as a prefetch target in bodyInst.flags. It
// sits above the isa.Flag* predicate bits.
const flagTarget uint8 = 1 << 7

// pinst is one body instruction of a running instance: its issue-time
// state, kept together so an issue pass touches one line per instruction.
type pinst struct {
	completeAt int64 // 0 until issued
	addr       int64 // load address
	dep1, dep2 depRef
}

// pctx is a hardware p-thread context. At spawn the body is executed
// functionally against the main thread's dispatch-time register state and
// memory image — the values a real DDMT context would compute through its
// checkpointed map table — while issue timing replays the same dataflow
// against producer completion times.
//
// Every slice is preallocated once (see grow) to the largest installed body,
// so spawning a p-thread instance performs no allocation. Whether a context
// is in use lives in the simulator's live set, not in the context.
type pctx struct {
	// Progress, read by every pass over the context.
	fetched      int
	dispatched   int
	issued       int
	freed        int
	abortAt      int // body index of a wild (out-of-range) address; len(Body) if none
	nextBlockAt  int64
	blockReadyAt int64

	// waitMain is the main-thread producer whose wakeup list the event
	// engine subscribed this context to (-1 none), so a head re-examined
	// while still waiting does not subscribe twice.
	waitMain int32
	spawnID  int32
	statIdx  int32 // index into the simulator's pthStats
	pt       *PThread
	body     []bodyInst // pt's static summary
	insts    []pinst
	vals     []int64 // functional results, used while pre-executing
}

// limit returns the effective body length: an aborted body squashes at the
// faulting instruction.
func (c *pctx) limit() int { return c.abortAt }

// grow preallocates the context's working arrays for bodies up to n
// instructions. Called once per context at simulator construction; init then
// reslices without allocating.
func (c *pctx) grow(n int) {
	if cap(c.vals) >= n {
		return
	}
	c.vals = make([]int64, n)
	c.insts = make([]pinst, n)
}

// init prepares the context for a new instance of installed p-thread ti,
// executing the body functionally to obtain values, addresses and
// dependence references.
func (c *pctx) init(ti, spawnID int32, s *Simulator) {
	pt := s.pthreads[ti]
	n := len(pt.Body)
	off := int(s.bodyOff[ti])
	c.pt = pt
	c.spawnID = spawnID
	c.statIdx = s.statOf[ti]
	c.body = s.body[off : off+n]
	c.fetched = 0
	c.dispatched = 0
	c.issued = 0
	c.freed = 0
	c.nextBlockAt = s.now
	c.blockReadyAt = s.now
	c.waitMain = -1
	c.grow(n) // no-op in steady state: NewSimulator sized the pools
	c.vals = c.vals[:n]
	c.insts = c.insts[:n]
	c.abortAt = c.exec(&s.specRegs, &s.lastWriter, s.mem)
	if c.abortAt < n {
		s.pthStats[c.statIdx].Aborted++
	}
}

// ctxSet is a bitset over p-thread context indices. Walks visit members in
// ascending index order, the order in which contexts share issue and rename
// bandwidth; any number of contexts fits.
type ctxSet []uint64

// reset sizes the set for n contexts and empties it, reusing its storage.
func (cs ctxSet) reset(n int) ctxSet {
	cs = grow(cs, (n+63)>>6)
	for i := range cs {
		cs[i] = 0
	}
	return cs
}

func (cs ctxSet) has(c int) bool { return cs[c>>6]&(1<<uint(c&63)) != 0 }
func (cs ctxSet) add(c int)      { cs[c>>6] |= 1 << uint(c&63) }
func (cs ctxSet) del(c int)      { cs[c>>6] &^= 1 << uint(c&63) }

// next returns the smallest member at or above c, or -1 when there is none.
func (cs ctxSet) next(c int) int {
	w := c >> 6
	if w >= len(cs) {
		return -1
	}
	word := cs[w] &^ (1<<uint(c&63) - 1)
	for word == 0 {
		if w++; w == len(cs) {
			return -1
		}
		word = cs[w]
	}
	return w<<6 | bits.TrailingZeros64(word)
}

// free returns the smallest non-member below n, or -1 when all n are
// members. Bits at and above n are never set.
func (cs ctxSet) free(n int) int {
	for w, word := range cs {
		if word != ^uint64(0) {
			if c := w<<6 | bits.TrailingZeros64(^word); c < n {
				return c
			}
			return -1
		}
	}
	return -1
}

// bodySrc encodes a body instruction's source operand for pctx.exec, given
// the body index + 1 of each register's last earlier writer in the body: a
// body index k >= 0 reads body instruction k's result; -1-r reads live-in
// register r from the main thread. An operand the instruction does not read
// is encoded as live-in r0, which holds 0 and never has a main-thread
// writer (no instruction writes r0), so it neither waits nor feeds Eval.
func bodySrc(reads bool, r isa.Reg, writer *[isa.NumRegs]int32) int32 {
	if !reads || r == isa.Zero {
		return -1
	}
	if w := writer[r]; w > 0 {
		return w - 1
	}
	return -1 - int32(r)
}

// exec functionally pre-executes the body against a dispatch-time
// architectural snapshot (register values, per-register last in-flight
// writer, and the program-order memory image), filling vals and each
// instruction's address and dependence references, and marking it not yet
// issued. It returns the abort index: the body position of a wild address
// or undefined ALU result, or len(Body) if the whole body executed. Slots at
// and beyond the abort index are left unspecified, as the context squashes
// there. The snapshot is read-only; it depends only on the main thread's
// program-order prefix, never on simulated timing.
func (c *pctx) exec(specRegs *[isa.NumRegs]int64, lastWriter *[isa.NumRegs]int64, mem []int64) int {
	body := c.pt.Body
	memWords := int64(len(mem))
	for j := range body {
		in := &body[j]
		bi := c.body[j]
		p := &c.insts[j]
		var v1, v2 int64
		v1, p.dep1 = c.operand(bi.src1, specRegs, lastWriter)
		v2, p.dep2 = c.operand(bi.src2, specRegs, lastWriter)
		p.completeAt = 0
		switch {
		case bi.flags&isa.FlagALU != 0:
			v, err := in.Eval(v1, v2)
			if err != nil {
				// Unreachable after PThread.Validate (bodies are ALU/Load/Nop
				// only), but a body that somehow defies ALU semantics squashes
				// like a wild address instead of crashing the simulation.
				return j
			}
			c.vals[j] = v
		case bi.flags&isa.FlagLoad != 0:
			addr := v1 + in.Imm
			if addr&7 != 0 || addr < 0 || addr>>3 >= memWords {
				// Wild address: the context squashes here, as a real
				// implementation would suppress the fault and kill the
				// p-thread.
				return j
			}
			p.addr = addr
			c.vals[j] = mem[addr>>3]
		}
	}
	return len(body)
}

// operand returns a source operand's value and dependence reference. A
// live-in register with an in-flight main-thread writer depends on it; a
// committed or completed writer is folded into depNone lazily by the
// readiness check (which treats completed producers as ready).
func (c *pctx) operand(src int32, specRegs *[isa.NumRegs]int64, lastWriter *[isa.NumRegs]int64) (int64, depRef) {
	if src >= 0 {
		return c.vals[src], depRef{kind: depBody, idx: src}
	}
	r := -1 - src
	if lw := lastWriter[r]; lw != trace.NoProducer {
		return specRegs[r], depRef{kind: depMain, idx: int32(lw)}
	}
	return specRegs[r], depRef{kind: depNone}
}
