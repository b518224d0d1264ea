package cpu

import (
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
	idx  int64 // main-thread dynamic index or body index
}

// pctx is a hardware p-thread context. At spawn the body is executed
// functionally against the main thread's dispatch-time register state and
// memory image — the values a real DDMT context would compute through its
// checkpointed map table — while issue timing replays the same dataflow
// against producer completion times.
//
// Every slice is preallocated once (see grow) to the largest installed body,
// so spawning a p-thread instance performs no allocation.
type pctx struct {
	active  bool
	pt      *PThread
	spawnID int32
	statIdx int32 // index into the simulator's pthStats

	// Precomputed at spawn.
	vals       []int64
	addrs      []int64
	dep1       []depRef
	dep2       []depRef
	targetMask []bool // per body index: is a prefetch target load
	abortAt    int    // body index of a wild (out-of-range) address; len(Body) if none

	// Progress.
	fetched      int
	dispatched   int
	issued       int
	freed        int
	nextBlockAt  int64
	blockReadyAt int64
	completeAt   []int64
}

// limit returns the effective body length: an aborted body squashes at the
// faulting instruction.
func (c *pctx) limit() int { return c.abortAt }

func (c *pctx) isTarget(j int) bool { return c.targetMask[j] }

// grow preallocates the context's working arrays for bodies up to n
// instructions. Called once per context at simulator construction; init then
// reslices without allocating.
func (c *pctx) grow(n int) {
	if cap(c.vals) >= n {
		return
	}
	c.vals = make([]int64, n)
	c.addrs = make([]int64, n)
	c.dep1 = make([]depRef, n)
	c.dep2 = make([]depRef, n)
	c.completeAt = make([]int64, n)
	c.targetMask = make([]bool, n)
}

// init prepares the context for a new instance of pt, executing the body
// functionally to obtain values, addresses and dependence references.
func (c *pctx) init(pt *PThread, spawnID, statIdx int32, s *Simulator) {
	n := len(pt.Body)
	c.active = true
	c.pt = pt
	c.spawnID = spawnID
	c.statIdx = statIdx
	c.fetched = 0
	c.dispatched = 0
	c.issued = 0
	c.freed = 0
	c.nextBlockAt = s.now
	c.blockReadyAt = s.now
	c.grow(n) // no-op in steady state: NewSimulator sized the pools
	c.vals = c.vals[:n]
	c.addrs = c.addrs[:n]
	c.dep1 = c.dep1[:n]
	c.dep2 = c.dep2[:n]
	c.completeAt = c.completeAt[:n]
	for i := range c.completeAt {
		c.completeAt[i] = 0
	}
	c.targetMask = c.targetMask[:n]
	for i := range c.targetMask {
		c.targetMask[i] = false
	}
	for _, t := range pt.Targets {
		c.targetMask[t] = true
	}
	c.abortAt = execBody(pt.Body, &s.specRegs, s.lastWriter[:], s.mem,
		c.vals, c.addrs, c.dep1, c.dep2)
	if c.abortAt < n {
		s.pthStats[statIdx].Aborted++
	}
}

// execBody functionally pre-executes body against a dispatch-time
// architectural snapshot (register values, per-register last in-flight
// writer, and the program-order memory image), filling vals, addrs and the
// dependence references. It returns the abort index: the body position of a
// wild address or undefined ALU result, or len(body) if the whole body
// executed. Slots at and beyond the abort index are left unspecified, as
// the context squashes there. The snapshot is read-only; depends only on
// the main thread's program-order prefix, never on simulated timing.
func execBody(body []isa.Inst, specRegs *[isa.NumRegs]int64, lastWriter, mem []int64,
	vals, addrs []int64, dep1, dep2 []depRef) int {
	n := len(body)
	var regs [64]int64
	copy(regs[:], specRegs[:])
	var bodyWriter [64]int64 // body index of last writer, -1 = main thread
	for r := range bodyWriter {
		bodyWriter[r] = -1
	}
	memWords := int64(len(mem))
	for j := 0; j < n; j++ {
		in := body[j]
		dep1[j] = depFor(in.ReadsSrc1(), in.Src1, bodyWriter[:], lastWriter)
		dep2[j] = depFor(in.ReadsSrc2(), in.Src2, bodyWriter[:], lastWriter)
		switch {
		case in.IsALU():
			v, err := in.Eval(regs[in.Src1], regs[in.Src2])
			if err != nil {
				// Unreachable after PThread.Validate (bodies are ALU/Load/Nop
				// only), but a body that somehow defies ALU semantics squashes
				// like a wild address instead of crashing the simulation.
				return j
			}
			vals[j] = v
			if in.HasDst() {
				regs[in.Dst] = v
				bodyWriter[in.Dst] = int64(j)
			}
		case in.IsLoad():
			addr := regs[in.Src1] + in.Imm
			if addr&7 != 0 || addr < 0 || addr>>3 >= memWords {
				// Wild address: the context squashes here, as a real
				// implementation would suppress the fault and kill the
				// p-thread.
				return j
			}
			addrs[j] = addr
			v := mem[addr>>3]
			vals[j] = v
			if in.HasDst() {
				regs[in.Dst] = v
				bodyWriter[in.Dst] = int64(j)
			}
		}
	}
	return n
}

func depFor(reads bool, r isa.Reg, bodyWriter, lastWriter []int64) depRef {
	if !reads || r == isa.Zero {
		return depRef{kind: depNone}
	}
	if bw := bodyWriter[r]; bw >= 0 {
		return depRef{kind: depBody, idx: bw}
	}
	if lw := lastWriter[r]; lw != trace.NoProducer {
		// Only an in-flight, not-yet-complete producer creates a wait; a
		// committed or completed one is folded into depNone lazily by the
		// readiness check (which treats completed producers as ready).
		return depRef{kind: depMain, idx: lw}
	}
	return depRef{kind: depNone}
}
