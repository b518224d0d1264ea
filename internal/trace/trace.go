// Package trace provides the functional interpreter for the micro-ISA and
// the dynamic-trace representation consumed by the timing simulator, the
// profiler, the critical-path analyzer and the slicer.
//
// A dynamic trace records, per retired instruction: the static PC, the
// dynamic indices of the producers of its source registers (enabling exact
// backward slicing and exact dataflow timing), the effective address of
// memory operations, branch direction, and the value written (enabling the
// timing simulator to seed p-thread contexts with real register values).
//
// # Memory layout
//
// The trace is a chunked structure of arrays: entries live in fixed-size
// chunks (chunkLen dynamic instructions each), and within a chunk every
// field is its own dense column — a []int32 of PCs, two []uint32 producer
// columns, []int64 address and value columns, and a []uint64 branch-outcome
// bitset. Compared to the previous 48-byte padded array-of-structs record
// this cuts the footprint to ~28.1 bytes per instruction and, more
// importantly, lets each pipeline stage of a consumer stream only the
// columns it needs (fetch touches PCs and branch bits; wakeup touches
// producers; the LSQ touches addresses), so the hot loops walk dense,
// cache-friendly memory.
//
// Producer links are stored as the producer's dynamic index plus one in a
// uint32 column, so 0 means "no producer" and a read is one branch-free
// subtract. The spill format writes these columns verbatim and the mapped
// load aliases them, so memory, disk and the mmap path share one encoding.
// Index plus one must fit in 32 bits: a trace holds at most maxEntries
// entries, and the interpreter rejects a MaxInsts bound above that.
//
// Chunking keeps peak memory at ~1x during construction — appending a chunk
// never re-copies the columns already built, unlike a doubling []Entry
// append.
//
// Consumers read entries through the index-cursor API: random access via
// the PC/Prod1/Prod2/Addr/Val/Taken accessors, sequential scans via Cursor,
// which pins the current chunk's columns and amortizes the chunk lookup.
package trace

import (
	"fmt"

	"repro/internal/isa"
)

// NoProducer marks a source operand whose value predates the trace (it was a
// program live-in, a constant, or R0).
const NoProducer int64 = -1

// Chunk geometry. 1<<15 entries keeps a chunk's working set near 1MB while
// bounding the slack of the final, partially-filled chunk.
const (
	chunkBits = 15
	chunkLen  = 1 << chunkBits
	chunkMask = chunkLen - 1
)

// maxEntries is the longest trace the producer encoding can represent: the
// last entry's index plus one must fit in a uint32.
const maxEntries = 1<<32 - 1

// chunk holds chunkLen entries as parallel columns.
type chunk struct {
	pc    []int32  // static instruction index
	prod1 []uint32 // Src1 producer index + 1, 0 = none (see encoding above)
	prod2 []uint32 // Src2 producer index + 1, 0 = none
	addr  []int64  // effective byte address (Load/Store), else 0
	val   []int64  // value written to Dst (ALU/Load) or stored (Store)
	taken []uint64 // branch-outcome bitset (conditional branches and jumps)
}

func newChunk() chunk {
	return chunk{
		pc:    make([]int32, chunkLen),
		prod1: make([]uint32, chunkLen),
		prod2: make([]uint32, chunkLen),
		addr:  make([]int64, chunkLen),
		val:   make([]int64, chunkLen),
		taken: make([]uint64, chunkLen/64),
	}
}

// Trace is a complete dynamic execution of a program in the chunked
// structure-of-arrays layout described in the package comment.
type Trace struct {
	Prog *isa.Program
	// FinalRegs is the architectural register file at halt.
	FinalRegs [isa.NumRegs]int64

	n      int
	chunks []chunk
}

// Len returns the number of dynamic instructions.
func (t *Trace) Len() int { return t.n }

// PC returns the static instruction index of dynamic entry i.
//
//lab:hotpath
func (t *Trace) PC(i int) int32 {
	return t.chunks[i>>chunkBits].pc[i&chunkMask]
}

// Prod1 returns the dynamic index of the producer of entry i's Src1, or
// NoProducer.
//
//lab:hotpath
func (t *Trace) Prod1(i int) int64 {
	return int64(t.chunks[i>>chunkBits].prod1[i&chunkMask]) - 1
}

// Prod2 returns the dynamic index of the producer of entry i's Src2, or
// NoProducer.
//
//lab:hotpath
func (t *Trace) Prod2(i int) int64 {
	return int64(t.chunks[i>>chunkBits].prod2[i&chunkMask]) - 1
}

// Addr returns the effective byte address of entry i (loads and stores; 0
// otherwise).
//
//lab:hotpath
func (t *Trace) Addr(i int) int64 {
	return t.chunks[i>>chunkBits].addr[i&chunkMask]
}

// Val returns the value written (ALU/Load) or stored (Store) by entry i.
//
//lab:hotpath
func (t *Trace) Val(i int) int64 {
	return t.chunks[i>>chunkBits].val[i&chunkMask]
}

// Taken returns the branch outcome of entry i (conditional branches and
// jumps; false otherwise).
//
//lab:hotpath
func (t *Trace) Taken(i int) bool {
	off := i & chunkMask
	return t.chunks[i>>chunkBits].taken[off>>6]&(1<<uint(off&63)) != 0
}

// Inst returns the static instruction of dynamic entry i.
//
//lab:hotpath
func (t *Trace) Inst(i int) isa.Inst { return t.Prog.Insts[t.PC(i)] }

// StaticCounts returns per-PC dynamic execution counts.
func (t *Trace) StaticCounts() []int64 {
	counts := make([]int64, len(t.Prog.Insts))
	for ci := range t.chunks {
		pcs := t.chunks[ci].pc
		hi := t.n - ci<<chunkBits
		if hi > chunkLen {
			hi = chunkLen
		}
		for _, pc := range pcs[:hi] {
			counts[pc]++
		}
	}
	return counts
}

// Cursor is a sequential reader over a trace. It pins the current chunk's
// columns so a full forward scan pays the chunk lookup once per chunkLen
// entries:
//
//	for cu := tr.Cursor(); cu.Next(); {
//	        i := cu.Index()
//	        use(cu.PC(), cu.Prod1(), cu.Taken())
//	}
type Cursor struct {
	t   *Trace
	c   *chunk
	i   int // global index of the current entry
	off int // index within the pinned chunk
}

// Cursor returns a cursor positioned before the first entry.
func (t *Trace) Cursor() Cursor {
	return Cursor{t: t, i: -1, off: chunkMask}
}

// Next advances to the next entry, reporting whether one exists.
//
//lab:hotpath
func (cu *Cursor) Next() bool {
	cu.i++
	if cu.i >= cu.t.n {
		return false
	}
	cu.off++
	if cu.off == chunkLen || cu.c == nil {
		cu.c = &cu.t.chunks[cu.i>>chunkBits]
		cu.off = cu.i & chunkMask
	}
	return true
}

// Index returns the dynamic index of the current entry.
//
//lab:hotpath
func (cu *Cursor) Index() int { return cu.i }

// PC returns the current entry's static instruction index.
//
//lab:hotpath
func (cu *Cursor) PC() int32 { return cu.c.pc[cu.off] }

// Inst returns the current entry's static instruction.
//
//lab:hotpath
func (cu *Cursor) Inst() isa.Inst { return cu.t.Prog.Insts[cu.c.pc[cu.off]] }

// Prod1 returns the current entry's Src1 producer index, or NoProducer.
//
//lab:hotpath
func (cu *Cursor) Prod1() int64 { return int64(cu.c.prod1[cu.off]) - 1 }

// Prod2 returns the current entry's Src2 producer index, or NoProducer.
//
//lab:hotpath
func (cu *Cursor) Prod2() int64 { return int64(cu.c.prod2[cu.off]) - 1 }

// Addr returns the current entry's effective address.
//
//lab:hotpath
func (cu *Cursor) Addr() int64 { return cu.c.addr[cu.off] }

// Val returns the current entry's written/stored value.
//
//lab:hotpath
func (cu *Cursor) Val() int64 { return cu.c.val[cu.off] }

// Taken returns the current entry's branch outcome.
//
//lab:hotpath
func (cu *Cursor) Taken() bool {
	return cu.c.taken[cu.off>>6]&(1<<uint(cu.off&63)) != 0
}

// append records one entry. p1/p2 are producer dynamic indices (or
// NoProducer, which encodes as 0).
func (t *Trace) append(pc int32, p1, p2, addr, val int64, taken bool) {
	off := t.n & chunkMask
	if off == 0 {
		t.chunks = append(t.chunks, newChunk())
	}
	c := &t.chunks[len(t.chunks)-1]
	c.pc[off] = pc
	c.prod1[off] = uint32(p1 + 1)
	c.prod2[off] = uint32(p2 + 1)
	c.addr[off] = addr
	c.val[off] = val
	if taken {
		c.taken[off>>6] |= 1 << uint(off&63)
	}
	t.n++
}

// Interpreter runs a Program functionally, producing a Trace.
type Interpreter struct {
	// MaxInsts bounds execution; an execution exceeding it is reported as an
	// error (runaway-loop guard). Zero means the default of 50M; a bound
	// above maxEntries is rejected, since the trace could not encode it.
	MaxInsts int64
}

// defaultMaxInsts guards against non-terminating workloads.
const defaultMaxInsts = 50_000_000

// Run executes p to completion and returns its trace.
//
// Register semantics: all registers start at zero; R0 reads as zero and
// ignores writes. Memory semantics: the data segment is a copy of p.InitMem;
// accesses must be 8-byte aligned and in-bounds.
func (it Interpreter) Run(p *isa.Program) (*Trace, error) {
	if it.MaxInsts > maxEntries {
		return nil, fmt.Errorf("trace: MaxInsts %d exceeds the %d-entry trace limit", it.MaxInsts, int64(maxEntries))
	}
	if err := p.Validate(); err != nil {
		return nil, err
	}
	max := it.MaxInsts
	if max <= 0 {
		max = defaultMaxInsts
	}
	mem := make([]int64, len(p.InitMem))
	copy(mem, p.InitMem)

	var regs [isa.NumRegs]int64
	var lastWriter [isa.NumRegs]int64
	for r := range lastWriter {
		lastWriter[r] = NoProducer
	}

	tr := &Trace{Prog: p}
	pc := p.Entry
	for n := int64(0); ; n++ {
		if n >= max {
			return nil, fmt.Errorf("trace: program %q exceeded %d instructions", p.Name, max)
		}
		in := p.Insts[pc]
		p1, p2 := NoProducer, NoProducer
		if in.ReadsSrc1() && in.Src1 != isa.Zero {
			p1 = lastWriter[in.Src1]
		}
		if in.ReadsSrc2() && in.Src2 != isa.Zero {
			p2 = lastWriter[in.Src2]
		}

		var eAddr, eVal int64
		taken := false
		next := pc + 1
		switch {
		case in.IsALU():
			v, err := in.Eval(regs[in.Src1], regs[in.Src2])
			if err != nil {
				return nil, fmt.Errorf("trace: pc %d (%s): %w", pc, in, err)
			}
			eVal = v
			if in.Dst != isa.Zero {
				regs[in.Dst] = v
				lastWriter[in.Dst] = int64(tr.n)
			}
		case in.Op == isa.Load:
			addr := regs[in.Src1] + in.Imm
			if err := checkAddr(p, addr, len(mem)); err != nil {
				return nil, fmt.Errorf("pc %d (%s): %w", pc, in, err)
			}
			v := mem[addr>>3]
			eAddr, eVal = addr, v
			if in.Dst != isa.Zero {
				regs[in.Dst] = v
				lastWriter[in.Dst] = int64(tr.n)
			}
		case in.Op == isa.Store:
			addr := regs[in.Src1] + in.Imm
			if err := checkAddr(p, addr, len(mem)); err != nil {
				return nil, fmt.Errorf("pc %d (%s): %w", pc, in, err)
			}
			mem[addr>>3] = regs[in.Src2]
			eAddr, eVal = addr, regs[in.Src2]
		case in.Op == isa.BrZ:
			taken = regs[in.Src1] == 0
			if taken {
				next = in.Target
			}
		case in.Op == isa.BrNZ:
			taken = regs[in.Src1] != 0
			if taken {
				next = in.Target
			}
		case in.Op == isa.Jmp:
			taken = true
			next = in.Target
		case in.Op == isa.Halt:
			tr.append(int32(pc), p1, p2, 0, 0, false)
			tr.FinalRegs = regs
			return tr, nil
		case in.Op == isa.Nop:
			// nothing
		default:
			return nil, fmt.Errorf("trace: pc %d: unexecutable opcode %s", pc, in.Op)
		}
		tr.append(int32(pc), p1, p2, eAddr, eVal, taken)
		pc = next
	}
}

func checkAddr(p *isa.Program, addr int64, memWords int) error {
	if addr&7 != 0 {
		return fmt.Errorf("unaligned address %#x", addr)
	}
	if addr < 0 || addr>>3 >= int64(memWords) {
		return fmt.Errorf("address %#x out of bounds (%d words)", addr, memWords)
	}
	return nil
}

// Run is a convenience wrapper using a default Interpreter.
func Run(p *isa.Program) (*Trace, error) {
	var it Interpreter
	return it.Run(p)
}

// MustRun is Run that panics on error, for tests and examples with known-good
// programs.
func MustRun(p *isa.Program) *Trace {
	t, err := Run(p)
	if err != nil {
		panic(err)
	}
	return t
}
