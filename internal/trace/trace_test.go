package trace

import (
	"testing"
	"testing/quick"

	"repro/internal/isa"
)

// sumLoop builds: for i in 0..n-1 { acc += mem[i*8] }; halt.
func sumLoop(n int64, mem []int64) *isa.Program {
	b := isa.NewBuilder("sumloop")
	const (
		rI   = isa.Reg(1)
		rN   = isa.Reg(2)
		rAcc = isa.Reg(3)
		rAdr = isa.Reg(4)
		rV   = isa.Reg(5)
		rC   = isa.Reg(6)
	)
	b.MovI(rI, 0)
	b.MovI(rN, n)
	b.MovI(rAcc, 0)
	b.Label("top")
	b.ShlI(rAdr, rI, 3)
	b.Load(rV, rAdr, 0)
	b.Add(rAcc, rAcc, rV)
	b.AddI(rI, rI, 1)
	b.CmpLT(rC, rI, rN)
	b.BrNZ(rC, "top")
	b.Halt()
	b.SetMem(mem)
	return b.MustBuild()
}

func TestInterpreterSumLoop(t *testing.T) {
	mem := []int64{3, 1, 4, 1, 5, 9, 2, 6}
	p := sumLoop(8, mem)
	tr, err := Run(p)
	if err != nil {
		t.Fatal(err)
	}
	if got := tr.FinalRegs[3]; got != 31 {
		t.Errorf("acc = %d, want 31", got)
	}
	// 3 init + 8 iterations * 6 + halt
	if want := 3 + 8*6 + 1; tr.Len() != want {
		t.Errorf("trace length = %d, want %d", tr.Len(), want)
	}
}

func TestInterpreterBranchOutcomes(t *testing.T) {
	p := sumLoop(3, []int64{1, 2, 3})
	tr := MustRun(p)
	var taken, notTaken int
	for i := 0; i < tr.Len(); i++ {
		if tr.Inst(i).IsBranch() {
			if tr.Taken(i) {
				taken++
			} else {
				notTaken++
			}
		}
	}
	if taken != 2 || notTaken != 1 {
		t.Errorf("taken=%d notTaken=%d, want 2,1", taken, notTaken)
	}
}

func TestInterpreterProducers(t *testing.T) {
	b := isa.NewBuilder("prod")
	b.MovI(1, 5)    // dyn 0
	b.MovI(2, 7)    // dyn 1
	b.Add(3, 1, 2)  // dyn 2: prods 0, 1
	b.AddI(3, 3, 1) // dyn 3: prod 2
	b.Halt()
	tr := MustRun(b.MustBuild())
	if p1, p2 := tr.Prod1(2), tr.Prod2(2); p1 != 0 || p2 != 1 {
		t.Errorf("add producers = %d,%d, want 0,1", p1, p2)
	}
	if tr.Prod1(3) != 2 {
		t.Errorf("addi producer = %d, want 2", tr.Prod1(3))
	}
	if tr.Prod1(0) != NoProducer {
		t.Error("movi must have no producer")
	}
}

func TestInterpreterZeroRegister(t *testing.T) {
	b := isa.NewBuilder("zero")
	b.MovI(0, 99) // write to R0 discarded
	b.AddI(1, 0, 3)
	b.Halt()
	tr := MustRun(b.MustBuild())
	if tr.FinalRegs[0] != 0 {
		t.Error("R0 must stay zero")
	}
	if tr.FinalRegs[1] != 3 {
		t.Errorf("r1 = %d, want 3", tr.FinalRegs[1])
	}
	if tr.Prod1(1) != NoProducer {
		t.Error("reads of R0 must have no producer")
	}
}

func TestInterpreterStoreLoad(t *testing.T) {
	b := isa.NewBuilder("stld")
	b.MovI(1, 16)   // address
	b.MovI(2, 1234) // data
	b.Store(1, 0, 2)
	b.Load(3, 1, 0)
	b.Halt()
	b.SetMem(make([]int64, 8))
	tr := MustRun(b.MustBuild())
	if tr.FinalRegs[3] != 1234 {
		t.Errorf("loaded %d, want 1234", tr.FinalRegs[3])
	}
	if tr.Addr(2) != 16 || tr.Addr(3) != 16 {
		t.Error("store/load addresses not recorded")
	}
	if tr.Val(2) != 1234 {
		t.Error("store value not recorded")
	}
}

func TestInterpreterMemoryInitIsolation(t *testing.T) {
	init := []int64{7}
	b := isa.NewBuilder("iso")
	b.MovI(1, 42)
	b.Store(0, 0, 1)
	b.Halt()
	b.SetMem(init)
	MustRun(b.MustBuild())
	if init[0] != 7 {
		t.Error("interpreter mutated the program's InitMem image")
	}
}

func TestInterpreterErrors(t *testing.T) {
	t.Run("unaligned", func(t *testing.T) {
		b := isa.NewBuilder("una")
		b.MovI(1, 4)
		b.Load(2, 1, 0)
		b.Halt()
		b.SetMem(make([]int64, 4))
		if _, err := Run(b.MustBuild()); err == nil {
			t.Error("unaligned access accepted")
		}
	})
	t.Run("out-of-bounds", func(t *testing.T) {
		b := isa.NewBuilder("oob")
		b.MovI(1, 1<<20)
		b.Load(2, 1, 0)
		b.Halt()
		b.SetMem(make([]int64, 4))
		if _, err := Run(b.MustBuild()); err == nil {
			t.Error("out-of-bounds access accepted")
		}
	})
	t.Run("negative", func(t *testing.T) {
		b := isa.NewBuilder("neg")
		b.MovI(1, -8)
		b.Load(2, 1, 0)
		b.Halt()
		b.SetMem(make([]int64, 4))
		if _, err := Run(b.MustBuild()); err == nil {
			t.Error("negative address accepted")
		}
	})
	t.Run("runaway", func(t *testing.T) {
		b := isa.NewBuilder("run")
		b.Label("top")
		b.Jmp("top")
		it := Interpreter{MaxInsts: 100}
		if _, err := it.Run(b.MustBuild()); err == nil {
			t.Error("runaway loop accepted")
		}
	})
}

func TestStaticCounts(t *testing.T) {
	p := sumLoop(4, []int64{1, 1, 1, 1})
	tr := MustRun(p)
	counts := tr.StaticCounts()
	// The loop body (PCs 3..8) executes 4 times each.
	for pc := 3; pc <= 8; pc++ {
		if counts[pc] != 4 {
			t.Errorf("pc %d count = %d, want 4", pc, counts[pc])
		}
	}
	if counts[0] != 1 {
		t.Errorf("entry count = %d, want 1", counts[0])
	}
}

// Property: for every entry with a producer, the producer is an earlier
// dynamic instruction that writes the register the entry reads.
func TestProducerConsistencyProperty(t *testing.T) {
	check := func(seed uint32, n uint8) bool {
		size := int64(n%16) + 1
		mem := make([]int64, size)
		s := int64(seed)
		for i := range mem {
			s = s*6364136223846793005 + 1442695040888963407
			mem[i] = (s >> 33) % 100
		}
		tr := MustRun(sumLoop(size, mem))
		for i := 0; i < tr.Len(); i++ {
			in := tr.Inst(i)
			if p1 := tr.Prod1(i); p1 != NoProducer {
				if p1 >= int64(i) {
					return false
				}
				p := tr.Inst(int(p1))
				if p.Dst != in.Src1 || !p.HasDst() {
					return false
				}
			}
			if p2 := tr.Prod2(i); p2 != NoProducer {
				if p2 >= int64(i) {
					return false
				}
				p := tr.Inst(int(p2))
				if p.Dst != in.Src2 || !p.HasDst() {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

// refEntry is the pre-SoA 48-byte array-of-structs record, retained here as
// the behavioural reference for the differential tests below.
type refEntry struct {
	PC    int32
	Prod1 int64
	Prod2 int64
	Addr  int64
	Val   int64
	Taken bool
}

// referenceRun is a direct port of the pre-SoA interpreter: it executes p
// into a flat []refEntry, independently of the chunked column builder.
func referenceRun(t *testing.T, p *isa.Program) ([]refEntry, [isa.NumRegs]int64) {
	t.Helper()
	mem := make([]int64, len(p.InitMem))
	copy(mem, p.InitMem)
	var regs [isa.NumRegs]int64
	var lastWriter [isa.NumRegs]int64
	for r := range lastWriter {
		lastWriter[r] = NoProducer
	}
	var entries []refEntry
	pc := p.Entry
	for n := 0; ; n++ {
		if n >= 1_000_000 {
			t.Fatal("referenceRun: runaway program")
		}
		in := p.Insts[pc]
		e := refEntry{PC: int32(pc), Prod1: NoProducer, Prod2: NoProducer}
		if in.ReadsSrc1() && in.Src1 != isa.Zero {
			e.Prod1 = lastWriter[in.Src1]
		}
		if in.ReadsSrc2() && in.Src2 != isa.Zero {
			e.Prod2 = lastWriter[in.Src2]
		}
		next := pc + 1
		switch {
		case in.IsALU():
			v, err := in.Eval(regs[in.Src1], regs[in.Src2])
			if err != nil {
				t.Fatalf("referenceRun: pc %d: %v", pc, err)
			}
			e.Val = v
			if in.Dst != isa.Zero {
				regs[in.Dst] = v
				lastWriter[in.Dst] = int64(len(entries))
			}
		case in.Op == isa.Load:
			addr := regs[in.Src1] + in.Imm
			v := mem[addr>>3]
			e.Addr, e.Val = addr, v
			if in.Dst != isa.Zero {
				regs[in.Dst] = v
				lastWriter[in.Dst] = int64(len(entries))
			}
		case in.Op == isa.Store:
			addr := regs[in.Src1] + in.Imm
			mem[addr>>3] = regs[in.Src2]
			e.Addr, e.Val = addr, regs[in.Src2]
		case in.Op == isa.BrZ:
			e.Taken = regs[in.Src1] == 0
			if e.Taken {
				next = in.Target
			}
		case in.Op == isa.BrNZ:
			e.Taken = regs[in.Src1] != 0
			if e.Taken {
				next = in.Target
			}
		case in.Op == isa.Jmp:
			e.Taken = true
			next = in.Target
		case in.Op == isa.Halt:
			return append(entries, e), regs
		}
		entries = append(entries, e)
		pc = next
	}
}

// diffTrace compares every column of tr — through both the random accessors
// and the cursor — against the reference entries.
func diffTrace(t *testing.T, tr *Trace, want []refEntry) {
	t.Helper()
	if tr.Len() != len(want) {
		t.Fatalf("trace length = %d, want %d", tr.Len(), len(want))
	}
	cu := tr.Cursor()
	for i, e := range want {
		if !cu.Next() {
			t.Fatalf("cursor exhausted at %d of %d", i, len(want))
		}
		if cu.Index() != i {
			t.Fatalf("cursor index = %d, want %d", cu.Index(), i)
		}
		got := refEntry{PC: tr.PC(i), Prod1: tr.Prod1(i), Prod2: tr.Prod2(i),
			Addr: tr.Addr(i), Val: tr.Val(i), Taken: tr.Taken(i)}
		if got != e {
			t.Fatalf("entry %d (accessors) = %+v, want %+v", i, got, e)
		}
		got = refEntry{PC: cu.PC(), Prod1: cu.Prod1(), Prod2: cu.Prod2(),
			Addr: cu.Addr(), Val: cu.Val(), Taken: cu.Taken()}
		if got != e {
			t.Fatalf("entry %d (cursor) = %+v, want %+v", i, got, e)
		}
	}
	if cu.Next() {
		t.Fatal("cursor ran past the end")
	}
}

// randomProgram builds a seeded random straight-ish-line workload mixing
// ALU chains, loads, stores and a counted loop, for the differential and
// escape-path stress tests.
func randomProgram(seed int64, iters int64) *isa.Program {
	rng := func() int64 {
		seed = seed*6364136223846793005 + 1442695040888963407
		return (seed >> 33) & 0x7FFFFFFF
	}
	const words = 64
	mem := make([]int64, words)
	for i := range mem {
		mem[i] = rng() % 1000
	}
	b := isa.NewBuilder("rand")
	b.MovI(1, 0)
	b.MovI(2, iters)
	b.Label("top")
	for k := 0; k < 12; k++ {
		dst := isa.Reg(3 + rng()%8)
		s1 := isa.Reg(1 + rng()%10)
		switch rng() % 4 {
		case 0:
			b.AddI(dst, s1, rng()%16)
		case 1:
			b.Add(dst, s1, isa.Reg(1+rng()%10))
		case 2:
			b.AndI(dst, s1, (words-1)*8)
			b.AndI(dst, dst, ^int64(7))
			b.Load(isa.Reg(3+rng()%8), dst, 0)
		default:
			b.AndI(dst, s1, (words-1)*8)
			b.AndI(dst, dst, ^int64(7))
			b.Store(dst, 0, isa.Reg(1+rng()%10))
		}
	}
	b.AddI(1, 1, 1)
	b.CmpLT(11, 1, 2)
	b.BrNZ(11, "top")
	b.Halt()
	b.SetMem(mem)
	return b.MustBuild()
}

// TestSoAMatchesAoSReference is the trace-level differential: the chunked
// structure-of-arrays builder must reproduce, entry for entry, exactly what
// the retired array-of-structs interpreter recorded — across chunk
// boundaries (sumLoop sized past chunkLen) and on randomized programs.
func TestSoAMatchesAoSReference(t *testing.T) {
	mem := make([]int64, 8192)
	for i := range mem {
		mem[i] = int64(i * 3)
	}
	progs := []*isa.Program{
		sumLoop(8192, mem), // 3 + 8192*6 + 1 entries: spans multiple chunks
		randomProgram(1, 500),
		randomProgram(42, 2000),
		randomProgram(3, 300),
		randomProgram(99, 300),
		randomProgram(123456, 300),
	}
	for _, p := range progs {
		want, wantRegs := referenceRun(t, p)
		tr := MustRun(p)
		if tr.FinalRegs != wantRegs {
			t.Errorf("%s: final registers diverge from AoS reference", p.Name)
		}
		diffTrace(t, tr, want)
	}
}

// TestInterpreterRejectsUnencodableBound: a MaxInsts bound past the
// producer encoding's reach is an error up front, never a wrapped index.
func TestInterpreterRejectsUnencodableBound(t *testing.T) {
	p := sumLoop(4, []int64{1, 2, 3, 4})
	tr, err := Interpreter{MaxInsts: 1 << 32}.Run(p)
	if err == nil || tr != nil {
		t.Fatalf("MaxInsts 1<<32: got trace %v, err %v; want an error", tr, err)
	}
	if _, err := (Interpreter{MaxInsts: maxEntries}).Run(p); err != nil {
		t.Fatalf("MaxInsts at the limit: %v", err)
	}
}

// Property: interpreter results are deterministic.
func TestDeterminismProperty(t *testing.T) {
	mem := []int64{5, 4, 3, 2, 1}
	p := sumLoop(5, mem)
	t1 := MustRun(p)
	t2 := MustRun(p)
	if t1.Len() != t2.Len() || t1.FinalRegs != t2.FinalRegs {
		t.Error("two runs of the same program differ")
	}
	for i := 0; i < t1.Len(); i++ {
		a := refEntry{t1.PC(i), t1.Prod1(i), t1.Prod2(i), t1.Addr(i), t1.Val(i), t1.Taken(i)}
		b := refEntry{t2.PC(i), t2.Prod1(i), t2.Prod2(i), t2.Addr(i), t2.Val(i), t2.Taken(i)}
		if a != b {
			t.Fatalf("entry %d differs", i)
		}
	}
}
