package cpu

import (
	"testing"

	"repro/internal/isa"
	"repro/internal/trace"
)

// aluChain builds a loop whose body is 8 adds all on one register (a serial
// dependence chain), iterated n times.
func aluChain(n int) *isa.Program {
	b := isa.NewBuilder("chain")
	b.MovI(1, 0)
	b.MovI(10, int64(n))
	b.Label("top")
	for i := 0; i < 8; i++ {
		b.AddI(1, 1, 1)
	}
	b.AddI(11, 11, 1)
	b.CmpLT(12, 11, 10)
	b.BrNZ(12, "top")
	b.Halt()
	return b.MustBuild()
}

// aluParallel builds a loop whose body is 8 adds on 8 independent registers,
// iterated n times.
func aluParallel(n int) *isa.Program {
	b := isa.NewBuilder("par")
	b.MovI(10, int64(n))
	b.Label("top")
	for r := isa.Reg(1); r <= 8; r++ {
		b.AddI(r, r, 1)
	}
	b.AddI(11, 11, 1)
	b.CmpLT(12, 11, 10)
	b.BrNZ(12, "top")
	b.Halt()
	return b.MustBuild()
}

func runProg(t *testing.T, p *isa.Program, pthreads []*PThread) *Result {
	t.Helper()
	tr := trace.MustRun(p)
	res, err := Run(noPrefConfig(), tr, pthreads)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// noPrefConfig disables the conventional stride prefetcher: these tests
// exercise the p-thread machinery on strided workloads that a stride
// prefetcher would otherwise cover.
func noPrefConfig() Config {
	cfg := DefaultConfig()
	cfg.Hier.StrideEntries = 0
	return cfg
}

func TestBaselineCommitsEverything(t *testing.T) {
	p := aluChain(100)
	tr := trace.MustRun(p)
	res, err := Run(DefaultConfig(), tr, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Committed != int64(tr.Len()) {
		t.Errorf("committed %d of %d", res.Committed, tr.Len())
	}
	if res.Cycles <= 0 {
		t.Error("no cycles elapsed")
	}
	if res.Events.InstsMain != res.Committed {
		t.Errorf("dispatched %d != committed %d", res.Events.InstsMain, res.Committed)
	}
}

func TestDependentChainSerializes(t *testing.T) {
	// 1000 iterations × 8 chained adds: the r1 chain bounds execution at
	// ≥ 8000 cycles no matter the width.
	res := runProg(t, aluChain(1000), nil)
	if res.Cycles < 8000 {
		t.Errorf("dependence chain finished in %d cycles", res.Cycles)
	}
}

func TestParallelOpsExploitWidth(t *testing.T) {
	chain := runProg(t, aluChain(1000), nil)
	par := runProg(t, aluParallel(1000), nil)
	if par.Cycles >= chain.Cycles {
		t.Errorf("independent ops (%d cycles) not faster than chain (%d)", par.Cycles, chain.Cycles)
	}
	if par.IPC() < 2 {
		t.Errorf("parallel IPC = %.2f, want ILP > 2", par.IPC())
	}
}

// strideWalk builds a loop reading a huge array with one 64-byte-stride load
// per iteration plus filler work, so the window can only expose limited MLP.
// Returns the program and the static PCs of the induction and the load.
func strideWalk(iters int, filler int) (*isa.Program, int, int) {
	const (
		rI    = isa.Reg(1)
		rN    = isa.Reg(2)
		rAddr = isa.Reg(3)
		rV    = isa.Reg(4)
		rC    = isa.Reg(5)
		rAcc  = isa.Reg(6)
		rF    = isa.Reg(7)
	)
	words := iters*8 + 8
	mem := make([]int64, words)
	for i := range mem {
		mem[i] = int64(i)
	}
	b := isa.NewBuilder("stride")
	b.MovI(rI, 0)
	b.MovI(rN, int64(iters))
	b.Label("top")
	inducPC := b.AddI(rI, rI, 1)
	b.ShlI(rAddr, rI, 6) // i * 64 bytes: new cache block each iteration
	loadPC := b.Load(rV, rAddr, 0)
	b.Add(rAcc, rAcc, rV)
	for f := 0; f < filler; f++ {
		b.AddI(rF, rF, 1) // dependent filler chain occupies the window
	}
	b.CmpLT(rC, rI, rN)
	b.BrNZ(rC, "top")
	b.Halt()
	b.SetMem(mem)
	return b.MustBuild(), inducPC, loadPC
}

// stridePThread builds a hand-constructed p-thread for strideWalk: trigger on
// the induction, skip `ahead` iterations, prefetch the future load address.
func stridePThread(inducPC, loadPC, ahead int) *PThread {
	return &PThread{
		ID:        0,
		TriggerPC: int32(inducPC),
		Body: []isa.Inst{
			{Op: isa.AddI, Dst: 1, Src1: 1, Imm: int64(ahead)}, // unrolled induction
			{Op: isa.ShlI, Dst: 3, Src1: 1, Imm: 6},
			{Op: isa.Load, Dst: 4, Src1: 3},
		},
		Targets:  []int{2},
		TargetPC: int32(loadPC),
	}
}

func TestMissesDominateBaseline(t *testing.T) {
	p, _, _ := strideWalk(400, 24)
	res := runProg(t, p, nil)
	if res.DemandL2Misses < 350 {
		t.Errorf("demand L2 misses = %d, want ~400", res.DemandL2Misses)
	}
	memCycles := res.TimeBreakdown[CatMem]
	if float64(memCycles) < 0.2*float64(res.Cycles) {
		t.Errorf("mem stall cycles = %d of %d, want memory-bound", memCycles, res.Cycles)
	}
}

func TestPreExecutionCoversMissesAndSpeedsUp(t *testing.T) {
	p, inducPC, loadPC := strideWalk(400, 24)
	tr := trace.MustRun(p)
	base, err := Run(noPrefConfig(), tr, nil)
	if err != nil {
		t.Fatal(err)
	}
	pre, err := Run(noPrefConfig(), tr, []*PThread{stridePThread(inducPC, loadPC, 16)})
	if err != nil {
		t.Fatal(err)
	}
	if pre.Spawns == 0 {
		t.Fatal("no p-threads spawned")
	}
	covered := pre.FullCovered + pre.PartCovered
	if covered < base.DemandL2Misses/2 {
		t.Errorf("covered %d of %d baseline misses", covered, base.DemandL2Misses)
	}
	if pre.Cycles >= base.Cycles {
		t.Errorf("pre-execution did not speed up: %d vs %d cycles", pre.Cycles, base.Cycles)
	}
	if pre.PInstsExec == 0 {
		t.Error("no p-instructions executed")
	}
	if pre.Usefulness() <= 0 {
		t.Error("usefulness must be positive")
	}
	// Energy: pre-execution consumed p-thread energy.
	if pre.Energy.PthTotal() <= 0 {
		t.Error("p-thread energy must be positive")
	}
	if base.Energy.PthTotal() != 0 {
		t.Error("baseline must have zero p-thread energy")
	}
}

func TestTimeBreakdownSumsToCycles(t *testing.T) {
	p, _, _ := strideWalk(100, 10)
	res := runProg(t, p, nil)
	var sum int64
	for _, c := range res.TimeBreakdown {
		sum += c
	}
	if sum != res.Cycles {
		t.Errorf("breakdown sums to %d, want %d", sum, res.Cycles)
	}
}

func TestDeterminism(t *testing.T) {
	p, inducPC, loadPC := strideWalk(150, 12)
	tr := trace.MustRun(p)
	pt := []*PThread{stridePThread(inducPC, loadPC, 8)}
	r1, err1 := Run(noPrefConfig(), tr, pt)
	r2, err2 := Run(noPrefConfig(), tr, pt)
	if err1 != nil || err2 != nil {
		t.Fatal(err1, err2)
	}
	if r1.Cycles != r2.Cycles || r1.EnergyTotal() != r2.EnergyTotal() ||
		r1.Spawns != r2.Spawns || r1.FullCovered != r2.FullCovered {
		t.Error("simulation is not deterministic")
	}
}

func TestDroppedSpawnsWhenContextsExhausted(t *testing.T) {
	p, inducPC, loadPC := strideWalk(300, 2)
	tr := trace.MustRun(p)
	cfg := noPrefConfig()
	cfg.Contexts = 2 // one p-thread context only
	res, err := Run(cfg, tr, []*PThread{stridePThread(inducPC, loadPC, 16)})
	if err != nil {
		t.Fatal(err)
	}
	if res.DroppedSpawns == 0 {
		t.Error("a single context must drop some spawns on a hot trigger")
	}
}

func TestAbortedPThreadOnWildAddress(t *testing.T) {
	p, inducPC, loadPC := strideWalk(50, 4)
	tr := trace.MustRun(p)
	// Unrolling 10000 ahead computes addresses far past the array.
	res, err := Run(noPrefConfig(), tr, []*PThread{stridePThread(inducPC, loadPC, 100000)})
	if err != nil {
		t.Fatal(err)
	}
	var aborted int64
	for _, st := range res.PerPThread {
		aborted += st.Aborted
	}
	if aborted == 0 {
		t.Error("wild addresses must abort p-thread instances")
	}
	if res.FullCovered != 0 {
		t.Error("aborted p-threads must not cover misses")
	}
}

func TestUselessPThreadWastesEnergyWithoutCoverage(t *testing.T) {
	p, inducPC, _ := strideWalk(200, 8)
	tr := trace.MustRun(p)
	// A p-thread computing addresses in a never-accessed region: always
	// useless, still consumes energy.
	useless := &PThread{
		ID:        0,
		TriggerPC: int32(inducPC),
		Body: []isa.Inst{
			{Op: isa.AddI, Dst: 10, Src1: 1, Imm: 1},
			{Op: isa.ShlI, Dst: 11, Src1: 10, Imm: 3},
			{Op: isa.Load, Dst: 12, Src1: 11},
		},
		Targets: []int{2},
	}
	res, err := Run(noPrefConfig(), tr, []*PThread{useless})
	if err != nil {
		t.Fatal(err)
	}
	if res.Spawns == 0 {
		t.Fatal("no spawns")
	}
	if res.Usefulness() > 0.5 {
		t.Errorf("usefulness = %.2f for an off-target p-thread", res.Usefulness())
	}
	if res.Energy.PthTotal() <= 0 {
		t.Error("useless p-threads must still consume energy")
	}
}

func TestPerPThreadStatsConsistency(t *testing.T) {
	p, inducPC, loadPC := strideWalk(200, 8)
	tr := trace.MustRun(p)
	res, err := Run(noPrefConfig(), tr, []*PThread{stridePThread(inducPC, loadPC, 12)})
	if err != nil {
		t.Fatal(err)
	}
	var spawns, useful, insts int64
	for _, st := range res.PerPThread {
		spawns += st.Spawns
		useful += st.UsefulSpawns
		insts += st.InstsExecuted
	}
	if spawns != res.Spawns || useful != res.UsefulSpawns || insts != res.PInstsExec {
		t.Error("per-p-thread stats do not sum to aggregates")
	}
	if res.UsefulSpawns > res.Spawns {
		t.Error("useful spawns cannot exceed spawns")
	}
}

func TestBranchMispredictsCostCycles(t *testing.T) {
	// Data-dependent unpredictable branches (hash of loop counter) vs the
	// same loop with an always-taken branch path.
	build := func(chaotic bool) *isa.Program {
		b := isa.NewBuilder("br")
		const (
			rI, rN, rH, rC, rAcc = isa.Reg(1), isa.Reg(2), isa.Reg(3), isa.Reg(4), isa.Reg(5)
		)
		b.MovI(rI, 0)
		b.MovI(rN, 2000)
		b.Label("top")
		b.AddI(rI, rI, 1)
		if chaotic {
			b.MulI(rH, rI, 2654435761)
			b.ShrI(rH, rH, 13)
			b.AndI(rC, rH, 1)
		} else {
			b.MovI(rC, 1)
		}
		b.BrZ(rC, "skip")
		b.AddI(rAcc, rAcc, 1)
		b.Label("skip")
		b.CmpLT(rC, rI, rN)
		b.BrNZ(rC, "top")
		b.Halt()
		return b.MustBuild()
	}
	chaotic := runProg(t, build(true), nil)
	steady := runProg(t, build(false), nil)
	if chaotic.Bpred.Mispredicts <= steady.Bpred.Mispredicts {
		t.Errorf("chaotic branches mispredicted %d <= steady %d",
			chaotic.Bpred.Mispredicts, steady.Bpred.Mispredicts)
	}
	// Compare per-instruction cost since instruction counts differ.
	cpiC := float64(chaotic.Cycles) / float64(chaotic.Committed)
	cpiS := float64(steady.Cycles) / float64(steady.Committed)
	if cpiC <= cpiS {
		t.Errorf("mispredicts did not cost cycles: CPI %.3f vs %.3f", cpiC, cpiS)
	}
}

func TestResultDerivedMetrics(t *testing.T) {
	r := &Result{Cycles: 100, Committed: 150, Spawns: 10, UsefulSpawns: 5, PInstsExec: 30}
	if r.IPC() != 1.5 {
		t.Errorf("IPC = %v", r.IPC())
	}
	if r.Usefulness() != 0.5 {
		t.Errorf("usefulness = %v", r.Usefulness())
	}
	if r.PInstIncrease() != 0.2 {
		t.Errorf("p-inst increase = %v", r.PInstIncrease())
	}
	empty := &Result{}
	if empty.IPC() != 0 || empty.Usefulness() != 0 || empty.PInstIncrease() != 0 {
		t.Error("empty result metrics must be zero")
	}
}

func TestStallCategoryNames(t *testing.T) {
	want := map[StallCategory]string{
		CatMem: "mem", CatL2: "L2", CatExec: "exec", CatCommit: "commit", CatFetch: "fetch",
	}
	for c, name := range want {
		if c.String() != name {
			t.Errorf("category %d = %q, want %q", c, c.String(), name)
		}
	}
}

func TestInvalidPThreadRejectedBySimulator(t *testing.T) {
	p := aluChain(10)
	tr := trace.MustRun(p)
	bad := &PThread{ID: 0, TriggerPC: 0, Body: []isa.Inst{{Op: isa.Store, Src1: 1, Src2: 2}}, Targets: []int{0}}
	if _, err := Run(DefaultConfig(), tr, []*PThread{bad}); err == nil {
		t.Error("simulator accepted an invalid p-thread")
	}
}

// TestStoreForwarding pins which in-flight stores serve a load from the
// LSQ: a forwarded load never reaches the L1D, so the run's main-thread
// L1D accesses count the store's commit alone. Each program stores to one
// word and loads from a word.
//
// The younger-store case pins a known defect as it stands (see the FOUND
// note on store forwarding in CHANGES.md): a load whose address resolves
// late is served by a store dispatched after it, because forwarding checks
// every dispatched, uncommitted store to the word, not only older ones.
// Fixing it changes every golden Result, so it is its own change.
func TestStoreForwarding(t *testing.T) {
	const (
		rA, rD, rV = isa.Reg(1), isa.Reg(2), isa.Reg(3)
		word       = 4096 // byte address of the stored word
	)
	// Six dependent multiplies delay the older instruction's operand: the
	// store's data when it comes first (the store stays uncommitted while
	// the load issues), the load's address otherwise (the younger store
	// dispatches and issues while the load waits).
	build := func(storeFirst bool, loadAddr int64) *isa.Program {
		b := isa.NewBuilder("forward")
		b.MovI(rD, 42)
		b.MovI(rA, 1)
		late := rA
		if storeFirst {
			late = rD
		}
		for i := 0; i < 6; i++ {
			b.MulI(late, late, 1)
		}
		b.MulI(rA, rA, 0) // rA = 0: the load address is loadAddr
		if storeFirst {
			b.Store(isa.Zero, word, rD)
			b.Load(rV, rA, loadAddr)
		} else {
			b.Load(rV, rA, loadAddr)
			b.Store(isa.Zero, word, rD)
		}
		b.Halt()
		b.SetMem(make([]int64, 2048))
		return b.MustBuild()
	}
	cases := []struct {
		name       string
		storeFirst bool
		loadAddr   int64
		l1dMain    int64
		cycles     int64
	}{
		{"older store forwards", true, word, 1, 273},
		{"younger store forwards (defect)", false, word, 1, 277},
		{"younger store to another word", false, word + 8, 2, 519},
	}
	for _, tc := range cases {
		res := runProg(t, build(tc.storeFirst, tc.loadAddr), nil)
		if res.CacheCounts.L1DMain != tc.l1dMain || res.Cycles != tc.cycles {
			t.Errorf("%s: %d main L1D accesses in %d cycles, want %d in %d",
				tc.name, res.CacheCounts.L1DMain, res.Cycles, tc.l1dMain, tc.cycles)
		}
	}
}
