package cpu

import (
	"encoding/json"
	"reflect"
	"sort"
	"testing"

	"repro/internal/isa"
	"repro/internal/trace"
)

// TestResetReuseMatchesFreshSimulator pins the zero-allocation reuse
// contract: one simulator Reset across a matrix of (config, workload,
// engine) triples — including shrinking/growing traces, alternating event
// and reference runs, and config changes that resize every pool — must
// produce Results deeply equal to freshly constructed simulators, in every
// order.
func TestResetReuseMatchesFreshSimulator(t *testing.T) {
	workloads := engineWorkloads(t)
	configs := engineConfigs()
	// Deterministic iteration order for reproducible failures (map range
	// order is randomized, so sort the keys).
	cfgNames := make([]string, 0, len(configs))
	for name := range configs {
		cfgNames = append(cfgNames, name)
	}
	sort.Strings(cfgNames)
	wlNames := make([]string, 0, len(workloads))
	for name := range workloads {
		wlNames = append(wlNames, name)
	}
	sort.Strings(wlNames)
	type job struct {
		cfgName, wlName string
		reference       bool
	}
	var jobs []job
	for _, cfgName := range cfgNames {
		for _, wlName := range wlNames {
			for _, reference := range []bool{false, true} {
				jobs = append(jobs, job{cfgName, wlName, reference})
			}
		}
	}

	reused := &Simulator{}
	for _, j := range jobs {
		cfg := configs[j.cfgName]
		wl := workloads[j.wlName]

		fs, err := NewSimulator(cfg, wl.tr, wl.pts)
		if err != nil {
			t.Fatalf("%s/%s/reference=%v new: %v", j.cfgName, j.wlName, j.reference, err)
		}
		fresh, err := runEngine(fs, j.reference)
		if err != nil {
			t.Fatalf("%s/%s/reference=%v fresh: %v", j.cfgName, j.wlName, j.reference, err)
		}
		if err := reused.Reset(cfg, wl.tr, wl.pts); err != nil {
			t.Fatalf("%s/%s/reference=%v reset: %v", j.cfgName, j.wlName, j.reference, err)
		}
		got, err := runEngine(reused, j.reference)
		if err != nil {
			t.Fatalf("%s/%s/reference=%v reused: %v", j.cfgName, j.wlName, j.reference, err)
		}
		if !reflect.DeepEqual(got, fresh) {
			t.Errorf("%s/%s/reference=%v: reused simulator diverged from fresh construction",
				j.cfgName, j.wlName, j.reference)
		}
	}
}

// TestResetSteadyStateAllocationFree pins the tentpole's 0 allocs/op claim
// at unit level: after one warm-up run, Reset + Run on the same workload
// must not allocate.
func TestResetSteadyStateAllocationFree(t *testing.T) {
	p, inducPC, loadPC := strideWalk(200, 8)
	tr := trace.MustRun(p)
	pts := []*PThread{stridePThread(inducPC, loadPC, 12)}
	cfg := noPrefConfig()
	s, err := NewSimulator(cfg, tr, pts)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Run(); err != nil {
		t.Fatal(err) // warm-up grows every pool
	}
	allocs := testing.AllocsPerRun(5, func() {
		if err := s.Reset(cfg, tr, pts); err != nil {
			t.Fatal(err)
		}
		if _, err := s.Run(); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("steady-state Reset+Run allocated %.1f times per run, want 0", allocs)
	}
}

// TestResultCloneOutlivesReset verifies the borrow contract: a Result
// cloned before the owning simulator's next Reset is unaffected by it.
func TestResultCloneOutlivesReset(t *testing.T) {
	p, inducPC, loadPC := strideWalk(120, 6)
	tr := trace.MustRun(p)
	pts := []*PThread{stridePThread(inducPC, loadPC, 8)}
	cfg := noPrefConfig()
	s, err := NewSimulator(cfg, tr, pts)
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	clone := res.Clone()
	before, err := json.Marshal(clone)
	if err != nil {
		t.Fatal(err)
	}
	// Reset and re-run a different workload to scribble over the borrowed
	// Result's memory.
	other := trace.MustRun(aluChain(300))
	if err := s.Reset(cfg, other, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Run(); err != nil {
		t.Fatal(err)
	}
	after, err := json.Marshal(clone)
	if err != nil {
		t.Fatal(err)
	}
	if string(before) != string(after) {
		t.Error("cloned Result changed after the owning simulator was reused")
	}
}

// pointerRewrite builds a loop whose stores rewrite the pointer table its
// problem load reads through: iteration i loads p = T[i], loads x = *p and
// stores x into T[i+ahead]. Table entries and data words both hold byte
// addresses of 64-byte blocks, so every address a p-thread computes from
// the table depends on which of those stores it sees.
func pointerRewrite(iters int, ahead int64) (*isa.Program, int, int) {
	const (
		rI = isa.Reg(1)
		rN = isa.Reg(2)
		rA = isa.Reg(3)
		rP = isa.Reg(4)
		rX = isa.Reg(5)
		rC = isa.Reg(6)
	)
	const blocks = 1024
	table := (iters + 64 + 7) &^ 7 // table words, block-aligned
	block := func(b int) int64 { return int64(table+8*(b%blocks)) * 8 }
	mem := make([]int64, table+8*blocks)
	for i := 0; i < table; i++ {
		mem[i] = block(5 * i)
	}
	for b := 0; b < blocks; b++ {
		mem[table+8*b] = block(11*b + 7)
	}
	b := isa.NewBuilder("pointer-rewrite")
	b.MovI(rI, 0)
	b.MovI(rN, int64(iters))
	b.Label("top")
	inducPC := b.AddI(rI, rI, 1)
	b.ShlI(rA, rI, 3)
	b.Load(rP, rA, 0)
	loadPC := b.Load(rX, rP, 0)
	b.Store(rA, 8*ahead, rX)
	b.CmpLT(rC, rI, rN)
	b.BrNZ(rC, "top")
	b.Halt()
	b.SetMem(mem)
	return b.MustBuild(), inducPC, loadPC
}

// TestResetRestoresStoredMemory pins the memory image p-thread bodies read
// across simulator reuse. Two p-threads walk pointerRewrite's table: one
// behind the main thread's stores (it must see them) and one ahead of
// them (it must see the initial image, not a previous run's stores). One
// simulator runs them repeatedly, between a baseline run of the same
// program and a run of another program, and each run must deeply equal a
// fresh simulator's.
func TestResetRestoresStoredMemory(t *testing.T) {
	const ahead = 16
	prog, inducPC, loadPC := pointerRewrite(300, ahead)
	tr := trace.MustRun(prog)
	chase := func(id int32, skip int64) *PThread {
		return &PThread{ID: id, TriggerPC: int32(inducPC), TargetPC: int32(loadPC), Targets: []int{3},
			Body: []isa.Inst{
				{Op: isa.AddI, Dst: 1, Src1: 1, Imm: skip},
				{Op: isa.ShlI, Dst: 3, Src1: 1, Imm: 3},
				{Op: isa.Load, Dst: 4, Src1: 3},
				{Op: isa.Load, Dst: 5, Src1: 4},
			}}
	}
	pts := []*PThread{chase(0, ahead/2), chase(1, 2*ahead)}
	other, oInduc, oLoad := strideWalk(200, 4)
	otherTr := trace.MustRun(other)
	runs := []struct {
		name string
		tr   *trace.Trace
		pts  []*PThread
	}{
		{"p-threads", tr, pts},
		{"p-threads again", tr, pts},
		{"baseline", tr, nil},
		{"p-threads after baseline", tr, pts},
		{"other program", otherTr, []*PThread{stridePThread(oInduc, oLoad, 8)}},
		{"p-threads after other program", tr, pts},
	}
	cfg := noPrefConfig()
	reused := &Simulator{}
	for _, reference := range []bool{false, true} {
		for _, r := range runs {
			fs, err := NewSimulator(cfg, r.tr, r.pts)
			if err != nil {
				t.Fatal(err)
			}
			fresh, err := runEngine(fs, reference)
			if err != nil {
				t.Fatal(err)
			}
			if err := reused.Reset(cfg, r.tr, r.pts); err != nil {
				t.Fatal(err)
			}
			got, err := runEngine(reused, reference)
			if err != nil {
				t.Fatal(err)
			}
			if r.pts != nil && got.Spawns == 0 {
				t.Fatalf("%s: no p-thread spawned", r.name)
			}
			if !reflect.DeepEqual(got, fresh) {
				t.Errorf("%s (reference=%v): reused simulator diverged from fresh construction", r.name, reference)
			}
		}
	}
}
