package cpu

import (
	"encoding/json"
	"reflect"
	"sort"
	"testing"

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
