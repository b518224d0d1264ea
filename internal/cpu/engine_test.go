package cpu

import (
	"context"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"repro/internal/isa"
	"repro/internal/trace"
)

// engineConfigs returns configurations chosen to stress the paths where the
// event-driven scheduler could diverge from the reference scan: tiny windows
// (budget truncation of the RS-free walk), few MSHRs (rejected loads that
// must replay cycle-by-cycle), starved ports, minimal contexts, more
// contexts than one 64-bit context-set word holds, and the shortest
// latencies Validate accepts (same-cycle wakeups at the calendar's edge).
func engineConfigs() map[string]Config {
	tiny := noPrefConfig()
	tiny.ROBSize = 16
	tiny.RSSize = 8
	tiny.PhysRegs = 24
	tiny.IssueWidth = 2
	tiny.DispatchWidth = 2
	tiny.CommitWidth = 2
	tiny.FetchWidth = 2
	tiny.FetchQCap = 6

	mshr := noPrefConfig()
	mshr.Hier.MSHRs = 1
	mshr.LoadPorts = 1

	ctxs := noPrefConfig()
	ctxs.Contexts = 2

	many := noPrefConfig()
	many.Contexts = 70

	minLat := DefaultConfig()
	minLat.FrontEndDepth = 0
	minLat.RedirectPen = 0
	minLat.PthFrontEnd = 0
	minLat.Hier.L1I.HitLatency = 0
	minLat.Hier.L1D.HitLatency = 1
	minLat.Hier.L2.HitLatency = 0
	minLat.Hier.TLBMissPen = 0
	minLat.Hier.MemLatency = 0

	return map[string]Config{
		"default":       DefaultConfig(),
		"nopref":        noPrefConfig(),
		"tiny-window":   tiny,
		"mshr-pressure": mshr,
		"two-contexts":  ctxs,
		"many-contexts": many,
		"min-latency":   minLat,
	}
}

// engineWorkloads returns trace/p-thread pairs covering serial chains,
// wide ILP, memory-bound striding with useful, useless and aborting
// p-threads, more concurrent p-threads than one context-set word holds,
// and mispredict-heavy control flow.
func engineWorkloads(t *testing.T) map[string]struct {
	tr  *trace.Trace
	pts []*PThread
} {
	t.Helper()
	stride, inducPC, loadPC := strideWalk(300, 12)
	wild, wInduc, wLoad := strideWalk(60, 4)
	out := map[string]struct {
		tr  *trace.Trace
		pts []*PThread
	}{
		"chain":       {tr: trace.MustRun(aluChain(400))},
		"parallel":    {tr: trace.MustRun(aluParallel(400))},
		"stride-base": {tr: trace.MustRun(stride)},
		"stride-pth":  {tr: trace.MustRun(stride), pts: []*PThread{stridePThread(inducPC, loadPC, 16)}},
		"stride-abort": {tr: trace.MustRun(wild), pts: []*PThread{
			stridePThread(wInduc, wLoad, 100000),
			// Wild at its first instruction: the context releases with
			// nothing issued.
			{ID: 1, TriggerPC: int32(wInduc), Targets: []int{0}, TargetPC: int32(wLoad),
				Body: []isa.Inst{{Op: isa.Load, Dst: 4, Src1: 3, Imm: 1 << 40}}},
		}},
	}
	// Context pressure: eight p-threads per trigger, each holding its
	// context until a non-target load that misses to memory returns, keep
	// more than 64 contexts live under many-contexts.
	storm, sInduc, sLoad := strideWalk(150, 2)
	var stormPts []*PThread
	for k := 0; k < 8; k++ {
		pt := stridePThread(sInduc, sLoad, 4+2*k)
		pt.ID = int32(k)
		pt.Body = []isa.Inst{
			pt.Body[0], pt.Body[1],
			{Op: isa.Load, Dst: 5, Src1: 3, Imm: 8}, // misses; frees last
			pt.Body[2],
		}
		pt.Targets = []int{3}
		stormPts = append(stormPts, pt)
	}
	out["spawn-storm"] = struct {
		tr  *trace.Trace
		pts []*PThread
	}{tr: trace.MustRun(storm), pts: stormPts}
	// Mispredict-heavy: data-dependent branches.
	b := isa.NewBuilder("chaos")
	b.MovI(1, 0)
	b.MovI(2, 1500)
	b.Label("top")
	b.AddI(1, 1, 1)
	b.MulI(3, 1, 2654435761)
	b.ShrI(3, 3, 13)
	b.AndI(4, 3, 1)
	b.BrZ(4, "skip")
	b.AddI(5, 5, 1)
	b.Label("skip")
	b.CmpLT(4, 1, 2)
	b.BrNZ(4, "top")
	b.Halt()
	out["chaos"] = struct {
		tr  *trace.Trace
		pts []*PThread
	}{tr: trace.MustRun(b.MustBuild())}
	return out
}

// runEngine runs a freshly Reset simulator on the event engine, or on the
// reference scan when reference is set.
func runEngine(s *Simulator, reference bool) (*Result, error) {
	if reference {
		return s.RunReference(context.Background())
	}
	return s.Run()
}

// runReference is Run on the reference scan engine.
func runReference(cfg Config, tr *trace.Trace, pts []*PThread) (*Result, error) {
	s, err := NewSimulator(cfg, tr, pts)
	if err != nil {
		return nil, err
	}
	return runEngine(s, true)
}

// TestEnginesAgreeStress cross-checks the two engines over the stress
// matrix: every (config, workload) pair must produce deeply equal Results.
func TestEnginesAgreeStress(t *testing.T) {
	workloads := engineWorkloads(t)
	for cfgName, cfg := range engineConfigs() {
		for wlName, wl := range workloads {
			ev, err1 := Run(cfg, wl.tr, wl.pts)
			sc, err2 := runReference(cfg, wl.tr, wl.pts)
			if err1 != nil || err2 != nil {
				t.Fatalf("%s/%s: event err=%v scan err=%v", cfgName, wlName, err1, err2)
			}
			if !reflect.DeepEqual(ev, sc) {
				t.Errorf("%s/%s: engines disagree\nevent: %+v\nscan:  %+v", cfgName, wlName, ev, sc)
			}
		}
	}
}

// TestConfigValidate checks every structural limit: each bad field is one
// error naming it, returned by both Validate and Reset, never a panic or a
// run into the deadlock guard.
func TestConfigValidate(t *testing.T) {
	if err := DefaultConfig().Validate(); err != nil {
		t.Fatalf("default config rejected: %v", err)
	}
	cases := []struct {
		field  string
		mutate func(*Config)
	}{
		{"FetchWidth", func(c *Config) { c.FetchWidth = 0 }},
		{"DispatchWidth", func(c *Config) { c.DispatchWidth = 0 }},
		{"IssueWidth", func(c *Config) { c.IssueWidth = 0 }},
		{"CommitWidth", func(c *Config) { c.CommitWidth = -1 }},
		{"ROBSize", func(c *Config) { c.ROBSize = 0 }},
		{"RSSize", func(c *Config) { c.RSSize = 0 }},
		{"PhysRegs", func(c *Config) { c.PhysRegs = 0 }},
		{"LoadPorts", func(c *Config) { c.LoadPorts = 0 }},
		{"StorePorts", func(c *Config) { c.StorePorts = 0 }},
		{"FetchQCap", func(c *Config) { c.FetchQCap = 0 }},
		{"Contexts", func(c *Config) { c.Contexts = 0 }},
		{"FrontEndDepth", func(c *Config) { c.FrontEndDepth = -1 }},
		{"RedirectPen", func(c *Config) { c.RedirectPen = -1 }},
		{"PthFrontEnd", func(c *Config) { c.PthFrontEnd = -1 }},
		{"Hier.L1I.HitLatency", func(c *Config) { c.Hier.L1I.HitLatency = -1 }},
		{"Hier.L1D.HitLatency", func(c *Config) { c.Hier.L1D.HitLatency = -1 }},
		// A zero L1D latency completes loads in their issue cycle, after
		// the event engine delivered that cycle's completions.
		{"Hier.L1D.HitLatency", func(c *Config) { c.Hier.L1D.HitLatency = 0 }},
		{"Hier.L2.HitLatency", func(c *Config) { c.Hier.L2.HitLatency = -1 }},
		{"Hier.TLBMissPen", func(c *Config) { c.Hier.TLBMissPen = -1 }},
		{"Hier.MemLatency", func(c *Config) { c.Hier.MemLatency = -1 }},
	}
	tr := trace.MustRun(aluChain(50))
	for _, tc := range cases {
		field := tc.field
		cfg := DefaultConfig()
		tc.mutate(&cfg)
		err := cfg.Validate()
		if err == nil {
			t.Errorf("%s: bad value accepted", field)
			continue
		}
		if !strings.Contains(err.Error(), field) {
			t.Errorf("%s: error %q does not name the field", field, err)
		}
		func() {
			defer func() {
				if p := recover(); p != nil {
					t.Errorf("%s: Reset panicked: %v", field, p)
				}
			}()
			if rerr := new(Simulator).Reset(cfg, tr, nil); rerr == nil || rerr.Error() != err.Error() {
				t.Errorf("%s: Reset error %v, want %v", field, rerr, err)
			}
		}()
	}
	// The smallest legal machine still runs: one context means no
	// p-thread contexts, not a panic.
	cfg := DefaultConfig()
	cfg.Contexts = 1
	s, err := NewSimulator(cfg, tr, nil)
	if err == nil {
		_, err = s.Run()
	}
	if err != nil {
		t.Errorf("one-context machine: %v", err)
	}
}

// TestStalledPThreadsAreNotVisited hand-builds the two ways a p-thread's
// in-order head waits for an operand. Both p-threads spawn at one trigger:
// pt 0's head reads the result of an in-flight main-thread load that misses
// to memory (depMain); pt 1's third instruction reads the result of its own
// first instruction, a load that also misses (depBody). The engines must
// agree on the Result, and the event engine must leave each stalled context
// alone until its producer completes: its issue passes visit contexts a
// bounded number of times per body instruction, while the reference visits
// every live context every cycle of the memory wait.
func TestStalledPThreadsAreNotVisited(t *testing.T) {
	const (
		rBase = isa.Reg(1)
		rMain = isa.Reg(2) // written by the long main-thread load
	)
	mem := make([]int64, 4096)
	mem[8192>>3] = 16384      // main load value: pt 0's prefetch address
	mem[(8192+64)>>3] = 24576 // pt 1's first load value: its prefetch address
	b := isa.NewBuilder("pctx-wait")
	b.MovI(rBase, 8192)
	b.Load(rMain, rBase, 0)
	trigger := b.AddI(3, 3, 1)
	for r := isa.Reg(10); r < 26; r++ {
		b.AddI(r, r, 1) // independent filler behind the stalled load
	}
	b.Halt()
	b.SetMem(mem)
	tr := trace.MustRun(b.MustBuild())
	pts := []*PThread{
		{ID: 0, TriggerPC: int32(trigger), Targets: []int{1}, Body: []isa.Inst{
			{Op: isa.AddI, Dst: 5, Src1: rMain}, // depMain: waits on the main load
			{Op: isa.Load, Dst: 6, Src1: 5},
		}},
		{ID: 1, TriggerPC: int32(trigger), Targets: []int{2}, Body: []isa.Inst{
			{Op: isa.Load, Dst: 7, Src1: rBase, Imm: 64},
			{Op: isa.AddI, Dst: 8, Src1: 7}, // depBody: waits on body load 0
			{Op: isa.Load, Dst: 9, Src1: 8},
		}},
	}
	cfg := noPrefConfig()
	stats := func(reference bool) (*Result, SimStats) {
		s, err := NewSimulator(cfg, tr, pts)
		if err != nil {
			t.Fatal(err)
		}
		res, err := runEngine(s, reference)
		if err != nil {
			t.Fatal(err)
		}
		return res.Clone(), s.Stats()
	}
	evRes, ev := stats(false)
	refRes, ref := stats(true)
	if !reflect.DeepEqual(evRes, refRes) {
		t.Fatalf("engines disagree\nevent: %+v\nscan:  %+v", evRes, refRes)
	}
	if evRes.Spawns != 2 || evRes.PInstsExec != 5 || evRes.PerPThread[0].Aborted+evRes.PerPThread[1].Aborted != 0 {
		t.Fatalf("want both p-threads spawned and run to completion, got %+v", evRes)
	}
	if ref.CtxVisits < 2*int64(cfg.Hier.MemLatency) {
		t.Fatalf("reference visited contexts %d times; the waits were shorter than the memory latency", ref.CtxVisits)
	}
	// One visit when a head arrives or its producer completes, one to free
	// each completion: at most two per body instruction, however long the
	// wait.
	if max := int64(2 * 5); ev.CtxVisits > max {
		t.Errorf("event engine visited contexts %d times (reference %d), want at most %d: a stalled context was visited while it waited",
			ev.CtxVisits, ref.CtxVisits, max)
	}
	if ev.CtxVisits > ev.CtxWakeups {
		t.Errorf("event engine made %d visits for %d wakeups with no port or MSHR pressure", ev.CtxVisits, ev.CtxWakeups)
	}
}

// TestSimStatsAccountForEveryCycle checks the work counters against the
// Result on the stress matrix: every simulated cycle is either visited one
// by one or skipped in bulk, the reference engine skips none, and both count
// the spawns the Result reports.
func TestSimStatsAccountForEveryCycle(t *testing.T) {
	workloads := engineWorkloads(t)
	for cfgName, cfg := range engineConfigs() {
		for wlName, wl := range workloads {
			for _, reference := range []bool{false, true} {
				s, err := NewSimulator(cfg, wl.tr, wl.pts)
				if err != nil {
					t.Fatal(err)
				}
				res, err := runEngine(s, reference)
				if err != nil {
					t.Fatal(err)
				}
				st := s.Stats()
				name := fmt.Sprintf("%s/%s/reference=%v", cfgName, wlName, reference)
				if st.VisitedCycles+st.SkippedCycles != res.Cycles {
					t.Errorf("%s: %d visited + %d skipped cycles, Result has %d", name, st.VisitedCycles, st.SkippedCycles, res.Cycles)
				}
				if reference && st.SkippedCycles != 0 {
					t.Errorf("%s: reference skipped %d cycles", name, st.SkippedCycles)
				}
				if st.Spawns != res.Spawns {
					t.Errorf("%s: stats count %d spawns, Result %d", name, st.Spawns, res.Spawns)
				}
			}
		}
	}
}
