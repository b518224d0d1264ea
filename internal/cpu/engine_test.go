package cpu

import (
	"context"
	"reflect"
	"strings"
	"testing"

	"repro/internal/isa"
	"repro/internal/trace"
)

// engineConfigs returns configurations chosen to stress the paths where the
// event-driven scheduler could diverge from the reference scan: tiny windows
// (budget truncation of the RS-free walk), few MSHRs (rejected loads that
// must replay cycle-by-cycle), starved ports, and minimal contexts.
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

	return map[string]Config{
		"default":       DefaultConfig(),
		"nopref":        noPrefConfig(),
		"tiny-window":   tiny,
		"mshr-pressure": mshr,
		"two-contexts":  ctxs,
	}
}

// engineWorkloads returns trace/p-thread pairs covering serial chains,
// wide ILP, memory-bound striding with useful, useless and aborting
// p-threads, and mispredict-heavy control flow.
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
		"chain":        {tr: trace.MustRun(aluChain(400))},
		"parallel":     {tr: trace.MustRun(aluParallel(400))},
		"stride-base":  {tr: trace.MustRun(stride)},
		"stride-pth":   {tr: trace.MustRun(stride), pts: []*PThread{stridePThread(inducPC, loadPC, 16)}},
		"stride-abort": {tr: trace.MustRun(wild), pts: []*PThread{stridePThread(wInduc, wLoad, 100000)}},
	}
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
	cases := map[string]func(*Config){
		"FetchWidth":          func(c *Config) { c.FetchWidth = 0 },
		"DispatchWidth":       func(c *Config) { c.DispatchWidth = 0 },
		"IssueWidth":          func(c *Config) { c.IssueWidth = 0 },
		"CommitWidth":         func(c *Config) { c.CommitWidth = -1 },
		"ROBSize":             func(c *Config) { c.ROBSize = 0 },
		"RSSize":              func(c *Config) { c.RSSize = 0 },
		"PhysRegs":            func(c *Config) { c.PhysRegs = 0 },
		"LoadPorts":           func(c *Config) { c.LoadPorts = 0 },
		"StorePorts":          func(c *Config) { c.StorePorts = 0 },
		"FetchQCap":           func(c *Config) { c.FetchQCap = 0 },
		"Contexts":            func(c *Config) { c.Contexts = 0 },
		"FrontEndDepth":       func(c *Config) { c.FrontEndDepth = -1 },
		"RedirectPen":         func(c *Config) { c.RedirectPen = -1 },
		"PthFrontEnd":         func(c *Config) { c.PthFrontEnd = -1 },
		"Hier.L1I.HitLatency": func(c *Config) { c.Hier.L1I.HitLatency = -1 },
		"Hier.L1D.HitLatency": func(c *Config) { c.Hier.L1D.HitLatency = -1 },
		"Hier.L2.HitLatency":  func(c *Config) { c.Hier.L2.HitLatency = -1 },
		"Hier.TLBMissPen":     func(c *Config) { c.Hier.TLBMissPen = -1 },
		"Hier.MemLatency":     func(c *Config) { c.Hier.MemLatency = -1 },
	}
	tr := trace.MustRun(aluChain(50))
	for field, mutate := range cases {
		cfg := DefaultConfig()
		mutate(&cfg)
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
