package preexec

import (
	"context"
	"strings"
	"testing"
)

func TestFacadeStudyFlow(t *testing.T) {
	ctx := context.Background()
	lab := New()
	study, err := lab.AnalyzeBenchmark(ctx, "gap")
	if err != nil {
		t.Fatal(err)
	}
	if study.Baseline().Cycles <= 0 {
		t.Fatal("no baseline")
	}
	sel, err := study.Select(ctx, TargetP)
	if err != nil {
		t.Fatal(err)
	}
	run, err := study.Measure(ctx, sel)
	if err != nil {
		t.Fatal(err)
	}
	if run.SpeedupPct <= 0 {
		t.Errorf("P-p-threads on gap must speed up, got %+.1f%%", run.SpeedupPct)
	}
	run2, err := study.Run(ctx, TargetP)
	if err != nil {
		t.Fatal(err)
	}
	if run2.SpeedupPct != run.SpeedupPct {
		t.Error("Run must equal Select+Measure")
	}
	// Both paths time their simulation, like every engine-driven run.
	if run.SimCyclesPerSec() <= 0 || run2.SimCyclesPerSec() <= 0 {
		t.Errorf("study runs report no simulator throughput: Measure %.0f, Run %.0f cycles/s",
			run.SimCyclesPerSec(), run2.SimCyclesPerSec())
	}
}

func TestFacadeCustomProgram(t *testing.T) {
	ctx := context.Background()
	b := NewBuilder("tiny")
	const rI, rN, rA, rV, rC = Reg(1), Reg(2), Reg(3), Reg(4), Reg(5)
	b.MovI(rI, 0)
	b.MovI(rN, 6000)
	b.Label("top")
	b.MulI(rA, rI, 40503)
	b.AndI(rA, rA, (1<<18)-1)
	b.ShlI(rA, rA, 3)
	b.Load(rV, rA, 0)
	b.AddI(rI, rI, 1)
	b.CmpLT(rC, rI, rN)
	b.BrNZ(rC, "top")
	b.Halt()
	b.SetMem(make([]int64, 1<<18))
	prog := b.MustBuild()

	study, err := New().Analyze(ctx, prog)
	if err != nil {
		t.Fatal(err)
	}
	run, err := study.Run(ctx, TargetL)
	if err != nil {
		t.Fatal(err)
	}
	if len(run.Sel.PThreads) == 0 {
		t.Error("no p-threads selected for a random-gather loop")
	}
	if run.SpeedupPct <= 0 {
		t.Errorf("expected speedup, got %+.1f%%", run.SpeedupPct)
	}
}

func TestFacadeBenchmarkList(t *testing.T) {
	lab := New()
	// Benchmarks() is the full name-sorted registry (built-ins plus any
	// registered generated workloads); the paper's nine must all be present,
	// and PaperBenchmarks() must stay exactly the pinned nine.
	listed := map[string]bool{}
	for _, n := range Benchmarks() {
		listed[n] = true
	}
	paper := PaperBenchmarks()
	if len(paper) != 9 {
		t.Fatalf("paper benchmarks = %v", paper)
	}
	for _, n := range paper {
		if !listed[n] {
			t.Errorf("paper benchmark %s missing from Benchmarks()", n)
		}
	}
	p, err := lab.Benchmark("mcf")
	if err != nil {
		t.Fatal(err)
	}
	if p.Name != "mcf.train" {
		t.Errorf("benchmark name = %q", p.Name)
	}
	if _, err := lab.Benchmark("nonesuch"); err == nil {
		t.Error("unknown benchmark must return an error")
	}
}

func TestFacadeAnalyzeInvalidProgram(t *testing.T) {
	if _, err := New().Analyze(context.Background(), &Program{Name: "empty"}); err == nil {
		t.Error("invalid program accepted")
	}
}

func TestParseTarget(t *testing.T) {
	for _, want := range []Target{TargetO, TargetL, TargetE, TargetP, TargetP2} {
		got, err := ParseTarget(want.String())
		if err != nil || got != want {
			t.Errorf("ParseTarget(%q) = %v, %v", want.String(), got, err)
		}
	}
	if _, err := ParseTarget("Q"); err == nil {
		t.Error("unknown target accepted")
	}
}

// TestLabRejectsUnrunnableConfig: a processor the simulator cannot run is
// reported once at construction and by every entry point, instead of a
// panic (zero contexts) or a million-cycle run into the deadlock guard
// (zero window or width).
func TestLabRejectsUnrunnableConfig(t *testing.T) {
	for name, mutate := range map[string]func(*Config){
		"Contexts":   func(c *Config) { c.CPU.Contexts = 0 },
		"ROBSize":    func(c *Config) { c.CPU.ROBSize = 0 },
		"FetchQCap":  func(c *Config) { c.CPU.FetchQCap = 0 },
		"IssueWidth": func(c *Config) { c.CPU.IssueWidth = 0 },
	} {
		cfg := DefaultConfig()
		mutate(&cfg)
		lab := New(WithConfig(cfg))
		if err := lab.ConfigErr(); err == nil || !strings.Contains(err.Error(), name) {
			t.Errorf("%s: ConfigErr = %v, want an error naming the field", name, err)
		}
		if _, err := lab.AnalyzeBenchmark(context.Background(), "gap"); err == nil {
			t.Errorf("%s: AnalyzeBenchmark accepted the config", name)
		}
	}
}
