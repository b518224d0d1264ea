package preexec

import (
	"context"
	"strings"
	"testing"
)

// TestGenLabRegisterSpecs drives generated workloads through the public
// façade end to end: register specs and run a zero-axis sweep over the
// returned names.
func TestGenLabRegisterSpecs(t *testing.T) {
	ctx := context.Background()
	lab := New()
	names, err := lab.RegisterSpecs(
		WorkloadSpec{Family: FamilyPointerChase, Seed: 301, WorkingSet: 1 << 13, Depth: 300},
		WorkloadSpec{Family: FamilyHashProbe, Seed: 302, WorkingSet: 1 << 13, Depth: 400},
	)
	if err != nil {
		t.Fatal(err)
	}
	if len(names) != 2 {
		t.Fatalf("names = %v", names)
	}
	// Registered names are listed and buildable like built-ins.
	listed := map[string]bool{}
	for _, n := range Benchmarks() {
		listed[n] = true
	}
	for _, n := range names {
		if !listed[n] {
			t.Errorf("registered workload %s missing from Benchmarks()", n)
		}
		if _, err := lab.Benchmark(n); err != nil {
			t.Errorf("Benchmark(%s): %v", n, err)
		}
	}
	// But never leak into the paper's pinned benchmark list.
	for _, n := range PaperBenchmarks() {
		if strings.HasPrefix(n, "gen/") {
			t.Errorf("generated workload %s leaked into PaperBenchmarks", n)
		}
	}

	rep, err := lab.Sweep(ctx, Grid{Benchmarks: names, Targets: []Target{TargetP}})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Points) != 2 {
		t.Fatalf("sweep covered %d points, want 2", len(rep.Points))
	}
	for i, pt := range rep.Points {
		if pt.Bench != names[i] || len(pt.Runs) != 1 {
			t.Errorf("point %d: %s with %d runs, want %s with 1", i, pt.Bench, len(pt.Runs), names[i])
		}
	}
}

// TestGenLabSweepWorkloadAxis crosses a generator-knob axis with a config
// axis through the public Lab and verifies the per-stage reuse probe: the
// idle axis must not rebuild any functional stage of either workload.
func TestGenLabSweepWorkloadAxis(t *testing.T) {
	ctx := context.Background()
	lab := New()
	grid := Grid{
		Workloads: GenAxis(WorkloadSpec{Family: FamilyBlockedStream, Seed: 305, WorkingSet: 1 << 13},
			GenPoint{Label: "d=4", Mutate: func(s *WorkloadSpec) { s.Depth = 4 }},
			GenPoint{Label: "d=8", Mutate: func(s *WorkloadSpec) { s.Depth = 8 }},
		),
		Axes:    []Axis{GridAxis(SweepIdleFactor)},
		Targets: []Target{TargetP},
	}
	rep, err := lab.Sweep(ctx, grid)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Points) != 6 {
		t.Fatalf("points = %d, want 6", len(rep.Points))
	}
	if n := lab.StagePrepares(StageTrace); n != 2 {
		t.Errorf("idle sweep traced %d times, want once per workload (2)", n)
	}
	if n := lab.StagePrepares(StageSlices); n != 2 {
		t.Errorf("idle sweep sliced %d times, want once per workload (2)", n)
	}
	if got := rep.Render(); !strings.Contains(got, "d=4") || !strings.Contains(got, "d=8") {
		t.Errorf("rendered sweep missing workload labels:\n%s", got)
	}
}

// TestGenParseWorkloadSpec covers the public spec-grammar entry point.
func TestGenParseWorkloadSpec(t *testing.T) {
	s, err := ParseWorkloadSpec("tree-walk:12:depth=100")
	if err != nil {
		t.Fatal(err)
	}
	if s.Family != FamilyTreeWalk || s.Seed != 12 || s.Depth != 100 {
		t.Errorf("parsed %+v", s)
	}
	if _, err := ParseWorkloadSpec("tree-walk"); err == nil {
		t.Error("seedless spec accepted")
	}
	if len(WorkloadFamilies()) != 5 {
		t.Errorf("families = %v", WorkloadFamilies())
	}
}
