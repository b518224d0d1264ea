package experiments

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"reflect"
	"strings"
	"testing"

	"repro/internal/program"
	"repro/internal/program/gen"
	"repro/internal/pthsel"
)

// genGrid returns a 2-workload × 3-idle-point grid over a generator knob:
// the workload axis sweeps chase depth, the config axis sweeps a field no
// functional stage reads.
func genGrid() Grid {
	base := gen.Spec{Family: gen.PointerChase, Seed: 11, WorkingSet: 1 << 13}
	return Grid{
		Workloads: GenAxis(base,
			GenPoint{Label: "d=300", Mutate: func(s *gen.Spec) { s.Depth = 300 }},
			GenPoint{Label: "d=600", Mutate: func(s *gen.Spec) { s.Depth = 600 }},
		),
		Axes:    []Axis{GridAxis(SweepIdleFactor)},
		Targets: []pthsel.Target{pthsel.TargetP},
	}
}

// TestGenSweepWorkloadAxis: a Grid's workload axis must evaluate generated
// workloads like named benchmarks — correct point count and ordering, rows
// labeled by the workload axis, runs populated.
func TestGenSweepWorkloadAxis(t *testing.T) {
	r := NewRunner(DefaultConfig(), 0, nil)
	rep, err := r.Sweep(context.Background(), genGrid())
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Points) != 6 {
		t.Fatalf("points = %d, want 2 workloads x 3 idle points", len(rep.Points))
	}
	wantLabels := []string{"d=300", "d=300", "d=300", "d=600", "d=600", "d=600"}
	for i, pt := range rep.Points {
		if pt.Workload != wantLabels[i] {
			t.Errorf("point %d workload label %q, want %q", i, pt.Workload, wantLabels[i])
		}
		if !strings.HasPrefix(pt.Bench, "gen/pointer-chase/") {
			t.Errorf("point %d bench %q not a generated name", i, pt.Bench)
		}
		if len(pt.Runs) != 1 {
			t.Errorf("point %d has %d runs, want 1", i, len(pt.Runs))
		}
	}
	if !strings.Contains(rep.Render(), "d=600") {
		t.Error("rendered table missing workload label")
	}
}

// TestGenSweepStageReuse is the acceptance probe for generator workloads in
// the staged store: across a workload axis × config axis grid, each
// generated workload's functional stages build exactly once (the idle-factor
// axis reads none of them), and re-running the same grid on the same engine
// rebuilds nothing at all.
func TestGenSweepStageReuse(t *testing.T) {
	r := NewRunner(DefaultConfig(), 0, nil)
	ctx := context.Background()
	if _, err := r.Sweep(ctx, genGrid()); err != nil {
		t.Fatal(err)
	}
	for _, st := range []Stage{StageTrace, StageProfile, StageProblems, StageSlices, StageCurves, StageBaseline} {
		if n := r.StagePrepares(st); n != 2 {
			t.Errorf("stage %s built %d times across the grid, want once per workload (2)", st, n)
		}
	}
	if n := r.StagePrepares(StagePrepared); n != 6 {
		t.Errorf("prepared assemblies = %d, want one per grid point (6)", n)
	}
	before := map[Stage]int64{}
	for _, st := range Stages() {
		before[st] = r.StagePrepares(st)
	}
	if _, err := r.Sweep(ctx, genGrid()); err != nil {
		t.Fatal(err)
	}
	for _, st := range Stages() {
		if n := r.StagePrepares(st); n != before[st] {
			t.Errorf("re-sweeping rebuilt stage %s (%d -> %d)", st, before[st], n)
		}
	}
}

// TestGenSelectedPThreadsEnginesAgree closes the differential corpus over
// the selection framework: for generated workloads, p-threads selected by
// PTHSEL+E and installed in the simulator must produce bit-identical Results
// (deep-equal and byte-equal once marshaled) under both engines.
func TestGenSelectedPThreadsEnginesAgree(t *testing.T) {
	ctx := context.Background()
	for _, spec := range []gen.Spec{
		{Family: gen.HashProbe, Seed: 21, WorkingSet: 1 << 14, Depth: 800},
		{Family: gen.BlockedStream, Seed: 22, WorkingSet: 1 << 14, Depth: 8},
		{Family: gen.BranchyParser, Seed: 23, WorkingSet: 1 << 14, Depth: 1200, BranchMix: 60},
	} {
		names, err := gen.Register(spec)
		if err != nil {
			t.Fatal(err)
		}
		name := names[0]
		prep, err := Prepare(ctx, name, program.Train, DefaultConfig())
		if err != nil {
			t.Fatal(err)
		}
		sel := pthsel.Select(prep.Trace, prep.Prof, prep.Trees, prep.Params, pthsel.TargetP)
		if len(sel.PThreads) == 0 {
			t.Fatalf("%s: selector found no p-threads; spec does not exercise pre-execution", name)
		}
		cfg := DefaultConfig().CPU
		event, err := Simulate(ctx, cfg, prep.Trace, sel.PThreads)
		if err != nil {
			t.Fatalf("%s/event: %v", name, err)
		}
		ref, err := simulateReference(ctx, cfg, prep.Trace, sel.PThreads)
		if err != nil {
			t.Fatalf("%s/reference: %v", name, err)
		}
		if !reflect.DeepEqual(event, ref) {
			t.Errorf("%s: engines disagree with p-threads installed", name)
		}
		a, err := json.Marshal(event)
		if err != nil {
			t.Fatal(err)
		}
		b, err := json.Marshal(ref)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(a, b) {
			t.Errorf("%s: marshaled Results not byte-identical", name)
		}
	}
}

// TestGenFingerprintErrorSurfaces pins the fingerprint panic-path fix end to
// end: a configuration carrying an unmarshalable value (NaN) must fail a
// preparation — and a whole sweep — with an error, not a panic from inside
// the artifact store.
func TestGenFingerprintErrorSurfaces(t *testing.T) {
	ctx := context.Background()
	bad := DefaultConfig()
	bad.ProblemCoverage = math.NaN()
	r := NewRunner(bad, 0, nil)
	if _, err := r.Prepare(ctx, "gap", program.Train, bad); err == nil {
		t.Error("Prepare accepted a NaN configuration")
	}

	r2 := NewRunner(DefaultConfig(), 0, nil)
	g := Grid{
		Benchmarks: []string{"gap"},
		Axes: []Axis{{Name: "poison", Points: []AxisPoint{
			{Label: "nan", Mutate: func(c *Config) { c.ProblemCoverage = math.NaN() }},
		}}},
		Targets: []pthsel.Target{pthsel.TargetL},
	}
	if _, err := r2.Sweep(ctx, g); err == nil {
		t.Error("Sweep accepted a NaN axis mutation")
	}

	// The direct (store-free) path reports the same error.
	if _, err := Prepare(ctx, "gap", program.Train, bad); err == nil {
		t.Error("direct Prepare accepted a NaN configuration")
	}
}
