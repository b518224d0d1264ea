package preexec

import (
	"bytes"
	"context"
	"encoding/json"
	"strings"
	"sync"
	"testing"
)

// stageCounts snapshots the heavy pipeline-stage probes of a Lab.
func stageCounts(lab *Lab) map[Stage]int64 {
	out := map[Stage]int64{}
	for _, st := range []Stage{StageTrace, StageProfile, StageProblems, StageSlices,
		StageCurves, StageBaseline, StageParams, StagePrepared} {
		out[st] = lab.StagePrepares(st)
	}
	return out
}

// TestSweepGridStageReuse is the acceptance probe of the staged pipeline: a
// 3-point single-axis sweep must perform exactly 1 trace, 1 profile and 1
// slice-tree build per benchmark (vs 3 under the monolithic preparation),
// rebuilding only the stages the axis actually touches.
func TestSweepGridStageReuse(t *testing.T) {
	ctx := context.Background()

	// Idle-energy axis: pure energy knob. Everything up to and including
	// the baseline simulation is shared; only params (and the assembled
	// view) rebuild per point.
	lab := New()
	idle := Grid{
		Axes:       []Axis{GridAxis(SweepIdleFactor)},
		Benchmarks: []string{"gap"},
		Targets:    []Target{TargetL},
	}
	if _, err := lab.Sweep(ctx, idle); err != nil {
		t.Fatal(err)
	}
	got := stageCounts(lab)
	want := map[Stage]int64{
		StageTrace: 1, StageProfile: 1, StageProblems: 1, StageSlices: 1,
		StageCurves: 1, StageBaseline: 1, StageParams: 3, StagePrepared: 3,
	}
	for st, n := range want {
		if got[st] != n {
			t.Errorf("idle axis: StagePrepares(%s) = %d, want %d", st, got[st], n)
		}
	}
	if lab.StagePrepares(StagePrepared) != 3 {
		t.Errorf("idle axis: StagePrepares(prepared) = %d, want 3 (one assembly per point)", lab.StagePrepares(StagePrepared))
	}

	// The same sweep again on the warm Lab builds no stage at all: every
	// artifact is served from the store, and only the targets simulate.
	if _, err := lab.Sweep(ctx, idle); err != nil {
		t.Fatal(err)
	}
	for _, st := range Stages() {
		if n := lab.StagePrepares(st); n != got[st] {
			t.Errorf("warm idle axis: StagePrepares(%s) moved %d -> %d, want no build", st, got[st], n)
		}
	}

	// Memory-latency axis: a timing knob. Trace, profile and slices are
	// still shared; curves, baseline and params rebuild per point.
	lab = New()
	if _, err := lab.Sweep(ctx, Grid{
		Axes:       []Axis{GridAxis(SweepMemLatency)},
		Benchmarks: []string{"gap"},
		Targets:    []Target{TargetL},
	}); err != nil {
		t.Fatal(err)
	}
	got = stageCounts(lab)
	want = map[Stage]int64{
		StageTrace: 1, StageProfile: 1, StageProblems: 1, StageSlices: 1,
		StageCurves: 3, StageBaseline: 3, StageParams: 3, StagePrepared: 3,
	}
	for st, n := range want {
		if got[st] != n {
			t.Errorf("mem axis: StagePrepares(%s) = %d, want %d", st, got[st], n)
		}
	}

	// L2-size axis: a cache-geometry knob the profiler reads. Only the
	// trace survives across points.
	lab = New()
	if _, err := lab.Sweep(ctx, Grid{
		Axes:       []Axis{GridAxis(SweepL2Size)},
		Benchmarks: []string{"gap"},
		Targets:    []Target{TargetL},
	}); err != nil {
		t.Fatal(err)
	}
	if n := lab.StagePrepares(StageTrace); n != 1 {
		t.Errorf("l2 axis: StagePrepares(trace) = %d, want 1", n)
	}
	if n := lab.StagePrepares(StageProfile); n != 3 {
		t.Errorf("l2 axis: StagePrepares(profile) = %d, want 3 (profiling reads L2 geometry)", n)
	}
}

// TestSweepMultiAxisGrid: a 2-axis grid enumerates the full cartesian
// product in deterministic benchmark-major, row-major order, and still
// builds each benchmark's trace exactly once.
func TestSweepMultiAxisGrid(t *testing.T) {
	ctx := context.Background()
	lab := New()
	grid := Grid{
		Axes:       []Axis{GridAxis(SweepIdleFactor), GridAxis(SweepMemLatency)},
		Benchmarks: []string{"gap"},
		Targets:    []Target{TargetL},
	}
	if grid.Points() != 9 {
		t.Fatalf("grid points = %d, want 9", grid.Points())
	}
	rep, err := lab.Sweep(ctx, grid)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Points) != 9 {
		t.Fatalf("report points = %d, want 9", len(rep.Points))
	}
	if len(rep.Axes) != 2 || rep.Axes[0] != "idle-energy-factor" || rep.Axes[1] != "memory-latency" {
		t.Errorf("axes = %v", rep.Axes)
	}
	// Row-major: first axis slowest.
	wantLabels := [][]string{
		{"0%", "100"}, {"0%", "200"}, {"0%", "300"},
		{"5%", "100"}, {"5%", "200"}, {"5%", "300"},
		{"10%", "100"}, {"10%", "200"}, {"10%", "300"},
	}
	for i, pt := range rep.Points {
		if pt.Bench != "gap" || strings.Join(pt.Labels, ",") != strings.Join(wantLabels[i], ",") {
			t.Errorf("point %d = %s@%v, want gap@%v", i, pt.Bench, pt.Labels, wantLabels[i])
		}
	}
	if n := lab.StagePrepares(StageTrace); n != 1 {
		t.Errorf("9-point grid built the trace %d times, want 1", n)
	}
	// The idle sub-axis never re-fingerprints the baseline: only the three
	// memory latencies do.
	if n := lab.StagePrepares(StageBaseline); n != 3 {
		t.Errorf("9-point grid ran %d baselines, want 3 (one per memory latency)", n)
	}
}

// TestSweepEnergyPointsReuseBaseline pins the Params fix: sweep points that
// only mutate energy parameters must reuse the cached baseline simulation
// while deriving per-point L0/E0 from it. Observables: exactly one baseline
// runs across the idle axis, yet each point's energy numbers differ (the
// per-point E0 and measured breakdowns are re-derived from the shared
// event counts), and the 0% point reproduces the paper's §5.4 observation
// that no E-p-thread survives selection.
func TestSweepEnergyPointsReuseBaseline(t *testing.T) {
	ctx := context.Background()
	lab := New()
	rep, err := lab.Sweep(ctx, Grid{
		Axes:       []Axis{GridAxis(SweepIdleFactor)},
		Benchmarks: []string{"vortex"},
		Targets:    []Target{TargetE},
	})
	if err != nil {
		t.Fatal(err)
	}
	if n := lab.StagePrepares(StageBaseline); n != 1 {
		t.Fatalf("energy-only sweep ran %d baselines, want 1", n)
	}
	if n := lab.StagePrepares(StageParams); n != 3 {
		t.Fatalf("energy-only sweep derived params %d times, want 3 (per point)", n)
	}
	if len(rep.Points) != 3 {
		t.Fatalf("points = %d, want 3", len(rep.Points))
	}
	e := []float64{rep.Points[0].Runs[0].EnergyTotal, rep.Points[1].Runs[0].EnergyTotal, rep.Points[2].Runs[0].EnergyTotal}
	if !(e[0] < e[1] && e[1] < e[2]) {
		t.Errorf("measured energy must grow with the idle factor: %v", e)
	}
	if n := rep.Points[0].Runs[0].PThreads; n != 0 {
		t.Errorf("0%% idle point selected %d E-p-threads, want 0", n)
	}
}

// TestSweepReportRoundTrip: the sweep report must survive a JSON round trip
// byte-for-byte and render identically from the decoded form (the contract
// cmd/sweep -json | cmd/report -render relies on).
func TestSweepReportRoundTrip(t *testing.T) {
	ctx := context.Background()
	rep, err := New().Sweep(ctx, Grid{
		Axes:       []Axis{GridAxis(SweepIdleFactor)},
		Benchmarks: []string{"gap"},
		Targets:    []Target{TargetL},
	})
	if err != nil {
		t.Fatal(err)
	}
	raw, err := json.Marshal(rep)
	if err != nil {
		t.Fatal(err)
	}
	var decoded SweepReport
	if err := json.Unmarshal(raw, &decoded); err != nil {
		t.Fatal(err)
	}
	raw2, err := json.Marshal(&decoded)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(raw, raw2) {
		t.Errorf("sweep report changed across round-trip:\n%s\nvs\n%s", raw, raw2)
	}
	if decoded.Render() != rep.Render() {
		t.Error("rendered sweep changed across the JSON round-trip")
	}
}

// TestFigure5MatchesSweepGrid: the grid-backed Figure5 must agree point for
// point with independently computed monolithic preparations (the
// numerically-identical-to-goldens requirement, exercised end to end).
func TestFigure5MatchesSweepGrid(t *testing.T) {
	ctx := context.Background()
	names := []string{"gap"}
	rep, err := New().Figure5(ctx, SweepMemLatency, names)
	if err != nil {
		t.Fatal(err)
	}
	sw, err := New().Sweep(ctx, Grid{
		Axes:       []Axis{GridAxis(SweepMemLatency)},
		Benchmarks: names,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Points) != len(sw.Points) {
		t.Fatalf("point counts differ: %d vs %d", len(rep.Points), len(sw.Points))
	}
	for i := range rep.Points {
		a, b := rep.Points[i], sw.Points[i]
		if a.Bench != b.Bench || a.Point != b.Labels[0] {
			t.Errorf("point %d identity: %s@%s vs %s@%v", i, a.Bench, a.Point, b.Bench, b.Labels)
		}
		ra, _ := json.Marshal(stripRunThroughput(a.Runs))
		rb, _ := json.Marshal(stripRunThroughput(b.Runs))
		if !bytes.Equal(ra, rb) {
			t.Errorf("point %d runs diverged:\n%s\nvs\n%s", i, ra, rb)
		}
	}
}

// stripRunThroughput zeroes the wall-clock throughput column so value
// comparisons see only deterministic fields.
func stripRunThroughput(runs []RunReport) []RunReport {
	out := append([]RunReport(nil), runs...)
	for i := range out {
		out[i].SimCyclesPerSec = 0
	}
	return out
}

// TestSweepConcurrentSingleflight hammers one engine with concurrent
// identical sweeps (run under -race in CI): the per-stage store must
// deduplicate every artifact build so the heavy stages still execute
// exactly once per benchmark.
func TestSweepConcurrentSingleflight(t *testing.T) {
	ctx := context.Background()
	lab := New(WithParallelism(8))
	grid := Grid{
		Axes:       []Axis{GridAxis(SweepIdleFactor)},
		Benchmarks: []string{"gap", "twolf"},
		Targets:    []Target{TargetL},
	}
	const goroutines = 4
	var wg sync.WaitGroup
	errs := make([]error, goroutines)
	reps := make([]*SweepReport, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			reps[g], errs[g] = lab.Sweep(ctx, grid)
		}(g)
	}
	wg.Wait()
	for g, err := range errs {
		if err != nil {
			t.Fatalf("goroutine %d: %v", g, err)
		}
	}
	for _, st := range []Stage{StageTrace, StageProfile, StageSlices} {
		if n := lab.StagePrepares(st); n != 2 {
			t.Errorf("StagePrepares(%s) = %d, want 2 (one per benchmark) under concurrency", st, n)
		}
	}
	// All goroutines must agree on the (deterministic) values.
	want, _ := json.Marshal(stripSweepThroughput(reps[0]))
	for g := 1; g < goroutines; g++ {
		got, _ := json.Marshal(stripSweepThroughput(reps[g]))
		if !bytes.Equal(want, got) {
			t.Errorf("goroutine %d saw different sweep values", g)
		}
	}
}

func stripSweepThroughput(rep *SweepReport) *SweepReport {
	out := *rep
	out.Points = append([]SweepPointReport(nil), rep.Points...)
	for i := range out.Points {
		out.Points[i].Runs = stripRunThroughput(out.Points[i].Runs)
	}
	return &out
}
