package experiments

// Tests for the critical-path scheduler. Its contract is that it changes
// only build order: every test here pins some facet of "identical results,
// identical store traffic" while the priority inputs are varied — including
// adversarially — and that the plan is a pure function of the grid and the
// store state.

import (
	"bytes"
	"context"
	"encoding/json"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/pthsel"
)

// schedTestGrid is a multi-axis grid over two benchmarks: enough shape for
// chains of different lengths (idle points share everything but params;
// mem points rebuild curves and baseline) without a long runtime.
func schedTestGrid() Grid {
	return Grid{
		Axes:       []Axis{GridAxis(SweepIdleFactor), GridAxis(SweepMemLatency)},
		Benchmarks: []string{"gap", "twolf"},
		Targets:    []pthsel.Target{pthsel.TargetL},
	}
}

// stripSweepClock zeroes the wall-clock throughput column, the one
// deliberately nondeterministic report field.
func stripSweepClock(rep *SweepReport) *SweepReport {
	out := *rep
	out.Points = append([]SweepPointReport(nil), rep.Points...)
	for i := range out.Points {
		runs := append([]RunReport(nil), out.Points[i].Runs...)
		for j := range runs {
			runs[j].SimCyclesPerSec = 0
		}
		out.Points[i].Runs = runs
	}
	return &out
}

// sweepJSON renders a report deterministically for byte comparison.
func sweepJSON(t *testing.T, rep *SweepReport) []byte {
	t.Helper()
	raw, err := json.Marshal(stripSweepClock(rep))
	if err != nil {
		t.Fatal(err)
	}
	return raw
}

// TestSweepSchedMatchesNaive pins the tentpole's identity contract: the
// critical-path scheduler and naive bench-major order produce byte-identical
// sweep reports (same rows, same order, same values) and identical per-stage
// cold counts — scheduling changes when stages build, never what builds.
func TestSweepSchedMatchesNaive(t *testing.T) {
	ctx := context.Background()
	grid := schedTestGrid()

	naive := NewRunner(DefaultConfig(), 4, nil)
	naive.SetScheduling(false)
	repN, err := naive.Sweep(ctx, grid)
	if err != nil {
		t.Fatal(err)
	}

	sched := NewRunner(DefaultConfig(), 4, nil)
	repS, err := sched.Sweep(ctx, grid)
	if err != nil {
		t.Fatal(err)
	}

	if a, b := sweepJSON(t, repN), sweepJSON(t, repS); !bytes.Equal(a, b) {
		t.Errorf("scheduled sweep diverged from naive order:\n%s\nvs\n%s", a, b)
	}
	for _, st := range Stages() {
		if n, s := naive.StagePrepares(st), sched.StagePrepares(st); n != s {
			t.Errorf("StagePrepares(%s): naive %d, scheduled %d — speculation built work naive order would not", st, n, s)
		}
	}
}

// TestSweepSchedAdversarialCosts swaps in a stage-cost table whose costs
// invert reality — cheap assembly stages projected enormous, the
// dominant trace stage projected near-free, measurement sinks in between —
// so ready-queue priority ordering is maximally wrong. The report must still
// be byte-identical to naive order and every short chain must still
// complete: priority orders the ready set, it never drops or starves a node.
func TestSweepSchedAdversarialCosts(t *testing.T) {
	ctx := context.Background()
	grid := schedTestGrid()

	naive := NewRunner(DefaultConfig(), 4, nil)
	naive.SetScheduling(false)
	repN, err := naive.Sweep(ctx, grid)
	if err != nil {
		t.Fatal(err)
	}

	var points atomic.Int64
	sched := NewRunner(DefaultConfig(), 4, func(ev Event) {
		if ev.Kind == EventPointDone {
			points.Add(1)
		}
	})
	saved := stageCost
	t.Cleanup(func() { stageCost = saved })
	stageCost = map[Stage]float64{
		StageTrace:    1e-9, // the real dominator, projected free
		StageProfile:  1e-9,
		StageSlices:   1e-9,
		StageProblems: 1e6, // near-free stages, projected enormous
		StageCurves:   1e6,
		StageBaseline: 1e-9,
		StageParams:   1e6,
		StagePrepared: 1e6,
		stageMeasure:  42,
	}

	repS, err := sched.Sweep(ctx, grid)
	if err != nil {
		t.Fatal(err)
	}
	if a, b := sweepJSON(t, repN), sweepJSON(t, repS); !bytes.Equal(a, b) {
		t.Errorf("adversarial stage costs changed sweep values or row order:\n%s\nvs\n%s", a, b)
	}
	if got, want := points.Load(), int64(len(repN.Points)); got != want {
		t.Errorf("completed %d points under adversarial priorities, want %d (starvation?)", got, want)
	}
}

// TestCampaignSchedMatchesNaive extends the identity contract to Campaign,
// including its partial-failure path: a benchmark whose baseline simulation
// fails must report the same error entry under both orders, and the
// scheduler's fail-fast stage nodes must not change the cold counts of the
// doomed chain.
func TestCampaignSchedMatchesNaive(t *testing.T) {
	ctx := context.Background()
	cfg := DefaultConfig()
	cfg.CPU.MaxCycles = 600_000 // mcf's baseline exceeds this; gap's does not
	targets := []pthsel.Target{pthsel.TargetL}
	names := []string{"gap", "mcf"}

	run := func(sched bool) (*CampaignReport, *Runner) {
		r := NewRunner(cfg, 4, nil)
		r.SetScheduling(sched)
		rep, err := r.Campaign(ctx, names, targets)
		if err != nil {
			t.Fatal(err)
		}
		return rep, r
	}
	repN, rn := run(false)
	repS, rs := run(true)

	strip := func(rep *CampaignReport) []byte {
		out := *rep
		out.Benchmarks = append([]CampaignBench(nil), rep.Benchmarks...)
		for i := range out.Benchmarks {
			runs := append([]RunReport(nil), out.Benchmarks[i].Runs...)
			for j := range runs {
				runs[j].SimCyclesPerSec = 0
			}
			out.Benchmarks[i].Runs = runs
		}
		raw, err := json.Marshal(&out)
		if err != nil {
			t.Fatal(err)
		}
		return raw
	}
	if a, b := strip(repN), strip(repS); !bytes.Equal(a, b) {
		t.Errorf("scheduled campaign diverged from naive:\n%s\nvs\n%s", a, b)
	}
	if repS.Err() == nil {
		t.Error("campaign fixture lost its expected mcf failure")
	}
	for _, st := range Stages() {
		if n, s := rn.StagePrepares(st), rs.StagePrepares(st); n != s {
			t.Errorf("StagePrepares(%s): naive %d, scheduled %d on the failure path", st, n, s)
		}
	}
}

// TestSweepSchedConcurrent hammers one engine with concurrent scheduled
// sweeps (run under -race in CI): the store and scheduler state are shared
// across simultaneous DAG executions, and the singleflight store must
// still build each heavy stage exactly once.
func TestSweepSchedConcurrent(t *testing.T) {
	ctx := context.Background()
	r := NewRunner(DefaultConfig(), 8, nil)
	grid := Grid{
		Axes:       []Axis{GridAxis(SweepIdleFactor)},
		Benchmarks: []string{"gap", "twolf"},
		Targets:    []pthsel.Target{pthsel.TargetL},
	}
	const goroutines = 4
	var wg sync.WaitGroup
	errs := make([]error, goroutines)
	reps := make([]*SweepReport, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			reps[g], errs[g] = r.Sweep(ctx, grid)
		}(g)
	}
	wg.Wait()
	for g, err := range errs {
		if err != nil {
			t.Fatalf("goroutine %d: %v", g, err)
		}
	}
	for _, st := range []Stage{StageTrace, StageProfile, StageSlices} {
		if n := r.StagePrepares(st); n != 2 {
			t.Errorf("StagePrepares(%s) = %d, want 2 (one per benchmark) under concurrent scheduled sweeps", st, n)
		}
	}
	want := sweepJSON(t, reps[0])
	for g := 1; g < goroutines; g++ {
		if got := sweepJSON(t, reps[g]); !bytes.Equal(want, got) {
			t.Errorf("goroutine %d saw different sweep values", g)
		}
	}
}

// TestSweepDAGExport pins the plan export: node dedup across grid points,
// one measurement sink per job, cold→cached status transitions against the
// live store, and well-formed DOT.
func TestSweepDAGExport(t *testing.T) {
	ctx := context.Background()
	r := NewRunner(DefaultConfig(), 0, nil)
	grid := Grid{
		Axes:       []Axis{GridAxis(SweepIdleFactor)},
		Benchmarks: []string{"gap"},
		Targets:    []pthsel.Target{pthsel.TargetL},
	}

	dag, err := r.SweepDAG(grid)
	if err != nil {
		t.Fatal(err)
	}
	var sinks, cold, cached int
	for _, n := range dag.Nodes {
		switch n.Status {
		case schedMeasure:
			sinks++
		case schedCold:
			cold++
		case schedCached:
			cached++
		}
	}
	if sinks != 3 {
		t.Errorf("DAG has %d measurement sinks, want 3 (one per grid point)", sinks)
	}
	if cached != 0 {
		t.Errorf("fresh engine planned %d cached nodes, want 0", cached)
	}
	// The idle axis only perturbs params/prepared: heavy stages dedup to one
	// node each, so the stage-node count is far below 3 points × 8 stages.
	if stageNodes := len(dag.Nodes) - sinks; stageNodes >= 3*len(Stages()) {
		t.Errorf("stage nodes not deduplicated: %d nodes for a 3-point single-bench grid", stageNodes)
	}
	if cold == 0 || len(dag.Edges) == 0 || dag.CriticalPath <= 0 {
		t.Errorf("degenerate plan: %d cold nodes, %d edges, critical path %f",
			cold, len(dag.Edges), dag.CriticalPath)
	}

	dot := dag.DOT()
	for _, want := range []string{"digraph stages {", "->", "gap/train", "[cold]", "[measure]", "}"} {
		if !strings.Contains(dot, want) {
			t.Errorf("DOT output missing %q:\n%s", want, dot)
		}
	}

	// Planning must not execute or count anything...
	if n := r.StagePrepares(StageTrace); n != 0 {
		t.Fatalf("SweepDAG executed %d trace builds", n)
	}
	// ...and after the sweep actually runs, a re-plan sees a warm store.
	if _, err := r.Sweep(ctx, grid); err != nil {
		t.Fatal(err)
	}
	dag2, err := r.SweepDAG(grid)
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range dag2.Nodes {
		if n.Status == schedCold || n.Status == schedSpill {
			t.Errorf("post-sweep plan still projects %s/%s %s as %s", n.Bench, n.Input, n.Stage, n.Status)
		}
	}
}

// TestSweepDAGDeterministic pins the plan as a pure function of the grid
// and the store state: two fresh engines that ran the same sweep plan a
// larger grid (whose mem points leave curves, baseline and everything
// downstream cold) to byte-identical DOT, however long their builds took.
func TestSweepDAGDeterministic(t *testing.T) {
	ctx := context.Background()
	plan := func() string {
		r := NewRunner(DefaultConfig(), 0, nil)
		if _, err := r.Sweep(ctx, Grid{
			Axes:       []Axis{GridAxis(SweepIdleFactor)},
			Benchmarks: []string{"gap"},
			Targets:    []pthsel.Target{pthsel.TargetL},
		}); err != nil {
			t.Fatal(err)
		}
		dag, err := r.SweepDAG(Grid{
			Axes:       []Axis{GridAxis(SweepIdleFactor), GridAxis(SweepMemLatency)},
			Benchmarks: []string{"gap"},
			Targets:    []pthsel.Target{pthsel.TargetL},
		})
		if err != nil {
			t.Fatal(err)
		}
		return dag.DOT()
	}
	if a, b := plan(), plan(); a != b {
		t.Errorf("identical engines planned different DAGs:\n%s\nvs\n%s", a, b)
	}
}

// TestRunnerTimesStageBuilds pins the build-timing surface observers read:
// every stage-done event carries DurationNS, and the build-latency
// reservoir behind StoreStats saw the same builds.
func TestRunnerTimesStageBuilds(t *testing.T) {
	ctx := context.Background()
	cfg := DefaultConfig()
	var stageDones, timedDones atomic.Int64
	r := NewRunner(cfg, 0, func(ev Event) {
		if ev.Kind == EventStageDone {
			stageDones.Add(1)
			if ev.DurationNS > 0 {
				timedDones.Add(1)
			}
		}
	})
	prep, err := r.Prepare(ctx, "gap", cfg.MeasureInput, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if n, timed := stageDones.Load(), timedDones.Load(); n == 0 || timed != n {
		t.Errorf("%d of %d stage-done events carried DurationNS", timed, n)
	}
	if _, err := RunTarget(ctx, prep, prep, pthsel.TargetL, cfg); err != nil {
		t.Fatal(err)
	}
	st := r.StoreStats()
	tr := st.Stages[StageTrace]
	if tr.P50BuildNS <= 0 || tr.P95BuildNS < tr.P50BuildNS {
		t.Errorf("trace build-latency percentiles malformed: p50 %d, p95 %d", tr.P50BuildNS, tr.P95BuildNS)
	}
	if un := st.Stages[StageCurves]; un.Cold != 1 {
		t.Errorf("curves cold count = %d, want 1", un.Cold)
	}
}
