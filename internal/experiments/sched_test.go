package experiments

// Tests for the stage-DAG executor. Its contract is that chain expansion
// changes only build order: every test here pins some facet of "identical
// results, identical store traffic" against the chain-less path, or the
// sharing of stage nodes across sinks.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

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

// TestSweepSchedMatchesNaive pins the executor's identity contract: the
// expanded stage DAG and naive bench-major order produce byte-identical
// sweep reports (same rows, same order, same values) and identical per-stage
// cold counts — scheduling changes when stages build, never what builds.
func TestSweepSchedMatchesNaive(t *testing.T) {
	ctx := context.Background()
	grid := schedTestGrid()

	naive := NewRunner(DefaultConfig(), 4, nil)
	naive.sched = false
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

// TestSweepFailureSchedMatchesNaive extends the identity contract to the
// failure path, on a zero-axis sweep (benchmarks × targets at the base
// configuration): a benchmark whose baseline simulation fails must fail
// the sweep with the same error under both orders, naming it at the "base"
// point and not the benchmark that succeeded, and the scheduler's
// fail-fast stage nodes must not change the cold counts of the doomed
// chain.
func TestSweepFailureSchedMatchesNaive(t *testing.T) {
	ctx := context.Background()
	cfg := DefaultConfig()
	cfg.CPU.MaxCycles = 600_000 // mcf's baseline exceeds this; gap's does not
	grid := Grid{Benchmarks: []string{"gap", "mcf"}, Targets: []pthsel.Target{pthsel.TargetL}}

	run := func(sched bool) (*Runner, error) {
		r := NewRunner(cfg, 4, nil)
		r.sched = sched
		rep, err := r.Sweep(ctx, grid)
		if err == nil {
			t.Fatalf("sweep with sched=%v succeeded (%d points); the fixture lost its mcf failure", sched, len(rep.Points))
		}
		return r, err
	}
	rn, errN := run(false)
	rs, errS := run(true)

	if errN.Error() != errS.Error() {
		t.Errorf("scheduled sweep error diverged from naive:\n%v\nvs\n%v", errN, errS)
	}
	if msg := errS.Error(); !strings.HasPrefix(msg, "mcf@base: ") || strings.Contains(msg, "gap") {
		t.Errorf("sweep error = %q, want mcf's failure at the base point and nothing of gap", msg)
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

// TestProgressInDeliveryOrder pins completion numbering: however the
// workers race to finish, an observer sees Done count 1..Total in the
// order it receives the point-done events. Repeated sweeps make a race
// likely: after the first they are warm, each point only simulates, and
// idle points share one timing run, so several points finish together.
func TestProgressInDeliveryOrder(t *testing.T) {
	ctx := context.Background()
	var done []int
	r := NewRunner(DefaultConfig(), 8, func(ev Event) {
		if ev.Kind == EventPointDone {
			done = append(done, ev.Done)
		}
		// A slow observer, like labd's, which encodes and fans out every
		// event: workers that finish meanwhile queue up on delivery.
		time.Sleep(50 * time.Microsecond)
	})
	check := func(call string, total int) {
		t.Helper()
		for i, d := range done {
			if d != i+1 {
				t.Fatalf("%s: Done sequence %v, want 1..%d in delivery order", call, done, total)
			}
		}
		if len(done) != total {
			t.Fatalf("%s: %d completion events, want %d", call, len(done), total)
		}
		done = done[:0]
	}
	grid := Grid{
		Axes:       []Axis{GridAxis(SweepIdleFactor)},
		Benchmarks: []string{"gap", "twolf"},
		Targets:    []pthsel.Target{pthsel.TargetL},
	}
	for i := 0; i < 5; i++ {
		if _, err := r.Sweep(ctx, grid); err != nil {
			t.Fatal(err)
		}
		check(fmt.Sprintf("sweep %d", i), 6)
	}
	// A zero-axis grid: one base point per benchmark.
	grid.Axes = nil
	if _, err := r.Sweep(ctx, grid); err != nil {
		t.Fatal(err)
	}
	check("zero-axis sweep", 2)
}

// TestSweepStoreTrafficShared pins the sharing chain expansion adds to a
// sweep's store traffic: stage nodes are deduplicated across sinks by
// artifact key, and each sink hangs off one prepared node. On a warm
// 3-point idle sweep over gap, every stage the points agree on is
// requested once by its shared node; only params and prepared, which read
// the idle factor, are requested per point, and prepared once more by each
// sink's own Prepare call.
func TestSweepStoreTrafficShared(t *testing.T) {
	ctx := context.Background()
	r := NewRunner(DefaultConfig(), 0, nil)
	grid := Grid{
		Axes:       []Axis{GridAxis(SweepIdleFactor)},
		Benchmarks: []string{"gap"},
		Targets:    []pthsel.Target{pthsel.TargetL},
	}
	if _, err := r.Sweep(ctx, grid); err != nil {
		t.Fatal(err)
	}
	before := r.StoreStats()
	if _, err := r.Sweep(ctx, grid); err != nil {
		t.Fatal(err)
	}
	after := r.StoreStats()
	want := map[Stage]int64{
		StageTrace: 1, StageProfile: 1, StageProblems: 1, StageSlices: 1,
		StageCurves: 1, StageBaseline: 1, StageParams: 3, StagePrepared: 6,
	}
	for _, st := range Stages() {
		a, b := after.Stages[st], before.Stages[st]
		if cold := a.Cold - b.Cold; cold != 0 {
			t.Errorf("%s: warm sweep built %d times", st, cold)
		}
		if got := a.Hit + a.Shared - b.Hit - b.Shared; got != want[st] {
			t.Errorf("%s: warm sweep made %d hit+shared requests, want %d", st, got, want[st])
		}
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

// TestLatencyPercentilesNearestRank pins the reservoir's percentiles to the
// nearest-rank definition: of n samples, pq is the ceil(q·n)-th smallest.
func TestLatencyPercentilesNearestRank(t *testing.T) {
	for _, tc := range []struct {
		n        int
		p50, p95 int64
	}{
		{n: 1, p50: 1, p95: 1},
		{n: 2, p50: 1, p95: 2},
		{n: 10, p50: 5, p95: 10},
		{n: 20, p50: 10, p95: 19},
		{n: 256, p50: 128, p95: 244},
	} {
		var l latencyReservoir
		for v := tc.n; v >= 1; v-- { // recorded out of order: 1..n ns
			l.record(int64(v))
		}
		if p50, p95 := l.percentiles(); p50 != tc.p50 || p95 != tc.p95 {
			t.Errorf("n=%d: p50, p95 = %d, %d; want %d, %d", tc.n, p50, p95, tc.p50, tc.p95)
		}
	}
}
