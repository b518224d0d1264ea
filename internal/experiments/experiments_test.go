package experiments

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"slices"
	"strings"
	"testing"

	"repro/internal/cpu"
	"repro/internal/program"
	"repro/internal/pthsel"
)

func TestPrepareProducesEverything(t *testing.T) {
	cfg := DefaultConfig()
	prep, err := Prepare(context.Background(), "gap", program.Train, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if prep.Baseline.Cycles <= 0 || prep.Baseline.Committed <= 0 {
		t.Error("baseline missing")
	}
	if len(prep.Trees) == 0 {
		t.Error("no slice trees")
	}
	if len(prep.Curves) == 0 {
		t.Error("no criticality curves")
	}
	if prep.Params.BWSEQmt <= 0 || prep.Params.L0 <= 0 || prep.Params.E0 <= 0 {
		t.Errorf("params incomplete: %+v", prep.Params)
	}
	if prep.Params.MinDCptcm <= 0 {
		t.Error("candidate coverage floor unset")
	}
}

func TestPrepareUnknownBenchmark(t *testing.T) {
	if _, err := Prepare(context.Background(), "nonesuch", program.Train, DefaultConfig()); err == nil {
		t.Error("unknown benchmark accepted")
	}
}

// TestPaperShape asserts the qualitative results the paper reports, on a
// representative benchmark subset:
//   - pre-execution speeds every target up;
//   - L-p-threads achieve the best latency reduction;
//   - E-p-threads consume the least energy of all targets;
//   - energy-blind latency targeting costs energy relative to E.
func TestPaperShape(t *testing.T) {
	rep, err := NewRunner(DefaultConfig(), 0, nil).Figure3(context.Background(), []string{"twolf", "vortex", "vpr.route"})
	if err != nil {
		t.Fatal(err)
	}
	for _, bench := range rep.Benchmarks {
		runs := map[string]RunReport{}
		for _, r := range bench.Runs {
			runs[r.Target] = r
			if r.SpeedupPct < -1 {
				t.Errorf("%s/%s: slowdown %.1f%%", bench.Name, r.Target, r.SpeedupPct)
			}
		}
		l, e := runs[pthsel.TargetL.String()], runs[pthsel.TargetE.String()]
		if l.SpeedupPct < e.SpeedupPct-1 {
			t.Errorf("%s: L speedup %.1f below E %.1f (metric robustness)", bench.Name, l.SpeedupPct, e.SpeedupPct)
		}
		if e.EnergySavePct < l.EnergySavePct-1 {
			t.Errorf("%s: E energy %.1f worse than L %.1f", bench.Name, e.EnergySavePct, l.EnergySavePct)
		}
		// E-p-threads are near energy-neutral or better (within noise).
		if e.EnergySavePct < -3 {
			t.Errorf("%s: E-p-threads increased energy by %.1f%%", bench.Name, -e.EnergySavePct)
		}
	}
}

func TestRunTargetRealisticProfiling(t *testing.T) {
	cfg := DefaultConfig()
	profPrep, err := Prepare(context.Background(), "gap", program.Ref, cfg)
	if err != nil {
		t.Fatal(err)
	}
	measPrep, err := Prepare(context.Background(), "gap", program.Train, cfg)
	if err != nil {
		t.Fatal(err)
	}
	run, err := RunTarget(context.Background(), profPrep, measPrep, pthsel.TargetL, cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Ref-profiled p-threads must still help on Train (the paper's
	// robustness result), though typically less than ideal profiling.
	if run.SpeedupPct <= 0 {
		t.Errorf("realistic profiling speedup %.1f%%, want positive", run.SpeedupPct)
	}
}

func TestTable3RatiosFinite(t *testing.T) {
	rep, err := NewRunner(DefaultConfig(), 0, nil).Table3(context.Background(), []string{"gap", "vortex"})
	if err != nil {
		t.Fatal(err)
	}
	rendered := rep.Render()
	for _, r := range rep.Rows {
		for name, v := range map[string]float64{
			"latency": r.LatencyPred, "energy": r.EnergyPred, "ED": r.EDPred,
		} {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				t.Errorf("%s %s prediction not finite: %v", r.Name, name, v)
			}
		}
		// Relative accuracy: the measured latency gain should be within a
		// factor of ~4 of the prediction (the paper reports 0.64–1.21).
		if r.LatencyPred < 0.2 || r.LatencyPred > 5 {
			t.Errorf("%s latency prediction ratio %.2f wildly off", r.Name, r.LatencyPred)
		}
	}
	if !strings.Contains(rendered, "Latency prediction") {
		t.Error("rendered table incomplete")
	}
}

// TestTable3EmitsRunEvents pins Table 3 on the shared measurement path:
// each benchmark's L simulation gets exactly one run-start/run-done pair,
// the done event carrying the run's simulator throughput, as every other
// figure's runs do.
func TestTable3EmitsRunEvents(t *testing.T) {
	names := []string{"gap", "vortex"}
	starts, timed := map[string]int{}, map[string]int{} // observer calls are serialized
	r := NewRunner(DefaultConfig(), 0, func(ev Event) {
		switch ev.Kind {
		case EventRunStart:
			starts[ev.Bench+"/"+ev.Target]++
		case EventRunDone:
			if ev.Err == nil && ev.SimCyclesPerSec > 0 {
				timed[ev.Bench+"/"+ev.Target]++
			}
		}
	})
	if _, err := r.Table3(context.Background(), names); err != nil {
		t.Fatal(err)
	}
	for _, name := range names {
		key := name + "/" + pthsel.TargetL.String()
		if starts[key] != 1 || timed[key] != 1 {
			t.Errorf("%s: %d run-start and %d timed run-done events, want 1 and 1", key, starts[key], timed[key])
		}
	}
	if len(starts) != len(names) || len(timed) != len(names) {
		t.Errorf("run events for %v / %v, want only the L run of %v", starts, timed, names)
	}
}

// TestTable3JoinsErrors pins the fan-out error policy on Table 3: every
// failing benchmark's error is reported, in names order, not just the
// first.
func TestTable3JoinsErrors(t *testing.T) {
	cfg := DefaultConfig()
	cfg.CPU.MaxCycles = 10_000 // below every benchmark's baseline
	names := []string{"vortex", "gap"}
	_, err := NewRunner(cfg, 0, nil).Table3(context.Background(), names)
	if err == nil {
		t.Fatal("Table3 succeeded with MaxCycles below both baselines")
	}
	msg := err.Error()
	first, second := strings.Index(msg, "vortex: "), strings.Index(msg, "gap: ")
	if first < 0 || second < 0 || first > second {
		t.Errorf("error %q does not name vortex then gap", msg)
	}
}

func TestFigure5SweepPoints(t *testing.T) {
	for _, axis := range []SweepAxis{SweepIdleFactor, SweepMemLatency, SweepL2Size} {
		labels, mutations := SweepPoints(axis)
		if len(labels) != 3 || len(mutations) != 3 {
			t.Errorf("%s: %d points, want 3", axis, len(labels))
		}
		for _, m := range mutations {
			cfg := DefaultConfig()
			m(&cfg)
		}
		if axis.String() == "" {
			t.Error("axis name empty")
		}
	}
	// Mutations actually mutate.
	_, muts := SweepPoints(SweepMemLatency)
	cfg := DefaultConfig()
	muts[0](&cfg)
	if cfg.CPU.Hier.MemLatency != 100 {
		t.Errorf("mem latency mutation ineffective: %d", cfg.CPU.Hier.MemLatency)
	}
	_, muts = SweepPoints(SweepL2Size)
	cfg = DefaultConfig()
	muts[2](&cfg)
	if cfg.CPU.Hier.L2.SizeBytes != 512<<10 || cfg.CPU.Hier.L2.HitLatency != 15 {
		t.Error("L2 mutation ineffective")
	}
}

func TestFigure5BenchmarkTriples(t *testing.T) {
	if got := Figure5Benchmarks(SweepIdleFactor); len(got) != 3 || got[0] != "gap" {
		t.Errorf("idle triple = %v", got)
	}
	if got := Figure5Benchmarks(SweepMemLatency); got[0] != "gcc" {
		t.Errorf("mem triple = %v", got)
	}
	if got := Figure5Benchmarks(SweepL2Size); got[0] != "mcf" {
		t.Errorf("l2 triple = %v", got)
	}
	if got := Table3Benchmarks(); len(got) != 4 {
		t.Errorf("table 3 benchmarks = %v", got)
	}
	if got := PaperBenchmarks(); len(got) != 9 {
		t.Errorf("paper benchmarks = %v", got)
	}
}

func TestZeroIdleFactorEndToEnd(t *testing.T) {
	// At a 0% idle factor the E target must select nothing and leave the
	// execution untouched (the paper's §5.4 observation).
	cfg := DefaultConfig()
	cfg.CPU.Energy.IdleFactor = 0
	prep, runs, err := NewRunner(cfg, 1, nil).ideal(context.Background(), "vortex", []pthsel.Target{pthsel.TargetE}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	run := runs[0]
	if len(run.Sel.PThreads) != 0 {
		t.Errorf("E selected %d p-threads at 0%% idle", len(run.Sel.PThreads))
	}
	if run.Res.Cycles != prep.Baseline.Cycles {
		t.Error("empty selection must reproduce the baseline exactly")
	}
}

func TestMemoryLatencyScalesGains(t *testing.T) {
	run := func(memlat int) float64 {
		cfg := DefaultConfig()
		cfg.CPU.Hier.MemLatency = memlat
		_, runs, err := NewRunner(cfg, 1, nil).ideal(context.Background(), "gap", []pthsel.Target{pthsel.TargetL}, cfg)
		if err != nil {
			t.Fatal(err)
		}
		return runs[0].SpeedupPct
	}
	lo, hi := run(100), run(300)
	if hi <= lo {
		t.Errorf("gains at 300-cycle memory (%.1f%%) not above 100-cycle (%.1f%%)", hi, lo)
	}
}

func TestDeriveMetrics(t *testing.T) {
	cfg := DefaultConfig()
	prep, runs, err := NewRunner(cfg, 1, nil).ideal(context.Background(), "twolf", []pthsel.Target{pthsel.TargetL}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	r := runs[0]
	// Consistency between derived percentages and raw results.
	base := prep.Baseline
	wantSpeedup := 100 * (float64(base.Cycles)/float64(r.Res.Cycles) - 1)
	if math.Abs(r.SpeedupPct-wantSpeedup) > 1e-9 {
		t.Errorf("speedup %.3f vs recomputed %.3f", r.SpeedupPct, wantSpeedup)
	}
	if r.FullCovPct < 0 || r.PartCovPct < 0 || r.FullCovPct+r.PartCovPct > 150 {
		t.Errorf("coverage out of range: %.1f + %.1f", r.FullCovPct, r.PartCovPct)
	}
}

// TestUnknownEngineFailsFast pins the typed engine enum at the experiments
// layer: an out-of-enum engine is rejected with one error listing the valid
// engines, before any stage executes.
func TestUnknownEngineFailsFast(t *testing.T) {
	for _, name := range []cpu.Engine{"bogus", "batched"} {
		cfg := DefaultConfig()
		cfg.CPU.Engine = name
		r := NewRunner(cfg, 1, nil)
		_, err := r.Prepare(context.Background(), "gap", cfg.MeasureInput, cfg)
		if err == nil {
			t.Fatalf("Prepare accepted engine %q", name)
		}
		for _, wantSub := range []string{string(name), "valid engines: event, scan)"} {
			if !strings.Contains(err.Error(), wantSub) {
				t.Errorf("error %q missing %q", err, wantSub)
			}
		}
		if n := r.StagePrepares(StagePrepared); n != 0 {
			t.Errorf("engine %q still assembled %d preparations", name, n)
		}
		if _, err := PrepareTrace(context.Background(), "x", nil, cfg); err == nil {
			t.Errorf("PrepareTrace accepted engine %q", name)
		}
	}
}

// stripThroughput zeroes the wall-clock throughput column (a substrate
// health metric that varies run to run) so reports can be compared
// byte-for-byte.
func stripThroughput(rep *SweepReport) {
	for i := range rep.Points {
		for j := range rep.Points[i].Runs {
			rep.Points[i].Runs[j].SimCyclesPerSec = 0
		}
	}
}

// TestSweepScanMatchesEvent is the engine differential at the sweep layer:
// a scan-engine base configuration produces the event engine's sweep
// report, byte for byte apart from throughput.
func TestSweepScanMatchesEvent(t *testing.T) {
	grid := Grid{Benchmarks: []string{"gap"}}
	scanCfg := DefaultConfig()
	scanCfg.CPU.Engine = cpu.EngineScan
	rep, err := NewRunner(scanCfg, 2, nil).Sweep(context.Background(), grid)
	if err != nil {
		t.Fatal(err)
	}
	evRep, err := NewRunner(DefaultConfig(), 2, nil).Sweep(context.Background(), grid)
	if err != nil {
		t.Fatal(err)
	}
	stripThroughput(rep)
	stripThroughput(evRep)
	a, _ := json.Marshal(rep.Points)
	b, _ := json.Marshal(evRep.Points)
	if !bytes.Equal(a, b) {
		t.Errorf("scan-engine sweep diverges from event engine:\nscan:  %s\nevent: %s", a, b)
	}
}

// TestSweepSharesMeasurements pins the shared-measurement rule on the
// memory-latency grid over the paper nine under L, E and P: targets at one
// point whose selections are the same p-thread list share one simulation.
// (a) The warm sweep's reports, throughput stripped, are byte-identical to
// the same runs built one by one through RunTarget. (b) Exactly the
// distinct selections — counted with pthsel.Select and cpu.SamePThreads —
// report a throughput, and there are fewer of them than runs. (c) Nothing
// is remembered across calls: a second identical sweep simulates as many.
func TestSweepSharesMeasurements(t *testing.T) {
	ctx := context.Background()
	var runDone, simulated int // observer calls are serialized
	r := NewRunner(DefaultConfig(), 2, func(ev Event) {
		if ev.Kind == EventRunDone {
			runDone++
			if ev.SimCyclesPerSec > 0 {
				simulated++
			}
		}
	})
	grid := Grid{Axes: []Axis{GridAxis(SweepMemLatency)}, Benchmarks: PaperBenchmarks(), Targets: Figure4Targets}
	cold, err := r.Sweep(ctx, grid)
	if err != nil {
		t.Fatal(err)
	}
	warm, err := r.Sweep(ctx, grid)
	if err != nil {
		t.Fatal(err)
	}
	measured := func(rep *SweepReport) (n int) {
		for _, pt := range rep.Points {
			for _, run := range pt.Runs {
				if run.SimCyclesPerSec > 0 {
					n++
				}
			}
		}
		return n
	}
	coldMeasured, warmMeasured := measured(cold), measured(warm)
	if runDone != 2*grid.Points()*len(grid.Benchmarks)*len(grid.Targets) || simulated != coldMeasured+warmMeasured {
		t.Errorf("run-done events: %d, %d with a throughput; want one per target run and %d with a throughput",
			runDone, simulated, coldMeasured+warmMeasured)
	}

	pts := grid.points(r.cfg)
	// The reference: every run built one by one through RunTarget, which
	// shares nothing (run.Sel is pthsel.Select's own), benchmarks fanned
	// out on the engine's pool.
	perPoint := make([][][]*TargetRun, len(grid.Benchmarks))
	err = r.runDAG(ctx, figureSinks(grid.Benchmarks, len(grid.Targets), func(ctx context.Context, i int) error {
		for _, pt := range pts {
			prep, err := r.Prepare(ctx, grid.Benchmarks[i], pt.cfg.MeasureInput, pt.cfg)
			if err != nil {
				return err
			}
			var runs []*TargetRun
			for _, tgt := range grid.Targets {
				run, err := RunTarget(ctx, prep, prep, tgt, pt.cfg)
				if err != nil {
					return err
				}
				runs = append(runs, run)
			}
			perPoint[i] = append(perPoint[i], runs)
		}
		return nil
	}))
	if err != nil {
		t.Fatal(err)
	}
	var want []RunReport
	distinct := 0
	for _, points := range perPoint {
		for _, runs := range points {
			for i, run := range runs {
				rr := runReport(run)
				rr.SimCyclesPerSec = 0
				want = append(want, rr)
				if !slices.ContainsFunc(runs[:i], func(p *TargetRun) bool { return cpu.SamePThreads(p.Sel.PThreads, run.Sel.PThreads) }) {
					distinct++
				}
			}
		}
	}

	stripThroughput(cold)
	stripThroughput(warm)
	var got []RunReport
	for _, pt := range warm.Points {
		got = append(got, pt.Runs...)
	}
	a, _ := json.Marshal(got)
	b, _ := json.Marshal(want)
	if !bytes.Equal(a, b) {
		t.Errorf("shared-measurement sweep diverges from one-by-one RunTarget:\nsweep:     %s\nRunTarget: %s", a, b)
	}
	c, _ := json.Marshal(cold.Points)
	w, _ := json.Marshal(warm.Points)
	if !bytes.Equal(c, w) {
		t.Error("cold and warm sweeps disagree")
	}
	if warmMeasured != distinct || distinct >= len(want) {
		t.Errorf("warm sweep simulated %d of %d runs, want the %d distinct selections (fewer than the runs)",
			warmMeasured, len(want), distinct)
	}
	if coldMeasured != warmMeasured {
		t.Errorf("second sweep simulated %d runs, first %d: measurements must not be remembered across calls",
			warmMeasured, coldMeasured)
	}
	t.Logf("%d distinct selections of %d runs", distinct, len(want))
}
