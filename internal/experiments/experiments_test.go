package experiments

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"reflect"
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

// FuzzParseSweepAxis drives the CLI and daemon axis parser with arbitrary
// text: it must return an error or an axis whose canonical name parses back
// to the same axis, never panic.
func FuzzParseSweepAxis(f *testing.F) {
	for _, s := range []string{"idle", "mem", "l2", "idle-energy-factor", "memory-latency", "L2-size",
		"", "L2", "IDLE", " mem", "memory-latency\x00"} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		axis, err := ParseSweepAxis(s)
		if err != nil {
			return
		}
		again, err := ParseSweepAxis(axis.String())
		if err != nil || again != axis {
			t.Fatalf("%q parsed to %v, whose name %q parses to %v, %v", s, axis, axis.String(), again, err)
		}
	})
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
// the base-configuration sweep of gap under L, E and P, which simulates on
// the event engine, reports exactly the runs rebuilt on the reference scan
// engine from the same preparation and selections, apart from throughput.
// TestEnginesAgree compares the same selections' raw Results; this test
// checks what the sweep derives and reports from them.
func TestSweepScanMatchesEvent(t *testing.T) {
	ctx := context.Background()
	cfg := DefaultConfig()
	rep, err := NewRunner(cfg, 2, nil).Sweep(ctx, Grid{Benchmarks: []string{"gap"}})
	if err != nil {
		t.Fatal(err)
	}
	stripThroughput(rep)
	if len(rep.Points) != 1 {
		t.Fatalf("base sweep has %d points, want 1", len(rep.Points))
	}

	prep, err := Prepare(ctx, "gap", cfg.MeasureInput, cfg)
	if err != nil {
		t.Fatal(err)
	}
	base, err := simulateReference(ctx, cfg.CPU, prep.Trace, nil)
	if err != nil {
		t.Fatalf("baseline reference: %v", err)
	}
	var want []RunReport
	for _, tgt := range Figure4Targets {
		sel := pthsel.Select(prep.Trace, prep.Prof, prep.Trees, prep.Params, tgt)
		res, err := simulateReference(ctx, cfg.CPU, prep.Trace, sel.PThreads)
		if err != nil {
			t.Fatalf("target-%s reference: %v", tgt, err)
		}
		want = append(want, runReport(Derive(sel, base, res)))
	}
	a, _ := json.Marshal(rep.Points[0].Runs)
	b, _ := json.Marshal(want)
	if !bytes.Equal(a, b) {
		t.Errorf("event-engine sweep diverges from reference scan engine:\nevent: %s\nscan:  %s", a, b)
	}
}

// oneByOne is the shared-nothing reference for a grid: every (benchmark,
// point, target) run built through RunTarget (run.Sel is pthsel.Select's
// own), benchmarks fanned out on the engine's pool. It returns the runs'
// reports in sweep order, throughput stripped, and how many timing runs a
// sweep must simulate: the distinct non-empty p-thread lists
// (cpu.SamePThreads) per measurement baseline-stage key, across the whole
// grid and summed point by point.
func oneByOne(t *testing.T, r *Runner, grid Grid) (want []RunReport, distinct, perPoint int) {
	t.Helper()
	type point struct {
		key  artifactKey
		runs []*TargetRun
	}
	pts := grid.points(r.cfg)
	refs := make([][]point, len(grid.Benchmarks))
	err := r.runDAG(context.Background(), figureSinks(grid.Benchmarks, func(ctx context.Context, i int) error {
		for _, pt := range pts {
			prep, err := r.Prepare(ctx, grid.Benchmarks[i], pt.cfg.MeasureInput, pt.cfg)
			if err != nil {
				return err
			}
			c, err := newChain(grid.Benchmarks[i], prep.Input, pt.cfg)
			if err != nil {
				return err
			}
			p := point{key: c.key(StageBaseline)}
			for _, tgt := range grid.Targets {
				run, err := RunTarget(ctx, prep, prep, tgt, pt.cfg)
				if err != nil {
					return err
				}
				p.runs = append(p.runs, run)
			}
			refs[i] = append(refs[i], p)
		}
		return nil
	}))
	if err != nil {
		t.Fatal(err)
	}
	type timing struct {
		key      artifactKey
		pthreads []*cpu.PThread
	}
	var all []timing
	for _, bench := range refs {
		for _, p := range bench {
			var here []timing
			for _, run := range p.runs {
				rr := runReport(run)
				rr.SimCyclesPerSec = 0
				want = append(want, rr)
				if len(run.Sel.PThreads) == 0 {
					continue
				}
				tm := timing{p.key, run.Sel.PThreads}
				same := func(o timing) bool { return o.key == tm.key && cpu.SamePThreads(o.pthreads, tm.pthreads) }
				if !slices.ContainsFunc(here, same) {
					here = append(here, tm)
				}
				if !slices.ContainsFunc(all, same) {
					all = append(all, tm)
				}
			}
			perPoint += len(here)
		}
	}
	return want, len(all), perPoint
}

// TestSweepSharesMeasurements pins the call-scoped timing-run table on the
// memory-latency grid over the paper nine under L, E and P, at parallelism
// 2: a run simulates once per distinct (baseline-stage key, p-thread list),
// and a target that selects nothing takes the baseline. (a) The warm
// sweep's reports, throughput stripped, are byte-identical to the same runs
// built one by one through RunTarget. (b) Exactly the distinct timing runs
// report a throughput, in the report and in run-done events, and there are
// fewer of them than runs: the table is single-flight across workers.
// (c) Nothing is remembered across calls: a second identical sweep
// simulates as many. (d) A Figure 5 idle-axis sweep, whose points differ
// only in energy parameters, shares its timing runs across points and
// stays byte-identical to one-by-one RunTarget.
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
	// measured counts the runs a report says were simulated, and strips
	// their throughput.
	measured := func(runs []RunReport) (n int) {
		for i := range runs {
			if runs[i].SimCyclesPerSec > 0 {
				n++
			}
			runs[i].SimCyclesPerSec = 0
		}
		return n
	}
	sweep := func(g Grid) (runs []RunReport, sims int) {
		runDone, simulated = 0, 0
		rep, err := r.Sweep(ctx, g)
		if err != nil {
			t.Fatal(err)
		}
		for _, pt := range rep.Points {
			runs = append(runs, pt.Runs...)
		}
		if n := measured(runs); runDone != len(runs) || simulated != n {
			t.Errorf("run-done events: %d, %d with a throughput; want one per target run (%d) and %d with a throughput",
				runDone, simulated, len(runs), n)
		}
		return runs, simulated
	}

	grid := Grid{Axes: []Axis{GridAxis(SweepMemLatency)}, Benchmarks: PaperBenchmarks(), Targets: Figure4Targets}
	cold, coldSims := sweep(grid)
	warm, warmSims := sweep(grid)
	want, distinct, _ := oneByOne(t, r, grid)
	a, _ := json.Marshal(warm)
	b, _ := json.Marshal(want)
	if !bytes.Equal(a, b) {
		t.Errorf("shared-measurement sweep diverges from one-by-one RunTarget:\nsweep:     %s\nRunTarget: %s", a, b)
	}
	if c, _ := json.Marshal(cold); !bytes.Equal(c, a) {
		t.Error("cold and warm sweeps disagree")
	}
	if warmSims != distinct || distinct >= len(want) {
		t.Errorf("warm sweep simulated %d of %d runs, want the %d distinct timing runs (fewer than the runs)",
			warmSims, len(want), distinct)
	}
	if coldSims != warmSims {
		t.Errorf("second sweep simulated %d runs, first %d: measurements must not be remembered across calls",
			warmSims, coldSims)
	}
	t.Logf("memory-latency grid: %d distinct timing runs of %d runs", distinct, len(want))

	runDone, simulated = 0, 0
	fig5, err := r.Figure5(ctx, SweepIdleFactor, Figure5Benchmarks(SweepIdleFactor))
	if err != nil {
		t.Fatal(err)
	}
	var got []RunReport
	for _, pt := range fig5.Points {
		got = append(got, pt.Runs...)
	}
	sims := measured(got)
	idle := Grid{Axes: []Axis{GridAxis(SweepIdleFactor)}, Benchmarks: Figure5Benchmarks(SweepIdleFactor), Targets: Figure4Targets}
	want, distinct, perPoint := oneByOne(t, r, idle)
	a, _ = json.Marshal(got)
	b, _ = json.Marshal(want)
	if !bytes.Equal(a, b) {
		t.Errorf("idle-axis Figure 5 diverges from one-by-one RunTarget:\nfigure 5:  %s\nRunTarget: %s", a, b)
	}
	if runDone != len(got) || sims != distinct || simulated != distinct || distinct >= perPoint {
		t.Errorf("idle-axis Figure 5: %d run-done events for %d runs, %d simulated (%d events with a throughput); want one event per run and the %d distinct timing runs, fewer than the %d distinct per point",
			runDone, len(got), sims, simulated, distinct, perPoint)
	}
	t.Logf("idle-axis Figure 5: %d timing runs of %d runs (%d without sharing across points)", distinct, len(want), perPoint)
}

// TestEmptySelectionIsBaseline covers every paper benchmark at every
// memory-latency point where L, E or P selects no p-threads: the sweep
// takes the preparation's baseline as the run without simulating, its
// report (throughput stripped) is byte-identical to a simulated RunTarget,
// and no caller mutates the shared baseline Result.
func TestEmptySelectionIsBaseline(t *testing.T) {
	ctx := context.Background()
	r := NewRunner(DefaultConfig(), 2, nil)
	grid := Grid{Axes: []Axis{GridAxis(SweepMemLatency)}, Benchmarks: PaperBenchmarks(), Targets: Figure4Targets}
	pts := grid.points(r.cfg)
	preps := make([][]*Prepared, len(grid.Benchmarks))
	err := r.runDAG(ctx, figureSinks(grid.Benchmarks, func(ctx context.Context, i int) error {
		for _, pt := range pts {
			prep, err := r.Prepare(ctx, grid.Benchmarks[i], pt.cfg.MeasureInput, pt.cfg)
			if err != nil {
				return err
			}
			preps[i] = append(preps[i], prep)
		}
		return nil
	}))
	if err != nil {
		t.Fatal(err)
	}
	var before []*cpu.Result
	for _, bench := range preps {
		for _, prep := range bench {
			before = append(before, prep.Baseline.Clone())
		}
	}

	rep, err := r.Sweep(ctx, grid)
	if err != nil {
		t.Fatal(err)
	}
	empty := 0
	for bi, bench := range grid.Benchmarks {
		for pi, pt := range pts {
			prep, row := preps[bi][pi], rep.Points[bi*len(pts)+pi]
			for ti, tgt := range grid.Targets {
				sel := pthsel.Select(prep.Trace, prep.Prof, prep.Trees, prep.Params, tgt)
				if len(sel.PThreads) > 0 {
					continue
				}
				empty++
				got := row.Runs[ti]
				if got.SimCyclesPerSec != 0 {
					t.Errorf("%s@%s %s: empty selection simulated (%.0f cycles/s)", bench, pt.point(), tgt, got.SimCyclesPerSec)
				}
				ref, err := RunTarget(ctx, prep, prep, tgt, pt.cfg)
				if err != nil {
					t.Fatal(err)
				}
				want := runReport(ref)
				want.SimCyclesPerSec = 0
				a, _ := json.Marshal(got)
				b, _ := json.Marshal(want)
				if !bytes.Equal(a, b) {
					t.Errorf("%s@%s %s: baseline-derived run diverges from RunTarget:\nderived:   %s\nRunTarget: %s",
						bench, pt.point(), tgt, a, b)
				}
			}
		}
	}
	if empty == 0 {
		t.Fatal("no target selected nothing: the test covers no empty selection")
	}
	k := 0
	for bi, bench := range preps {
		for pi, prep := range bench {
			if !reflect.DeepEqual(before[k], prep.Baseline) {
				t.Errorf("%s@%s: the preparation's baseline Result changed", grid.Benchmarks[bi], pts[pi].point())
			}
			k++
		}
	}
	t.Logf("%d empty selections of %d runs", empty, len(grid.Benchmarks)*len(pts)*len(grid.Targets))
}
