// Ablation benchmarks for the design decisions DESIGN.md calls out: each
// switches one mechanism off and reports the consequence, quantifying why
// the mechanism exists.
package preexec

import (
	"context"
	"testing"

	"repro/internal/critpath"
	"repro/internal/experiments"
	"repro/internal/program"
	"repro/internal/pthsel"
)

// BenchmarkAblationStridePrefetcher compares baseline L2 misses with and
// without the conventional stride prefetcher. Without it, streaming loads
// masquerade as problem loads and pre-execution's value is inflated — the
// reason the substrate includes one (the paper's "defies address
// prediction" premise).
func BenchmarkAblationStridePrefetcher(b *testing.B) {
	withCfg := experiments.DefaultConfig()
	withoutCfg := experiments.DefaultConfig()
	withoutCfg.CPU.Hier.StrideEntries = 0
	var withMisses, withoutMisses int64
	for i := 0; i < b.N; i++ {
		pw, err := experiments.Prepare(context.Background(), "bzip2", program.Train, withCfg)
		if err != nil {
			b.Fatal(err)
		}
		po, err := experiments.Prepare(context.Background(), "bzip2", program.Train, withoutCfg)
		if err != nil {
			b.Fatal(err)
		}
		withMisses, withoutMisses = pw.Baseline.DemandL2Misses, po.Baseline.DemandL2Misses
	}
	b.ReportMetric(float64(withMisses), "L2miss-with-pref")
	b.ReportMetric(float64(withoutMisses), "L2miss-without-pref")
}

// BenchmarkAblationInteractionCost compares L-target selection driven by
// the paper's averaged (pessimistic+optimistic) cost curves against the
// flat cycle-for-cycle model (which is exactly TargetO), on a benchmark
// with heavily overlapped misses.
func BenchmarkAblationInteractionCost(b *testing.B) {
	cfg := experiments.DefaultConfig()
	var flat, crit *experiments.TargetRun
	for i := 0; i < b.N; i++ {
		prep, err := experiments.Prepare(context.Background(), "twolf", program.Train, cfg)
		if err != nil {
			b.Fatal(err)
		}
		if flat, err = experiments.RunTarget(context.Background(), prep, prep, pthsel.TargetO, cfg); err != nil {
			b.Fatal(err)
		}
		if crit, err = experiments.RunTarget(context.Background(), prep, prep, pthsel.TargetL, cfg); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(flat.SpeedupPct, "%ipc-flat-cost")
	b.ReportMetric(crit.SpeedupPct, "%ipc-criticality")
	b.ReportMetric(flat.Sel.PredLADV/crit.Sel.PredLADV, "flat-overprediction-x")
}

// BenchmarkAblationBusEdges quantifies the memory-bus bandwidth edges in
// the critical-path model: without them the model over-estimates the
// benefit of tolerating one load's latency in a bandwidth-bound region.
func BenchmarkAblationBusEdges(b *testing.B) {
	cfg := experiments.DefaultConfig()
	var withBus, withoutBus float64
	for i := 0; i < b.N; i++ {
		prep, err := experiments.Prepare(context.Background(), "vortex", program.Train, cfg)
		if err != nil {
			b.Fatal(err)
		}
		cpCfg := critpath.DefaultConfig(cfg.CPU.Hier)
		aWith := critpath.New(prep.Trace, prep.Prof, cpCfg)
		cpCfg.BusOcc = 0
		aWithout := critpath.New(prep.Trace, prep.Prof, cpCfg)
		// The load with the most L2 misses (ties by PC): vortex has two
		// problem loads, and the metrics must not depend on which one a
		// map iteration happens to yield.
		problems := prep.Prof.ProblemLoads(cfg.ProblemCoverage, cfg.MinMisses)
		if len(problems) == 0 {
			b.Fatal("no problem loads")
		}
		pc := problems[0].PC
		withBus = aWith.CostCurve(pc).Gain[3]
		withoutBus = aWithout.CostCurve(pc).Gain[3]
	}
	b.ReportMetric(withBus, "per-miss-gain-with-bus")
	b.ReportMetric(withoutBus, "per-miss-gain-no-bus")
}

// BenchmarkAblationMerging compares spawn counts with the trigger-merging
// post-pass against disabling it by re-running selection per tree (every
// vpr.route neighbour gets its own p-thread without merging).
func BenchmarkAblationMerging(b *testing.B) {
	cfg := experiments.DefaultConfig()
	var merged int
	var targets int
	for i := 0; i < b.N; i++ {
		prep, err := experiments.Prepare(context.Background(), "vpr.route", program.Train, cfg)
		if err != nil {
			b.Fatal(err)
		}
		sel := pthsel.Select(prep.Trace, prep.Prof, prep.Trees, prep.Params, pthsel.TargetL)
		merged = len(sel.PThreads)
		targets = 0
		for _, pt := range sel.PThreads {
			targets += len(pt.Targets)
		}
	}
	b.ReportMetric(float64(merged), "pthreads-after-merge")
	b.ReportMetric(float64(targets), "targets-covered")
}
