// Benchmarks regenerating every table and figure of the paper's evaluation.
// Each benchmark runs the corresponding experiment end-to-end (profiling,
// selection, timing simulation) through a fresh Lab engine per iteration
// (cold artifact store, matching the paper's from-scratch evaluation) and
// reports the headline numbers as custom metrics, so
//
//	go test -bench=. -benchmem
//
// reproduces the paper's artifacts. Absolute magnitudes depend on the
// synthetic workload substitution; the orderings and signs are the
// reproduction targets recorded in EXPERIMENTS.md.
package preexec

import (
	"context"
	"fmt"
	"sync"
	"testing"
	"time"

	"bytes"

	"repro/internal/artifactdisk"
	"repro/internal/cpu"
	"repro/internal/experiments"
	"repro/internal/metrics"
	"repro/internal/program"
	"repro/internal/pthsel"
	"repro/internal/trace"
)

// fig3Gmeans runs the primary study for one target once per iteration on a
// cold engine (a single-target campaign, so only that target's simulations
// are timed) and reports its geometric-mean improvements.
func fig3Gmeans(b *testing.B, tgt Target) (spd, energy, ed float64) {
	b.Helper()
	ctx := context.Background()
	var rep *CampaignReport
	for i := 0; i < b.N; i++ {
		var err error
		rep, err = New().RunCampaign(ctx, PaperBenchmarks(), []Target{tgt})
		if err != nil {
			b.Fatal(err)
		}
		if err := rep.Err(); err != nil {
			b.Fatal(err)
		}
	}
	var s, e, d []float64
	for _, br := range rep.Benchmarks {
		for _, r := range br.Runs {
			s = append(s, r.SpeedupPct)
			e = append(e, r.EnergySavePct)
			d = append(d, r.EDSavePct)
		}
	}
	return metrics.GMeanPct(s), metrics.GMeanPct(e), metrics.GMeanPct(d)
}

// BenchmarkPrepareCold measures a full from-scratch preparation (trace,
// profile, slice trees, criticality curves, baseline simulation): every
// iteration uses a fresh Lab whose artifact store is empty.
func BenchmarkPrepareCold(b *testing.B) {
	ctx := context.Background()
	for i := 0; i < b.N; i++ {
		if _, err := New().AnalyzeBenchmark(ctx, "gap"); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.N), "prepares")
}

// BenchmarkPrepareCached measures the same entry point against a warm
// artifact store: one Lab serves every iteration, so the engine performs
// exactly one preparation regardless of b.N — the O(figures × benchmarks) →
// O(benchmarks) win of the Lab redesign, visible as ns/op several orders of
// magnitude below BenchmarkPrepareCold.
func BenchmarkPrepareCached(b *testing.B) {
	ctx := context.Background()
	lab := New()
	if _, err := lab.AnalyzeBenchmark(ctx, "gap"); err != nil {
		b.Fatal(err) // warm the store outside the timed loop
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := lab.AnalyzeBenchmark(ctx, "gap"); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(lab.StagePrepares(StagePrepared)), "prepares")
}

// BenchmarkFigure2Latency regenerates Figure 2's execution-time breakdowns
// (unoptimized vs original-PTHSEL pre-execution).
func BenchmarkFigure2Latency(b *testing.B) {
	ctx := context.Background()
	for i := 0; i < b.N; i++ {
		if _, err := New().Figure2(ctx, PaperBenchmarks()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFigure2Energy regenerates Figure 2's energy breakdowns; the
// reported metrics are the O-p-thread gmean speedup and energy cost (the
// paper: +13.8% performance at +11.9% energy).
func BenchmarkFigure2Energy(b *testing.B) {
	spd, energy, _ := fig3Gmeans(b, TargetO)
	b.ReportMetric(spd, "gmean-%ipc-O")
	b.ReportMetric(-energy, "gmean-%energy-cost-O")
}

// BenchmarkFigure3Improvements regenerates Figure 3's top graph for all four
// primary targets and reports the L-target gmeans (paper: +16.4% IPC,
// −8.7% energy, +6.6% ED).
func BenchmarkFigure3Improvements(b *testing.B) {
	ctx := context.Background()
	var rep *Figure3Report
	for i := 0; i < b.N; i++ {
		var err error
		rep, err = New().Figure3(ctx, PaperBenchmarks())
		if err != nil {
			b.Fatal(err)
		}
	}
	if len(rep.Render()) == 0 {
		b.Fatal("empty figure")
	}
	spd, energy, ed := fig3Gmeans(b, TargetL)
	b.ReportMetric(spd, "gmean-%ipc-L")
	b.ReportMetric(energy, "gmean-%energy-save-L")
	b.ReportMetric(ed, "gmean-%ED-save-L")
}

// BenchmarkFigure3Diagnostics reports the diagnostics row (coverage,
// usefulness, p-instruction increase) for E-p-threads — the paper's
// "energy-free pre-execution" flavour.
func BenchmarkFigure3Diagnostics(b *testing.B) {
	spd, energy, _ := fig3Gmeans(b, TargetE)
	b.ReportMetric(spd, "gmean-%ipc-E")
	b.ReportMetric(energy, "gmean-%energy-save-E")
}

// BenchmarkFigure3Breakdowns regenerates the bottom two graphs (time and
// energy stacks) and reports the P-target ED gmean (paper: −8.8% ED, the
// best balance).
func BenchmarkFigure3Breakdowns(b *testing.B) {
	spd, energy, ed := fig3Gmeans(b, TargetP)
	b.ReportMetric(spd, "gmean-%ipc-P")
	b.ReportMetric(energy, "gmean-%energy-save-P")
	b.ReportMetric(ed, "gmean-%ED-save-P")
}

// BenchmarkTable3Validation regenerates the model-validation ratios for
// L-p-threads on gcc/parser/vortex/vpr.place (paper: 0.64–1.21).
func BenchmarkTable3Validation(b *testing.B) {
	ctx := context.Background()
	var rep *Table3Report
	for i := 0; i < b.N; i++ {
		var err error
		rep, err = New().Table3(ctx, Table3Benchmarks())
		if err != nil {
			b.Fatal(err)
		}
	}
	var sum float64
	for _, r := range rep.Rows {
		sum += r.LatencyPred
	}
	b.ReportMetric(sum/float64(len(rep.Rows)), "mean-latency-pred-ratio")
}

// BenchmarkFigure4RealisticProfiling selects p-threads from ref-input
// profiles and measures on train (paper §5.3: gains degrade ≤20% relative
// for most benchmarks).
func BenchmarkFigure4RealisticProfiling(b *testing.B) {
	ctx := context.Background()
	for i := 0; i < b.N; i++ {
		if _, err := New().Figure4(ctx, PaperBenchmarks()); err != nil {
			b.Fatal(err)
		}
	}
}

func benchFigure5(b *testing.B, axis SweepAxis) {
	ctx := context.Background()
	for i := 0; i < b.N; i++ {
		if _, err := New().Figure5(ctx, axis, Figure5Benchmarks(axis)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFigure5IdleFactor sweeps the idle energy factor (0/5/10%).
func BenchmarkFigure5IdleFactor(b *testing.B) { benchFigure5(b, SweepIdleFactor) }

// BenchmarkFigure5MemLatency sweeps memory latency (100/200/300 cycles).
func BenchmarkFigure5MemLatency(b *testing.B) { benchFigure5(b, SweepMemLatency) }

// BenchmarkFigure5L2Size sweeps the L2 (128KB/256KB/512KB).
func BenchmarkFigure5L2Size(b *testing.B) { benchFigure5(b, SweepL2Size) }

// sweepGridFixture is the benchmark grid: the paper's idle-factor axis on
// the smallest benchmark, under the default sensitivity targets.
func sweepGridFixture() Grid {
	return Grid{Axes: []Axis{GridAxis(SweepIdleFactor)}, Benchmarks: []string{"gap"}}
}

// heavyStageBuilds counts the expensive upstream stage executions (trace,
// profile, slice trees) an engine has performed — the per-stage reuse
// observable cmd/benchgate gates.
func heavyStageBuilds(lab *Lab) int64 {
	return lab.StagePrepares(StageTrace) + lab.StagePrepares(StageProfile) + lab.StagePrepares(StageSlices)
}

// BenchmarkSweepGrid measures a 3-point single-axis sweep grid cold (fresh
// engine, every stage built once thanks to per-stage sharing) versus warm
// (every artifact cached; only the target measurements run). Both variants
// report grid-stage-builds — heavy stage executions per sweep — which is 3
// cold (one trace + one profile + one slice build for the benchmark) and
// must be exactly 0 warm: cmd/benchgate gates the warm column, so a
// regression that re-runs tracing, profiling or slicing for already-seen
// sweep points fails CI.
func BenchmarkSweepGrid(b *testing.B) {
	ctx := context.Background()
	grid := sweepGridFixture()
	b.Run("cold", func(b *testing.B) {
		var builds int64
		for i := 0; i < b.N; i++ {
			lab := New()
			if _, err := lab.Sweep(ctx, grid); err != nil {
				b.Fatal(err)
			}
			builds += heavyStageBuilds(lab)
		}
		b.ReportMetric(float64(builds)/float64(b.N), "grid-stage-builds")
	})
	b.Run("warm", func(b *testing.B) {
		lab := New()
		if _, err := lab.Sweep(ctx, grid); err != nil {
			b.Fatal(err) // warm every stage artifact outside the timed loop
		}
		start := heavyStageBuilds(lab)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := lab.Sweep(ctx, grid); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(float64(heavyStageBuilds(lab)-start)/float64(b.N), "grid-stage-builds")
	})
}

// BenchmarkSweepSched compares a cold multi-axis sweep under naive
// bench-major scheduling against the critical-path scheduler on the same
// grid: five benchmarks × all three sensitivity axes (27 points each),
// measured under the L target with a fixed 8-worker pool. The two sides run
// back to back on interleaved timers within each iteration, so
// machine-speed drift cancels out of the reported sweep-sched-gain ratio
// (naive / scheduled wall-clock; > 1 means the scheduler wins). cmd/benchgate gates that ratio at no worse
// than naive. Each side uses a fresh Lab (cold store), so the gain
// measured is pure ordering: starting the grid's long
// trace → profile → slices chains first and pre-building shared stages on
// idle workers instead of convoying every worker behind grid-order
// singleflight waits. The win requires real parallelism — on a single-core
// machine every order costs total-work time and the ratio sits at ~1.0 —
// which is why the committed benchgate floor carries a small noise margin.
func BenchmarkSweepSched(b *testing.B) {
	ctx := context.Background()
	grid := Grid{
		Axes: []Axis{GridAxis(SweepIdleFactor), GridAxis(SweepMemLatency),
			GridAxis(SweepL2Size)},
		Benchmarks: []string{"gap", "mcf", "parser", "twolf", "vortex"},
		Targets:    []Target{TargetL},
	}
	var naive, sched time.Duration
	for i := 0; i < b.N; i++ {
		start := time.Now()
		naiveLab := New(WithParallelism(8))
		naiveLab.run.SetScheduling(false)
		if _, err := naiveLab.Sweep(ctx, grid); err != nil {
			b.Fatal(err)
		}
		naive += time.Since(start)
		start = time.Now()
		if _, err := New(WithParallelism(8)).Sweep(ctx, grid); err != nil {
			b.Fatal(err)
		}
		sched += time.Since(start)
	}
	b.ReportMetric(naive.Seconds()/float64(b.N), "sweep-cold-naive-sec")
	b.ReportMetric(sched.Seconds()/float64(b.N), "sweep-cold-sched-sec")
	b.ReportMetric(naive.Seconds()/sched.Seconds(), "sweep-sched-gain")
}

// BenchmarkED2Target reproduces the §5.1 ED² discussion (P2 ≈ L; both
// improve ED² strongly).
func BenchmarkED2Target(b *testing.B) {
	ctx := context.Background()
	for i := 0; i < b.N; i++ {
		if _, err := New().ED2Study(ctx, PaperBenchmarks()); err != nil {
			b.Fatal(err)
		}
	}
}

// hotLoopWorkload is one prepared (trace, p-threads) pair for the hot-loop
// benchmark; preparation and selection run once per process, outside any
// timed region.
type hotLoopWorkload struct {
	trace    *trace.Trace
	pthreads []*cpu.PThread
}

var hotLoop struct {
	once      sync.Once
	cfg       experiments.Config
	workloads []hotLoopWorkload
	err       error
}

func hotLoopWorkloads(b *testing.B) []hotLoopWorkload {
	b.Helper()
	hotLoop.once.Do(func() {
		ctx := context.Background()
		hotLoop.cfg = experiments.DefaultConfig()
		// The gated corpus is the pinned paper nine: tests in this binary
		// may have registered generated workloads, which must not leak into
		// the benchgate baseline.
		for _, name := range program.PaperNames() {
			prep, err := experiments.Prepare(ctx, name, program.Train, hotLoop.cfg)
			if err != nil {
				hotLoop.err = err
				return
			}
			sel := pthsel.Select(prep.Trace, prep.Prof, prep.Trees, prep.Params, pthsel.TargetL)
			hotLoop.workloads = append(hotLoop.workloads, hotLoopWorkload{
				trace:    prep.Trace,
				pthreads: sel.PThreads,
			})
		}
	})
	if hotLoop.err != nil {
		b.Fatal(hotLoop.err)
	}
	return hotLoop.workloads
}

// simHotLoop times the cycle simulator's hot loop alone — no preparation,
// no selection — across the full benchmark suite with L-p-threads
// installed, under the given engine, reporting simulated cycles per
// wall-clock second. One simulator per workload is built and warmed outside
// the timed region, then reused through Reset every iteration, exactly like
// the Lab's per-worker reuse: with every pool fully grown, the timed loop
// performs zero allocations (ReportAllocs must read 0 allocs/op; benchgate
// gates this).
func simHotLoop(b *testing.B, engine cpu.Engine) {
	ctx := context.Background()
	workloads := hotLoopWorkloads(b)
	simCfg := hotLoop.cfg.CPU
	simCfg.Engine = engine
	sims := make([]*cpu.Simulator, len(workloads))
	for i, wl := range workloads {
		s, err := cpu.NewSimulator(simCfg, wl.trace, wl.pthreads)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := s.RunContext(ctx); err != nil {
			b.Fatal(err) // warm-up run grows every internal pool
		}
		sims[i] = s
	}
	b.ReportAllocs()
	b.ResetTimer()
	var cycles int64
	for i := 0; i < b.N; i++ {
		for j, wl := range workloads {
			s := sims[j]
			if err := s.Reset(simCfg, wl.trace, wl.pthreads); err != nil {
				b.Fatal(err)
			}
			res, err := s.RunContext(ctx)
			if err != nil {
				b.Fatal(err)
			}
			cycles += res.Cycles
		}
	}
	b.ReportMetric(float64(cycles)/b.Elapsed().Seconds(), "sim-cycles/s")
}

// BenchmarkSimHotLoop compares the event-driven wakeup scheduler against
// the reference per-cycle scan engine on the same prepared workloads (every
// paper benchmark, L-target p-threads installed). The event/scan
// sim-cycles/s ratio is the tentpole speedup that cmd/benchgate gates in CI
// (required: >= 1.5x), and the event engine's steady-state allocation rate
// is gated at 0 allocs/op.
func BenchmarkSimHotLoop(b *testing.B) {
	b.Run("event", func(b *testing.B) { simHotLoop(b, cpu.EngineEvent) })
	b.Run("scan", func(b *testing.B) { simHotLoop(b, cpu.EngineScan) })
}

// BenchmarkFigureSuite regenerates the paper's full figure suite (Figures
// 2-5, Table 3 and the ED² study) through one shared Lab engine per
// iteration — the end-to-end number a full reproduction pays, dominated by
// simulation throughput. cmd/benchgate records it in BENCH_sim.json.
func BenchmarkFigureSuite(b *testing.B) {
	ctx := context.Background()
	for i := 0; i < b.N; i++ {
		lab := New()
		if _, err := lab.Figure2(ctx, PaperBenchmarks()); err != nil {
			b.Fatal(err)
		}
		if _, err := lab.Figure3(ctx, PaperBenchmarks()); err != nil {
			b.Fatal(err)
		}
		if _, err := lab.Table3(ctx, Table3Benchmarks()); err != nil {
			b.Fatal(err)
		}
		if _, err := lab.Figure4(ctx, PaperBenchmarks()); err != nil {
			b.Fatal(err)
		}
		for _, axis := range []SweepAxis{SweepIdleFactor, SweepMemLatency, SweepL2Size} {
			if _, err := lab.Figure5(ctx, axis, Figure5Benchmarks(axis)); err != nil {
				b.Fatal(err)
			}
		}
		if _, err := lab.ED2Study(ctx, PaperBenchmarks()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSimulatorThroughput measures raw simulator speed (simulated
// cycles per wall-clock second) on the gap baseline — a substrate-health
// metric rather than a paper artifact.
func BenchmarkSimulatorThroughput(b *testing.B) {
	ctx := context.Background()
	cfg := experiments.DefaultConfig()
	prep, err := experiments.Prepare(ctx, "gap", program.Train, cfg)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	var cycles int64
	for i := 0; i < b.N; i++ {
		run, err := experiments.RunTarget(ctx, prep, prep, pthsel.TargetL, cfg)
		if err != nil {
			b.Fatal(err)
		}
		cycles += run.Res.Cycles
	}
	b.ReportMetric(float64(cycles)/b.Elapsed().Seconds(), "sim-cycles/s")
}

// BenchmarkTraceSpill times the two warm trace-load paths against each
// other over the paper suite's spilled traces: the heap path (container
// read, chunk-parallel checksum and column copy into fresh chunks, as on a
// platform without mmap) versus the zero-copy mapped path (mmap,
// chunk-parallel checksum + PC-range verify, columns aliasing the mapping).
// Both read the same aligned spill file, and both sides run back to back
// per iteration so machine-speed drift cancels out of the reported
// spill-map-gain ratio, which cmd/benchgate gates (MinSpillMapGain).
func BenchmarkTraceSpill(b *testing.B) {
	if !artifactdisk.MapSupported() {
		b.Skip("platform cannot map files")
	}
	workloads := hotLoopWorkloads(b)
	store, err := artifactdisk.Open(b.TempDir(), 0)
	if err != nil {
		b.Fatal(err)
	}
	keys := make([]artifactdisk.Key, len(workloads))
	for i, wl := range workloads {
		keys[i] = artifactdisk.Key{Name: fmt.Sprintf("wl%d", i), Input: "train", Stage: "trace", FP: "fp"}
		var buf bytes.Buffer
		if err := wl.trace.EncodeBinaryV2(&buf); err != nil {
			b.Fatal(err)
		}
		if err := store.SaveAligned(keys[i], buf.Bytes()); err != nil {
			b.Fatal(err)
		}
	}
	b.ResetTimer()
	var loadT, mapT time.Duration
	for i := 0; i < b.N; i++ {
		for j, wl := range workloads {
			start := time.Now()
			data, ok := store.Load(keys[j])
			if !ok {
				b.Fatal("heap load missed")
			}
			if _, err := trace.DecodeBinaryV2(data, wl.trace.Prog); err != nil {
				b.Fatal(err)
			}
			loadT += time.Since(start)
			start = time.Now()
			m, ok := store.LoadMapped(keys[j])
			if !ok {
				b.Fatal("mapped load missed")
			}
			if _, _, err := trace.MapBytes(m.Payload(), wl.trace.Prog); err != nil {
				b.Fatal(err)
			}
			// The unmap is untimed: production retains the mapping for the
			// engine's lifetime, so teardown is not part of the load path.
			mapT += time.Since(start)
			m.Close()
		}
	}
	b.ReportMetric(loadT.Seconds()/float64(b.N), "trace-spill-load-sec")
	b.ReportMetric(mapT.Seconds()/float64(b.N), "trace-spill-map-sec")
	b.ReportMetric(loadT.Seconds()/mapT.Seconds(), "spill-map-gain")
}
