// Command benchgate runs the simulator benchmark suite, writes the measured
// numbers to BENCH_sim.json (the CI artifact), and gates the build against a
// committed baseline:
//
//   - the event-engine hot-loop throughput (sim-cycles/s) must not regress
//     more than -tolerance (default 15%) below the baseline file,
//   - the event/scan engine speedup must stay at or above the baseline's
//     MinSpeedup (the PR 2 tentpole's machine-independent >= 1.5x
//     requirement), and
//   - the event engine's steady-state allocation rate must not exceed the
//     baseline's MaxEventAllocsPerOp / MaxEventBytesPerOp (0 since the
//     zero-allocation run-reuse tentpole: one Reset+run over the full suite
//     allocates nothing), and
//   - a warm 3-point sweep grid must not perform more heavy stage builds
//     (trace/profile/slice-tree executions) than the baseline's
//     MaxWarmGridStageBuilds (0 since the staged-pipeline tentpole: warm
//     sweep points reuse every cached upstream artifact), and
//   - the critical-path scheduler's paired cold-sweep gain on the 3-axis
//     grid (BenchmarkSweepSched, naive and scheduled sides interleaved per
//     iteration) must stay at or above the baseline's MinSweepSchedGain
//     (machine-independent; 1.0 = scheduling must never lose to naive
//     grid order), and
//   - the mapped trace-spill load (BenchmarkTraceSpill, heap decode and
//     mapped open+verify of the same spill file interleaved per iteration
//     so drift cancels) must stay at or above the baseline's
//     MinSpillMapGain over the heap decode (machine-independent).
//
// Usage:
//
//	go run ./cmd/benchgate                 # measure + gate against testdata/bench_baseline.json
//	go run ./cmd/benchgate -update         # refresh the baseline from this machine
//
// The refresh procedure is documented in EXPERIMENTS.md: -update records
// this machine's measured throughput verbatim (and the measured allocation
// columns, which are machine-independent); when refreshing the committed
// baseline for heterogeneous CI runners, scale EventCyclesPerSec down (the
// repo commits ~50% of a reference run) so the 15% gate trips on real
// regressions rather than on runner lottery.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"strconv"
	"strings"
)

// Report is the BENCH_sim.json artifact schema.
type Report struct {
	EventCyclesPerSec float64 // BenchmarkSimHotLoop/event sim-cycles/s
	ScanCyclesPerSec  float64 // BenchmarkSimHotLoop/scan sim-cycles/s
	Speedup           float64 // event / scan
	EventAllocsPerOp  float64 // steady-state allocations per full-suite op (event engine)
	EventBytesPerOp   float64 // steady-state bytes allocated per full-suite op

	// Trace spill columns (BenchmarkTraceSpill): seconds per warm load of
	// the full paper suite's spilled traces through the heap path (read +
	// chunk-parallel verify and column copy) vs the zero-copy mapped path
	// (mmap + chunk verify, columns aliasing the mapping). The two sides run back to back per iteration, so the gated
	// SpillMapGain ratio (load / map) is robust to machine drift.
	TraceSpillLoadSec float64
	TraceSpillMapSec  float64
	SpillMapGain      float64

	// Sweep grid columns (BenchmarkSweepGrid): seconds per 3-point
	// single-axis sweep, cold (fresh engine) vs warm (every stage
	// artifact cached), plus the heavy stage executions (trace + profile
	// + slice builds) each performs. Warm builds are the gated column:
	// the staged pipeline guarantees 0.
	SweepColdSec        float64
	SweepWarmSec        float64
	ColdGridStageBuilds float64
	WarmGridStageBuilds float64

	// Scheduler columns (BenchmarkSweepSched): seconds per cold 3-axis
	// 27-point sweep over three benchmarks under naive bench-major order
	// vs the critical-path scheduler, paired on interleaved timers within
	// each iteration so machine drift cancels out of SweepSchedGain
	// (naive / scheduled; > 1 means the scheduler wins). The gain ratio is
	// the gated column: the scheduler must never be slower than naive.
	SweepColdNaiveSec float64
	SweepColdSchedSec float64
	SweepSchedGain    float64
}

// Baseline is the committed gate (testdata/bench_baseline.json).
type Baseline struct {
	// EventCyclesPerSec is the throughput floor reference; the gate fails
	// when the measured value drops more than the tolerance below it.
	EventCyclesPerSec float64
	// MinSpeedup is the required event/scan ratio (machine-independent).
	MinSpeedup float64
	// MaxEventAllocsPerOp and MaxEventBytesPerOp cap the event engine's
	// steady-state allocation rate (machine-independent; 0 = the hot loop
	// must be allocation-free under simulator reuse).
	MaxEventAllocsPerOp float64
	MaxEventBytesPerOp  float64
	// MaxWarmGridStageBuilds caps the heavy stage executions (trace +
	// profile + slice builds) a warm 3-point sweep grid may perform
	// (machine-independent; 0 = warm sweep points must reuse every cached
	// upstream artifact — the staged-pipeline contract).
	MaxWarmGridStageBuilds float64
	// MinSweepSchedGain is the required paired naive/scheduled cold-sweep
	// wall-clock ratio (machine-independent; 1.0 = the critical-path
	// scheduler must be no worse than naive grid order on the 3-axis grid).
	MinSweepSchedGain float64
	// MinSpillMapGain is the required paired heap-decode/mapped-open ratio
	// for warm trace spill loads (machine-independent; the zero-copy mapped
	// path must load the paper suite's traces at least this much faster
	// than the heap decode of the same file).
	MinSpillMapGain float64
	Note            string `json:",omitempty"`
}

func main() {
	baselinePath := flag.String("baseline", "testdata/bench_baseline.json", "committed baseline file")
	outPath := flag.String("out", "BENCH_sim.json", "where to write the measured report")
	tolerance := flag.Float64("tolerance", 0.15, "allowed fractional throughput regression")
	benchtime := flag.String("benchtime", "5x", "go test -benchtime for the hot loop")
	update := flag.Bool("update", false, "rewrite the baseline from this run instead of gating")
	flag.Parse()

	rep := Report{}
	// The ratio-gated event/scan columns are measured -count 3 and
	// aggregated best-of per column: on shared runners a single sample of
	// either side can swing ±20% from CPU steal, which would trip (or mask)
	// a ratio gate; the best observed throughput of each column is the
	// standard noise-resistant estimator.
	hot, err := goTestBench("BenchmarkSimHotLoop", *benchtime, 3)
	if err != nil {
		fatal("hot loop benchmark: %v", err)
	}
	event := hot["BenchmarkSimHotLoop/event"]
	rep.EventCyclesPerSec = event.metric
	rep.ScanCyclesPerSec = hot["BenchmarkSimHotLoop/scan"].metric
	if rep.EventCyclesPerSec <= 0 || rep.ScanCyclesPerSec <= 0 {
		fatal("missing sim-cycles/s metrics in benchmark output")
	}
	rep.Speedup = rep.EventCyclesPerSec / rep.ScanCyclesPerSec
	rep.EventAllocsPerOp = event.allocsPerOp
	rep.EventBytesPerOp = event.bytesPerOp

	grid, err := goTestBench("BenchmarkSweepGrid", "1x", 1)
	if err != nil {
		fatal("sweep grid benchmark: %v", err)
	}
	cold, warm := grid["BenchmarkSweepGrid/cold"], grid["BenchmarkSweepGrid/warm"]
	rep.SweepColdSec = cold.nsPerOp / 1e9
	rep.SweepWarmSec = warm.nsPerOp / 1e9
	rep.ColdGridStageBuilds = cold.gridStageBuilds
	rep.WarmGridStageBuilds = warm.gridStageBuilds
	if rep.ColdGridStageBuilds <= 0 {
		fatal("missing grid-stage-builds metric in sweep grid benchmark output")
	}
	// The warm sub-benchmark is the gated one, and its expected metric is 0,
	// so "missing from the output" must not masquerade as a pass.
	if rep.SweepWarmSec <= 0 {
		fatal("missing warm sweep grid benchmark output (BenchmarkSweepGrid/warm)")
	}

	// The scheduler comparison is paired: naive and scheduled cold sweeps
	// of the same 3-axis grid interleave within each iteration, so the gain
	// ratio is robust to drift; best-of over repeats, because a
	// single sample's ratio carries per-run noise the pairing cannot cancel.
	sched, err := goTestBench("BenchmarkSweepSched", "1x", 3)
	if err != nil {
		fatal("sweep scheduler benchmark: %v", err)
	}
	ss := sched["BenchmarkSweepSched"]
	rep.SweepColdNaiveSec = ss.sweepNaiveSec
	rep.SweepColdSchedSec = ss.sweepSchedSec
	rep.SweepSchedGain = ss.sweepSchedGain
	if rep.SweepSchedGain <= 0 {
		fatal("missing sweep-sched-gain metric in scheduler benchmark output")
	}

	// The spill comparison pairs its two sides per iteration like the
	// scheduler gate; best-of over repeats for the same reason.
	spill, err := goTestBench("BenchmarkTraceSpill", "10x", 3)
	if err != nil {
		fatal("trace spill benchmark: %v", err)
	}
	sp := spill["BenchmarkTraceSpill"]
	rep.TraceSpillLoadSec = sp.spillLoadSec
	rep.TraceSpillMapSec = sp.spillMapSec
	rep.SpillMapGain = sp.spillMapGain
	if rep.SpillMapGain <= 0 {
		fatal("missing spill-map-gain metric in trace spill benchmark output")
	}

	raw, _ := json.MarshalIndent(rep, "", "  ")
	raw = append(raw, '\n')
	if err := os.WriteFile(*outPath, raw, 0o644); err != nil {
		fatal("write %s: %v", *outPath, err)
	}
	fmt.Printf("benchgate: event %.0f sim-cycles/s (%.0f allocs/op, %.0f B/op), scan %.0f sim-cycles/s, speedup %.2fx\n",
		rep.EventCyclesPerSec, rep.EventAllocsPerOp, rep.EventBytesPerOp, rep.ScanCyclesPerSec, rep.Speedup)
	fmt.Printf("benchgate: sweep grid cold %.2fs (%.0f stage builds), warm %.2fs (%.0f stage builds)\n",
		rep.SweepColdSec, rep.ColdGridStageBuilds, rep.SweepWarmSec, rep.WarmGridStageBuilds)
	fmt.Printf("benchgate: 3-axis cold sweep naive %.2fs, scheduled %.2fs, paired gain %.2fx\n",
		rep.SweepColdNaiveSec, rep.SweepColdSchedSec, rep.SweepSchedGain)
	fmt.Printf("benchgate: trace spill heap decode %.4fs, mapped open %.4fs, paired gain %.2fx\n",
		rep.TraceSpillLoadSec, rep.TraceSpillMapSec, rep.SpillMapGain)

	if *update {
		b := Baseline{
			EventCyclesPerSec:      rep.EventCyclesPerSec,
			MinSpeedup:             1.5,
			MaxEventAllocsPerOp:    rep.EventAllocsPerOp,
			MaxEventBytesPerOp:     rep.EventBytesPerOp,
			MaxWarmGridStageBuilds: rep.WarmGridStageBuilds,
			MinSweepSchedGain:      1.0,
			MinSpillMapGain:        3.0,
			Note:                   "measured by cmd/benchgate -update; scale EventCyclesPerSec down for heterogeneous CI runners (see EXPERIMENTS.md)",
		}
		braw, _ := json.MarshalIndent(b, "", "  ")
		braw = append(braw, '\n')
		if err := os.WriteFile(*baselinePath, braw, 0o644); err != nil {
			fatal("write %s: %v", *baselinePath, err)
		}
		fmt.Printf("benchgate: baseline refreshed at %s\n", *baselinePath)
		return
	}

	braw, err := os.ReadFile(*baselinePath)
	if err != nil {
		fatal("read baseline: %v (run with -update to create one)", err)
	}
	var base Baseline
	if err := json.Unmarshal(braw, &base); err != nil {
		fatal("parse baseline: %v", err)
	}
	floor := base.EventCyclesPerSec * (1 - *tolerance)
	if rep.EventCyclesPerSec < floor {
		fatal("throughput regression: event engine %.0f sim-cycles/s < floor %.0f (baseline %.0f - %.0f%%)",
			rep.EventCyclesPerSec, floor, base.EventCyclesPerSec, *tolerance*100)
	}
	if base.MinSpeedup > 0 && rep.Speedup < base.MinSpeedup {
		fatal("speedup regression: event/scan %.2fx < required %.2fx", rep.Speedup, base.MinSpeedup)
	}
	// Allocation gates are exact, not tolerance-scaled: the baseline commits
	// 0, and any steady-state allocation in the reused hot loop is a
	// regression of the zero-allocation contract.
	if rep.EventAllocsPerOp > base.MaxEventAllocsPerOp {
		fatal("allocation regression: event engine %.0f allocs/op > allowed %.0f (steady-state sim reuse must not allocate)",
			rep.EventAllocsPerOp, base.MaxEventAllocsPerOp)
	}
	if rep.EventBytesPerOp > base.MaxEventBytesPerOp {
		fatal("allocation regression: event engine %.0f B/op > allowed %.0f",
			rep.EventBytesPerOp, base.MaxEventBytesPerOp)
	}
	// The warm-grid gate is exact, like the allocation gates: a warm sweep
	// point re-running tracing, profiling or slicing breaks the staged
	// pipeline's reuse contract regardless of how fast the machine is.
	if rep.WarmGridStageBuilds > base.MaxWarmGridStageBuilds {
		fatal("stage-reuse regression: warm sweep grid performed %.0f heavy stage builds > allowed %.0f (warm points must reuse cached trace/profile/slices)",
			rep.WarmGridStageBuilds, base.MaxWarmGridStageBuilds)
	}
	if base.MinSweepSchedGain > 0 && rep.SweepSchedGain < base.MinSweepSchedGain {
		fatal("scheduler regression: paired cold-sweep gain %.2fx < required %.2fx (critical-path scheduling must be no worse than naive grid order)",
			rep.SweepSchedGain, base.MinSweepSchedGain)
	}
	if base.MinSpillMapGain > 0 && rep.SpillMapGain < base.MinSpillMapGain {
		fatal("spill regression: paired mapped trace-load gain %.2fx < required %.2fx (the zero-copy mapped path must beat the heap decode)",
			rep.SpillMapGain, base.MinSpillMapGain)
	}
	fmt.Printf("benchgate: PASS (floor %.0f sim-cycles/s, min speedup %.2fx, max %.0f allocs/op, max %.0f warm grid stage builds, min sched gain %.2fx, min spill map gain %.2fx)\n",
		floor, base.MinSpeedup, base.MaxEventAllocsPerOp, base.MaxWarmGridStageBuilds, base.MinSweepSchedGain, base.MinSpillMapGain)
}

type benchLine struct {
	nsPerOp         float64
	metric          float64 // the benchmark's custom sim-cycles/s metric, if reported
	gridStageBuilds float64 // BenchmarkSweepGrid's grid-stage-builds metric
	sweepNaiveSec   float64 // BenchmarkSweepSched's sweep-cold-naive-sec metric
	sweepSchedSec   float64 // BenchmarkSweepSched's sweep-cold-sched-sec metric
	sweepSchedGain  float64 // BenchmarkSweepSched's paired sweep-sched-gain ratio
	spillLoadSec    float64 // BenchmarkTraceSpill's trace-spill-load-sec metric
	spillMapSec     float64 // BenchmarkTraceSpill's trace-spill-map-sec metric
	spillMapGain    float64 // BenchmarkTraceSpill's paired spill-map-gain ratio
	bytesPerOp      float64 // -benchmem B/op
	allocsPerOp     float64 // -benchmem allocs/op
}

// goTestBench executes one `go test -bench` selection and parses its result
// lines into name -> {ns/op, sim-cycles/s, B/op, allocs/op}. With count >
// 1, repeated lines per benchmark are folded best-of for the speed columns
// (max throughput, min ns/op) and worst-of for the gated allocation and
// stage-build columns.
func goTestBench(pattern, benchtime string, count int) (map[string]benchLine, error) {
	cmd := exec.Command("go", "test", "-run", "^$", "-bench", "^"+pattern+"$",
		"-benchtime", benchtime, "-count", strconv.Itoa(count), "-benchmem", ".")
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("%v\n%s", err, out)
	}
	res := map[string]benchLine{}
	for _, line := range strings.Split(string(out), "\n") {
		fields := strings.Fields(line)
		if len(fields) < 4 || !strings.HasPrefix(fields[0], "Benchmark") {
			continue
		}
		// "BenchmarkName/sub-8  N  123 ns/op  456 sim-cycles/s  0 B/op  0 allocs/op"
		name := fields[0]
		if i := strings.LastIndex(name, "-"); i > 0 {
			name = name[:i] // strip the GOMAXPROCS suffix
		}
		var bl benchLine
		for i := 2; i+1 < len(fields); i += 2 {
			v, err := strconv.ParseFloat(fields[i], 64)
			if err != nil {
				continue
			}
			switch fields[i+1] {
			case "ns/op":
				bl.nsPerOp = v
			case "sim-cycles/s":
				bl.metric = v
			case "grid-stage-builds":
				bl.gridStageBuilds = v
			case "sweep-cold-naive-sec":
				bl.sweepNaiveSec = v
			case "sweep-cold-sched-sec":
				bl.sweepSchedSec = v
			case "sweep-sched-gain":
				bl.sweepSchedGain = v
			case "trace-spill-load-sec":
				bl.spillLoadSec = v
			case "trace-spill-map-sec":
				bl.spillMapSec = v
			case "spill-map-gain":
				bl.spillMapGain = v
			case "B/op":
				bl.bytesPerOp = v
			case "allocs/op":
				bl.allocsPerOp = v
			}
		}
		if prev, ok := res[name]; ok {
			bl.metric = max(bl.metric, prev.metric)
			bl.nsPerOp = min(bl.nsPerOp, prev.nsPerOp)
			bl.allocsPerOp = max(bl.allocsPerOp, prev.allocsPerOp)
			bl.bytesPerOp = max(bl.bytesPerOp, prev.bytesPerOp)
			bl.gridStageBuilds = max(bl.gridStageBuilds, prev.gridStageBuilds)
			bl.sweepNaiveSec = min(bl.sweepNaiveSec, prev.sweepNaiveSec)
			bl.sweepSchedSec = min(bl.sweepSchedSec, prev.sweepSchedSec)
			bl.sweepSchedGain = max(bl.sweepSchedGain, prev.sweepSchedGain)
			bl.spillLoadSec = min(bl.spillLoadSec, prev.spillLoadSec)
			bl.spillMapSec = min(bl.spillMapSec, prev.spillMapSec)
			bl.spillMapGain = max(bl.spillMapGain, prev.spillMapGain)
		}
		res[name] = bl
	}
	return res, nil
}

func fatal(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "benchgate: "+format+"\n", args...)
	os.Exit(1)
}
