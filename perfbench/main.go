// Command perfbench is the repository's benchmark. It drives three seeded
// workloads through the public API — the preexec Lab and the in-process lab
// daemon over httptest — checks every report they produce, and prints the
// end-to-end metrics (tracing off) or, with -trace 1, the per-layer metrics
// of a traced run. Build and run it from the repository root through the
// wrapper, which compiles it from the checkout's sources:
//
//	bash perfbench/run.sh --workload figures-cold --seed 1 --seconds 20 --trace 0
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics; the lines before it are the
// environment-stamped record and a human-readable table. See README.md for
// the workloads, the metrics and their measured spread.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"
)

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the final line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	name := flag.String("workload", "", "workload: figures-cold, grid-warm or labd-mix")
	seed := flag.Uint64("seed", 1, "input seed (README.md names the default and the held-out seed)")
	seconds := flag.Float64("seconds", 20, "measurement time; whole repetitions run until it is used up")
	traced := flag.Int("trace", 0, "0: end-to-end metrics, tracing off; 1: traced run with per-layer metrics")
	out := flag.String("out", ".bench_build/perfbench", "directory for scratch stores and trace files")
	flag.Parse()

	w, ok := workloads[*name]
	if !ok || *seconds <= 0 || (*traced != 0 && *traced != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: usage: -workload {figures-cold|grid-warm|labd-mix} -seed n -seconds s -trace {0|1}")
		os.Exit(2)
	}
	if err := os.MkdirAll(*out, 0o777); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	work, err := os.MkdirTemp(*out, "run-")
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	defer os.RemoveAll(work)

	b := &bench{seed: *seed, seconds: *seconds, work: work, out: *out, workers: w.workers,
		verify: newVerifier(*name, *seed)}
	var res *result
	if *traced == 1 {
		res, err = runTraced(context.Background(), b, w)
	} else {
		res, err = runMeasured(context.Background(), b, w)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.RemoveAll(work)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.RemoveAll(work)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

// bench is one invocation's settings.
type bench struct {
	seed    uint64
	seconds float64
	work    string // scratch directory, removed at exit
	out     string // persistent output directory (trace files)
	workers int
	verify  *verifier
}

// scratch returns a fresh directory under the invocation's scratch area.
func (b *bench) scratch(prefix string) (string, error) {
	return os.MkdirTemp(b.work, prefix)
}

// workload is one benchmark scenario. setup builds whatever the workload
// treats as already warm; rep performs one repetition of its fixed work
// and reports what it measured and checked. A nil tracer means tracing off.
type workload struct {
	workers int
	// setups is how many times a measured run sets up; setup_s is their
	// median and the last one is used.
	setups int
	setup  func(ctx context.Context, b *bench) (state, error)
	rep    func(ctx context.Context, b *bench, st state, i int, tr *tracer) (*repOut, error)
}

// state is a workload's warm state. close releases it.
type state interface{ close() }

var workloads = map[string]*workload{
	"figures-cold": figuresCold,
	"grid-warm":    gridWarm,
	"labd-mix":     labdMix,
}

// repOut is what one repetition measured and checked.
type repOut struct {
	wall   time.Duration
	lats   []float64 // per-operation latency, seconds
	ops    int       // operations attempted
	opFail int       // operations that errored
	checks []check   // output checks
	cycles int64     // simulated cycles in the repetition's reports
	render time.Duration
	store  storeCounts
	labd   []labdTiming // labd-mix only
	// outputs are values checked only where expect.json commits them,
	// because the inputs behind them change with every repetition.
	outputs map[string]string
}

// storeCounts is the artifact store's request outcomes over one
// repetition, summed over stages.
type storeCounts struct {
	Cold, Hit, Shared, Spill int64
}

// ---------------------------------------------------------------- run --

// runMeasured is the untraced run: set up several times, repeat the
// workload's fixed work until the measurement time is used up, and report
// medians.
func runMeasured(ctx context.Context, b *bench, w *workload) (*result, error) {
	var setups []float64
	var st state
	for i := 0; i < w.setups; i++ {
		if st != nil {
			st.close()
			st = nil
			runtime.GC()
		}
		start := time.Now()
		s, err := w.setup(ctx, b)
		if err != nil {
			return nil, fmt.Errorf("setup: %w", err)
		}
		setups = append(setups, time.Since(start).Seconds())
		st = s
	}
	defer st.close()

	var reps []*repOut
	var cpus, rss []float64
	begin := time.Now()
	for i := 0; len(reps) == 0 || time.Since(begin).Seconds() < b.seconds; i++ {
		runtime.GC() // every repetition starts from a collected heap
		c0 := cpuSeconds()
		r, peak, err := peakRSSDuring(func() (*repOut, error) { return w.rep(ctx, b, st, i, nil) })
		if err != nil {
			return nil, fmt.Errorf("repetition %d: %w", i, err)
		}
		cpus = append(cpus, cpuSeconds()-c0)
		rss = append(rss, peak)
		reps = append(reps, r)
	}
	heap := liveHeapMB()
	runtime.KeepAlive(st)

	var walls, mcps, p50s, p95s []float64
	attempted, failed := 0, 0
	for _, r := range reps {
		walls = append(walls, r.wall.Seconds())
		mcps = append(mcps, float64(r.cycles)/r.wall.Seconds()/1e6)
		p50s = append(p50s, quantile(r.lats, 0.50))
		p95s = append(p95s, quantile(r.lats, 0.95))
		attempted += r.ops + len(r.checks)
		failed += r.opFail + failedChecks(r.checks)
	}
	m := map[string]metric{
		"wall_s":       {median(walls), "s"},
		"setup_s":      {median(setups), "s"},
		"sim_mcps":     {median(mcps), "Mcycles/s"},
		"p50_s":        {median(p50s), "s"},
		"p95_s":        {median(p95s), "s"},
		"heap_live_mb": {heap, "MB"},
		"rss_peak_mb":  {median(rss), "MB"},
	}
	record(b, "measured", m, map[string]any{
		"reps":        len(reps),
		"rep_wall_s":  walls,
		"setup_runs":  setups,
		"latency_n":   len(reps[0].lats),
		"rep_p50_s":   p50s,
		"rep_p95_s":   p95s,
		"rep_cpu_s":   cpus,
		"rep_rss_mb":  rss,
		"rep_outputs": repOutputs(reps),
		"fail_ratio":  float64(failed) / float64(attempted),
		"checks":      checkSummary(reps),
		"store_delta": reps[len(reps)-1].store,
		"sim_cycles":  reps[len(reps)-1].cycles,
	})
	printTable(m, float64(failed)/float64(attempted), attempted, failed)
	return &result{Correct: failed == 0, Attempted: attempted, Failed: failed, Metrics: m}, nil
}

// ---------------------------------------------------------- reporting --

// repOutputs lists, per repetition, every output value it produced, as
// expect.json would commit them.
func repOutputs(reps []*repOut) []map[string]string {
	out := make([]map[string]string, len(reps))
	for i, r := range reps {
		out[i] = map[string]string{}
		for _, c := range r.checks {
			out[i][c.Name] = c.Got
		}
		for k, v := range r.outputs {
			out[i][k] = v
		}
	}
	return out
}

// record prints the environment-stamped record of this invocation as one
// JSON line and appends it to records.jsonl in the output directory.
func record(b *bench, mode string, m map[string]metric, extra map[string]any) {
	rec := map[string]any{"mode": mode, "env": stamp(b), "metrics": m}
	for k, v := range extra {
		rec[k] = v
	}
	line, err := json.Marshal(rec)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: record:", err)
		return
	}
	fmt.Println(string(line))
	f, err := os.OpenFile(filepath.Join(b.out, "records.jsonl"), os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o666)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: record:", err)
		return
	}
	defer f.Close()
	if _, err := f.Write(append(line, '\n')); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: record:", err)
	}
}

func printTable(m map[string]metric, failRatio float64, attempted, failed int) {
	names := make([]string, 0, len(m))
	for n := range m {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Printf("%-14s %14.6f %s\n", n, m[n].Value, m[n].Unit)
	}
	fmt.Printf("%-14s %14.6f %s (%d of %d operations and checks failed)\n", "fail_ratio", failRatio, "ratio", failed, attempted)
}

// ------------------------------------------------------------ helpers --

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quantile is the linearly interpolated q-quantile of xs (0 when empty).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

// liveHeapMB is the Go heap still allocated after two back-to-back
// collections: one collection leaves sync.Pool's victim cache alive.
func liveHeapMB() float64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}
