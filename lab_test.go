package preexec

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
	"time"
)

var updateGolden = flag.Bool("update", false, "rewrite golden files")

// longWorkload builds a memory-bound gather loop big enough that its
// baseline simulation takes several wall-clock seconds — long enough to
// observe mid-simulation cancellation.
func longWorkload(iters int64) *Program {
	b := NewBuilder("longloop")
	const rI, rN, rA, rV, rC = Reg(1), Reg(2), Reg(3), Reg(4), Reg(5)
	b.MovI(rI, 0)
	b.MovI(rN, iters)
	b.Label("top")
	b.MulI(rA, rI, 40503)
	b.AndI(rA, rA, (1<<18)-1)
	b.ShlI(rA, rA, 3)
	b.Load(rV, rA, 0)
	b.AddI(rI, rI, 1)
	b.CmpLT(rC, rI, rN)
	b.BrNZ(rC, "top")
	b.Halt()
	b.SetMem(make([]int64, 1<<18))
	return b.MustBuild()
}

// TestLabCancellationMidSimulation starts an Analyze whose baseline
// simulation alone would run for several seconds, cancels it shortly after
// launch, and requires a prompt ctx.Err() return.
func TestLabCancellationMidSimulation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	lab := New()
	prog := longWorkload(200_000)

	type outcome struct {
		err     error
		elapsed time.Duration
	}
	done := make(chan outcome, 1)
	start := time.Now()
	go func() {
		_, err := lab.Analyze(ctx, prog)
		done <- outcome{err, time.Since(start)}
	}()
	time.Sleep(100 * time.Millisecond)
	cancel()

	select {
	case out := <-done:
		if !errors.Is(out.err, context.Canceled) {
			t.Fatalf("Analyze returned %v, want context.Canceled", out.err)
		}
		if out.elapsed > 5*time.Second {
			t.Errorf("cancellation took %v, want prompt return", out.elapsed)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("Analyze did not return after cancellation")
	}

	// A pre-cancelled context must short-circuit every entry point.
	if _, err := lab.AnalyzeBenchmark(ctx, "gap"); !errors.Is(err, context.Canceled) {
		t.Errorf("AnalyzeBenchmark on cancelled ctx: %v", err)
	}
	if _, err := lab.Figure2(ctx, []string{"gap"}); !errors.Is(err, context.Canceled) {
		t.Errorf("Figure2 on cancelled ctx: %v", err)
	}
}

// TestLabSharesPreparations is the prepare-count probe of the acceptance
// criteria: two different figure entry points over the same benchmark
// through one Lab must prepare it exactly once.
func TestLabSharesPreparations(t *testing.T) {
	ctx := context.Background()
	var events []Event
	lab := New(WithObserver(func(ev Event) { events = append(events, ev) }))
	names := []string{"gap"}

	if _, err := lab.Figure2(ctx, names); err != nil {
		t.Fatal(err)
	}
	afterFirst := lab.StagePrepares(StagePrepared)
	if afterFirst != 1 {
		t.Fatalf("Figure2 performed %d prepares, want 1", afterFirst)
	}

	if _, err := lab.ED2Study(ctx, names); err != nil {
		t.Fatal(err)
	}
	if got := lab.StagePrepares(StagePrepared); got != afterFirst {
		t.Errorf("second figure performed %d additional prepares, want 0", got-afterFirst)
	}

	// A study over the same benchmark also rides the store.
	if _, err := lab.AnalyzeBenchmark(ctx, "gap"); err != nil {
		t.Fatal(err)
	}
	if got := lab.StagePrepares(StagePrepared); got != afterFirst {
		t.Errorf("AnalyzeBenchmark re-prepared (%d total prepares)", got)
	}

	var hits int
	for _, ev := range events {
		if ev.Kind == EventPrepareCached {
			hits++
		}
	}
	if hits == 0 {
		t.Error("no prepare-cached events observed")
	}
}

// TestLabConfigIsolation: different configurations must not alias in the
// artifact store.
func TestLabConfigIsolation(t *testing.T) {
	ctx := context.Background()
	cfg := DefaultConfig()
	cfg.CPU.Hier.MemLatency = 100
	lab := New(WithConfig(cfg))
	s1, err := lab.AnalyzeBenchmark(ctx, "gap")
	if err != nil {
		t.Fatal(err)
	}

	cfg2 := DefaultConfig()
	cfg2.CPU.Hier.MemLatency = 300
	lab2 := New(WithConfig(cfg2))
	s2, err := lab2.AnalyzeBenchmark(ctx, "gap")
	if err != nil {
		t.Fatal(err)
	}
	if s1.Baseline().Cycles == s2.Baseline().Cycles {
		t.Error("different memory latencies produced identical baselines (config aliasing?)")
	}
}

// TestSweepCancelled: a sweep whose context is already cancelled returns
// context.Canceled.
func TestSweepCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := New().Sweep(ctx, Grid{Benchmarks: []string{"gap", "twolf"}, Targets: []Target{TargetL}})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled sweep returned %v", err)
	}
}

// TestObserverProgressEvents: a zero-axis sweep reports bounded-pool
// progress, one point-done event per benchmark at the point named base.
func TestObserverProgressEvents(t *testing.T) {
	ctx := context.Background()
	var pointDone []Event
	lab := New(WithParallelism(1), WithObserver(func(ev Event) {
		if ev.Kind == EventPointDone {
			pointDone = append(pointDone, ev)
		}
	}))
	if _, err := lab.Sweep(ctx, Grid{Benchmarks: []string{"gap", "twolf"}, Targets: []Target{TargetL}}); err != nil {
		t.Fatal(err)
	}
	if len(pointDone) != 2 {
		t.Fatalf("point-done events = %d, want 2", len(pointDone))
	}
	for _, ev := range pointDone {
		if ev.Total != 2 || ev.Done < 1 || ev.Done > 2 || ev.Point != "base" {
			t.Errorf("bad progress event: %+v", ev)
		}
	}
}

// TestLabRejectsBadBenchmarkNames: every fan-out entry point must reject
// unknown and silently-duplicated benchmark names up front with one error
// listing the valid set — no partial work, no per-benchmark failure deep in
// a long run.
func TestLabRejectsBadBenchmarkNames(t *testing.T) {
	ctx := context.Background()
	lab := New()
	entryPoints := map[string]func([]string) error{
		"Figure2":  func(names []string) error { _, err := lab.Figure2(ctx, names); return err },
		"Figure3":  func(names []string) error { _, err := lab.Figure3(ctx, names); return err },
		"Table3":   func(names []string) error { _, err := lab.Table3(ctx, names); return err },
		"Figure4":  func(names []string) error { _, err := lab.Figure4(ctx, names); return err },
		"Figure5":  func(names []string) error { _, err := lab.Figure5(ctx, SweepIdleFactor, names); return err },
		"ED2Study": func(names []string) error { _, err := lab.ED2Study(ctx, names); return err },
		"Sweep": func(names []string) error {
			_, err := lab.Sweep(ctx, Grid{Benchmarks: names, Targets: []Target{TargetL}})
			return err
		},
	}
	for name, call := range entryPoints {
		err := call([]string{"gap", "nonesuch"})
		if err == nil || !strings.Contains(err.Error(), "nonesuch") || !strings.Contains(err.Error(), "bzip2") {
			t.Errorf("%s(unknown): err = %v, want unknown-name error listing valid benchmarks", name, err)
		}
		err = call([]string{"gap", "gap"})
		if err == nil || !strings.Contains(err.Error(), "duplicated") {
			t.Errorf("%s(duplicate): err = %v, want duplicate-name error", name, err)
		}
	}
	if lab.StagePrepares(StagePrepared) != 0 {
		t.Errorf("rejected calls still prepared %d benchmarks", lab.StagePrepares(StagePrepared))
	}
}

// reportJSON renders a small Figure 3 report for the JSON tests.
func figure3Fixture(t *testing.T) *Figure3Report {
	t.Helper()
	rep, err := New().Figure3(context.Background(), []string{"gap"})
	if err != nil {
		t.Fatal(err)
	}
	return rep
}

// TestReportJSONRoundTrip: the structured reports must round-trip through
// encoding/json without loss (acceptance criterion), and render identically
// from the decoded form.
func TestReportJSONRoundTrip(t *testing.T) {
	rep := figure3Fixture(t)
	raw, err := json.Marshal(rep)
	if err != nil {
		t.Fatal(err)
	}
	var decoded Figure3Report
	if err := json.Unmarshal(raw, &decoded); err != nil {
		t.Fatal(err)
	}
	raw2, err := json.Marshal(&decoded)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(raw, raw2) {
		t.Errorf("report changed across round-trip:\n%s\nvs\n%s", raw, raw2)
	}
	if decoded.Render() != rep.Render() {
		t.Error("rendered output changed across round-trip")
	}
}

// jsonKeyPaths returns the sorted set of key paths in a JSON document —
// the schema shape, independent of values.
func jsonKeyPaths(raw []byte) ([]string, error) {
	var doc any
	if err := json.Unmarshal(raw, &doc); err != nil {
		return nil, err
	}
	set := map[string]bool{}
	var walk func(prefix string, v any)
	walk = func(prefix string, v any) {
		switch x := v.(type) {
		case map[string]any:
			for k, sub := range x {
				p := prefix + "." + k
				set[p] = true
				walk(p, sub)
			}
		case []any:
			for _, sub := range x {
				walk(prefix+"[]", sub)
			}
		}
	}
	walk("$", doc)
	paths := make([]string, 0, len(set))
	for p := range set {
		paths = append(paths, p)
	}
	sort.Strings(paths)
	return paths, nil
}

// TestReportSchemaGolden pins the JSON report schema: the set of key paths
// emitted for Figure 3 must match the committed golden file, so schema
// changes are explicit (regenerate with -update).
func TestReportSchemaGolden(t *testing.T) {
	rep := figure3Fixture(t)
	raw, err := json.Marshal(rep)
	if err != nil {
		t.Fatal(err)
	}
	paths, err := jsonKeyPaths(raw)
	if err != nil {
		t.Fatal(err)
	}
	got := strings.Join(paths, "\n") + "\n"

	golden := filepath.Join("testdata", "figure3_schema.golden")
	if *updateGolden {
		if err := os.MkdirAll(filepath.Dir(golden), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (run with -update to regenerate)", err)
	}
	if got != string(want) {
		t.Errorf("report JSON schema drifted from %s (run with -update if intended)\ngot:\n%s\nwant:\n%s",
			golden, got, want)
	}
}

// ExampleLab demonstrates the Lab façade end-to-end on the smallest
// benchmark (compile-only documentation example).
func ExampleLab() {
	ctx := context.Background()
	lab := New(WithParallelism(2))
	study, err := lab.AnalyzeBenchmark(ctx, "gap")
	if err != nil {
		panic(err)
	}
	run, err := study.Run(ctx, TargetP)
	if err != nil {
		panic(err)
	}
	fmt.Println(run.SpeedupPct > 0)
	// Output: true
}
