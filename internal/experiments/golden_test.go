package experiments

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"testing"

	"repro/internal/cpu"
	"repro/internal/program"
	"repro/internal/pthsel"
	"repro/internal/trace"
)

var updateGolden = flag.Bool("update", false, "rewrite golden simulation results")

// goldenDir holds the pinned simulator outputs. The files were generated by
// the pre-refactor per-cycle scan engine over the original array-of-structs
// trace; both the event-driven engine and the chunked structure-of-arrays
// trace pipeline (PR 3) must reproduce them bit-for-bit on every benchmark,
// making this the old-AoS-vs-new-SoA differential for the full suite.
const goldenDir = "testdata"

// goldenRuns caches the sweep TestGoldenResults pins: one prepare + two
// sims per benchmark, computed once per process.
var goldenRuns struct {
	once sync.Once
	out  map[string][2]*cpu.Result
	err  error
}

// goldenResults runs every paper benchmark (the pinned nine — dynamically
// registered generated workloads are outside the golden corpus) on the Train
// input and returns the baseline Result plus the L-target pre-execution
// Result per benchmark — the two runs that together exercise every simulator
// path (main-thread pipeline, p-thread spawning, prefetch crediting, aborts,
// energy).
func goldenResults(t *testing.T) map[string][2]*cpu.Result {
	t.Helper()
	goldenRuns.once.Do(func() {
		ctx := context.Background()
		cfg := DefaultConfig()
		goldenRuns.out = map[string][2]*cpu.Result{}
		for _, name := range PaperBenchmarks() {
			prep, err := Prepare(ctx, name, program.Train, cfg)
			if err != nil {
				goldenRuns.err = fmt.Errorf("prepare %s: %w", name, err)
				return
			}
			run, err := RunTarget(ctx, prep, prep, pthsel.TargetL, cfg)
			if err != nil {
				goldenRuns.err = fmt.Errorf("run %s: %w", name, err)
				return
			}
			goldenRuns.out[name] = [2]*cpu.Result{prep.Baseline, run.Res}
		}
	})
	if goldenRuns.err != nil {
		t.Fatal(goldenRuns.err)
	}
	return goldenRuns.out
}

// simulateReference is Simulate on the reference scan engine. It builds a
// fresh simulator, so the Result is the caller's.
func simulateReference(ctx context.Context, cfg cpu.Config, tr *trace.Trace, pts []*cpu.PThread) (*cpu.Result, error) {
	s, err := cpu.NewSimulator(cfg, tr, pts)
	if err != nil {
		return nil, err
	}
	return s.RunReference(ctx)
}

// TestEnginesAgree runs every paper benchmark's baseline and selected
// p-threads through both simulation engines — the event-driven wakeup
// scheduler and the reference per-cycle scan — on the same (config, trace,
// p-threads) triple, and requires bit-identical Results: same cycles, same
// CPI stack, same cache counts, same energy, same per-p-thread statistics.
// gap runs under every sensitivity target (L, E and P), the other
// benchmarks under L.
func TestEnginesAgree(t *testing.T) {
	if testing.Short() {
		t.Skip("full benchmark suite")
	}
	ctx := context.Background()
	cfg := DefaultConfig()
	for _, name := range PaperBenchmarks() {
		prep, err := Prepare(ctx, name, program.Train, cfg)
		if err != nil {
			t.Fatalf("prepare %s: %v", name, err)
		}
		ref, err := simulateReference(ctx, cfg.CPU, prep.Trace, nil)
		if err != nil {
			t.Fatalf("%s/baseline: %v", name, err)
		}
		if !reflect.DeepEqual(prep.Baseline, ref) {
			t.Errorf("%s/baseline: event engine diverged from reference scan engine", name)
		}
		targets := []pthsel.Target{pthsel.TargetL}
		if name == "gap" {
			targets = Figure4Targets
		}
		for _, tgt := range targets {
			pts := pthsel.Select(prep.Trace, prep.Prof, prep.Trees, prep.Params, tgt).PThreads
			event, err := Simulate(ctx, cfg.CPU, prep.Trace, pts)
			if err != nil {
				t.Fatalf("%s/target-%s: %v", name, tgt, err)
			}
			ref, err := simulateReference(ctx, cfg.CPU, prep.Trace, pts)
			if err != nil {
				t.Fatalf("%s/target-%s reference: %v", name, tgt, err)
			}
			if !reflect.DeepEqual(event, ref) {
				t.Errorf("%s/target-%s: event engine diverged from reference scan engine", name, tgt)
			}
		}
	}
}

// TestGoldenResults pins the simulator's Result metrics bit-for-bit: every
// timing, coverage, energy and breakdown number on every benchmark must match
// the committed goldens exactly. Regenerate with `go test -run TestGolden
// -update ./internal/experiments` only when a behavioural change is intended,
// and say so in the commit message.
func TestGoldenResults(t *testing.T) {
	if testing.Short() {
		t.Skip("full benchmark suite")
	}
	results := goldenResults(t)
	for _, name := range PaperBenchmarks() {
		pair := results[name]
		for i, label := range []string{"baseline", "target-L"} {
			got, err := json.MarshalIndent(pair[i], "", "  ")
			if err != nil {
				t.Fatal(err)
			}
			got = append(got, '\n')
			path := filepath.Join(goldenDir, fmt.Sprintf("golden_%s_%s.json", name, label))
			if *updateGolden {
				if err := os.WriteFile(path, got, 0o644); err != nil {
					t.Fatal(err)
				}
				continue
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("%s: %v (run with -update to generate)", path, err)
			}
			if !bytes.Equal(got, want) {
				t.Errorf("%s/%s: simulator result diverged from golden %s", name, label, path)
			}
		}
	}
}
