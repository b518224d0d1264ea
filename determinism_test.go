package preexec

import (
	"bytes"
	"context"
	"encoding/json"
	"testing"

	"repro/internal/cpu"
	"repro/internal/experiments"
	"repro/internal/program"
	"repro/internal/pthsel"
)

// TestResultJSONDeterminism pins the simulator's determinism contract at
// the byte level: the same configuration and trace must yield byte-identical
// JSON Results across repeated runs — both for the baseline and for a
// p-thread-augmented run (which exercises spawn ordering, per-p-thread stat
// maps and prefetch crediting).
func TestResultJSONDeterminism(t *testing.T) {
	ctx := context.Background()
	cfg := experiments.DefaultConfig()
	prep, err := experiments.Prepare(ctx, "gap", program.Train, cfg)
	if err != nil {
		t.Fatal(err)
	}
	marshalRun := func() []byte {
		run, err := experiments.RunTarget(ctx, prep, prep, pthsel.TargetL, cfg)
		if err != nil {
			t.Fatal(err)
		}
		raw, err := json.Marshal(run.Res)
		if err != nil {
			t.Fatal(err)
		}
		return raw
	}
	marshalBase := func() []byte {
		res, err := cpu.RunContext(ctx, cfg.CPU, prep.Trace, nil)
		if err != nil {
			t.Fatal(err)
		}
		raw, err := json.Marshal(res)
		if err != nil {
			t.Fatal(err)
		}
		return raw
	}
	if !bytes.Equal(marshalBase(), marshalBase()) {
		t.Error("baseline Result JSON differs across repeated runs")
	}
	if !bytes.Equal(marshalRun(), marshalRun()) {
		t.Error("target-L Result JSON differs across repeated runs")
	}
}

// TestWorkerSimReuseDeterministicUnderParallelism pins parallelism
// determinism and the zero-allocation run-reuse path together: every timing
// simulation goes through the engine's simulator pool, so an 8-wide
// zero-axis sweep has workers concurrently grabbing, Resetting and
// returning pooled simulators whose arrays were grown by earlier, unrelated
// runs. Repeating the sweep on the same Lab (second pass guaranteed to
// reuse warm simulators) and on a serial Lab must yield byte-identical
// reports: each benchmark simulates single-threaded, the pool only reorders
// whole benchmarks, and rows are assembled in input order. The CI race job
// runs this under -race, making it the data-race sentinel for per-worker
// simulator reuse.
func TestWorkerSimReuseDeterministicUnderParallelism(t *testing.T) {
	ctx := context.Background()
	grid := Grid{Benchmarks: PaperBenchmarks()[:4], Targets: []Target{TargetL, TargetE}}
	run := func(lab *Lab) []byte {
		rep, err := lab.Sweep(ctx, grid)
		if err != nil {
			t.Fatal(err)
		}
		// Measured simulator throughput is the one legitimately
		// nondeterministic field.
		for i := range rep.Points {
			for j := range rep.Points[i].Runs {
				rep.Points[i].Runs[j].SimCyclesPerSec = 0
			}
		}
		raw, err := json.Marshal(rep)
		if err != nil {
			t.Fatal(err)
		}
		return raw
	}
	wide := New(WithParallelism(8))
	first := run(wide)
	second := run(wide) // warm pool: simulators reused across benchmarks
	serial := run(New(WithParallelism(1)))
	if !bytes.Equal(first, second) {
		t.Error("repeated sweep on a warm simulator pool diverged from the cold pass")
	}
	if !bytes.Equal(first, serial) {
		t.Errorf("8-wide pooled-simulator sweep diverged from serial execution\nwide:   %s\nserial: %s", first, serial)
	}
}
