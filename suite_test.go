package preexec

import (
	"bytes"
	"context"
	"encoding/json"
	"testing"
)

// paperSuite lists cmd/report's full run, in its order.
func paperSuite(lab *Lab) []func(context.Context) (Report, error) {
	names := PaperBenchmarks()
	suite := []func(context.Context) (Report, error){
		func(ctx context.Context) (Report, error) { return lab.Figure2(ctx, names) },
		func(ctx context.Context) (Report, error) { return lab.Figure3(ctx, names) },
		func(ctx context.Context) (Report, error) { return lab.Table3(ctx, Table3Benchmarks()) },
		func(ctx context.Context) (Report, error) { return lab.Figure4(ctx, names) },
	}
	for _, axis := range []SweepAxis{SweepIdleFactor, SweepMemLatency, SweepL2Size} {
		suite = append(suite, func(ctx context.Context) (Report, error) {
			return lab.Figure5(ctx, axis, Figure5Benchmarks(axis))
		})
	}
	return append(suite, func(ctx context.Context) (Report, error) { return lab.ED2Study(ctx, names) })
}

// withoutThroughput marshals rep with every SimCyclesPerSec field removed:
// a run shared with another artifact did not simulate and reports none.
func withoutThroughput(t *testing.T, rep Report) []byte {
	t.Helper()
	raw, err := json.Marshal(rep)
	if err != nil {
		t.Fatal(err)
	}
	var v any
	if err := json.Unmarshal(raw, &v); err != nil {
		t.Fatal(err)
	}
	var strip func(any)
	strip = func(v any) {
		switch v := v.(type) {
		case map[string]any:
			delete(v, "SimCyclesPerSec")
			for _, x := range v {
				strip(x)
			}
		case []any:
			for _, x := range v {
				strip(x)
			}
		}
	}
	strip(v)
	out, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// TestLabSuite runs the paper suite inside one Lab.Suite and again artifact
// by artifact on the same (by then warm) Lab: every artifact's JSON is
// byte-identical either way apart from SimCyclesPerSec, every target keeps
// its own run-start/run-done pair, and the suite simulates each distinct
// timing run once across all its artifacts: 36 simulations, against 72
// artifact by artifact (each call simulates its own distinct runs again)
// and 98 before empty selections took the baseline and idle-axis points
// shared timing runs. Both counts are exact at any parallelism because the
// timing-run table is single-flight.
func TestLabSuite(t *testing.T) {
	const suiteSims, standaloneSims = 36, 72
	ctx := context.Background()
	var starts, dones, sims int // observer calls are serialized
	lab := New(WithParallelism(2), WithObserver(func(ev Event) {
		switch ev.Kind {
		case EventRunStart:
			starts++
		case EventRunDone:
			dones++
			if ev.SimCyclesPerSec > 0 {
				sims++
			}
		}
	}))
	var inSuite [][]byte
	err := lab.Suite(ctx, func(ctx context.Context) error {
		for _, run := range paperSuite(lab) {
			rep, err := run(ctx)
			if err != nil {
				return err
			}
			inSuite = append(inSuite, withoutThroughput(t, rep))
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	suiteStarts, suiteDones, suiteRuns := starts, dones, sims

	starts, dones, sims = 0, 0, 0
	for i, run := range paperSuite(lab) {
		rep, err := run(ctx)
		if err != nil {
			t.Fatal(err)
		}
		if got := withoutThroughput(t, rep); !bytes.Equal(inSuite[i], got) {
			t.Errorf("artifact %d differs inside Suite:\nsuite:      %s\nstandalone: %s", i, inSuite[i], got)
		}
	}
	if suiteStarts != starts || suiteDones != dones || starts != dones {
		t.Errorf("run-start/run-done events: suite %d/%d, standalone %d/%d; want one pair per target run either way",
			suiteStarts, suiteDones, starts, dones)
	}
	if suiteRuns != suiteSims || sims != standaloneSims {
		t.Errorf("simulations: suite %d, standalone %d; want %d and %d", suiteRuns, sims, suiteSims, standaloneSims)
	}
	t.Logf("%d target runs: %d simulated in one Suite, %d artifact by artifact; %d cold baselines",
		dones, suiteRuns, sims, lab.StagePrepares(StageBaseline))
}
