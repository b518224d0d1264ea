package experiments

import (
	"context"
	"reflect"
	"sync"
	"testing"

	"repro/internal/program"
	"repro/internal/pthsel"
)

// TestTimingTableConcurrent drives one timing run from many
// goroutines, a quarter of them with a cancelled context: a cancelled
// simulation is retired rather than handed on, every live requester gets
// the run, and exactly one of them simulated it. An empty selection takes
// the baseline without simulating.
func TestTimingTableConcurrent(t *testing.T) {
	ctx := withTimingRuns(context.Background())
	cfg := DefaultConfig()
	prep, err := Prepare(ctx, "gap", program.Train, cfg)
	if err != nil {
		t.Fatal(err)
	}
	c, err := newChain("gap", prep.Input, cfg)
	if err != nil {
		t.Fatal(err)
	}
	key := c.key(StageBaseline)
	sel := pthsel.Select(prep.Trace, prep.Prof, prep.Trees, prep.Params, pthsel.TargetL)
	if len(sel.PThreads) == 0 {
		t.Fatal("gap selects no L-p-threads: the run would be the baseline's")
	}
	want, err := MeasureSelection(ctx, cfg.CPU, prep, sel)
	if err != nil {
		t.Fatal(err)
	}

	cancelled, cancel := context.WithCancel(ctx)
	cancel()
	const workers = 16
	runs := make([]*TargetRun, workers)
	errs := make([]error, workers)
	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			wctx := ctx
			if i%4 == 0 {
				wctx = cancelled
			}
			runs[i], errs[i] = timingRun(wctx, key, cfg.CPU, prep, sel)
		}(i)
	}
	wg.Wait()
	simulated := 0
	for i, run := range runs {
		if i%4 == 0 {
			continue // may see context.Canceled or the run
		}
		if errs[i] != nil {
			t.Fatalf("worker %d: %v", i, errs[i])
		}
		if run.SimSeconds > 0 {
			simulated++
		}
		if !reflect.DeepEqual(run.Res, want.Res) {
			t.Errorf("worker %d: Result differs from a direct simulation", i)
		}
	}
	if simulated != 1 {
		t.Errorf("%d live requesters simulated, want exactly 1", simulated)
	}

	empty, err := timingRun(ctx, key, cfg.CPU, prep, &pthsel.Selection{Target: pthsel.TargetE})
	if err != nil {
		t.Fatal(err)
	}
	if empty.SimSeconds != 0 || !reflect.DeepEqual(empty.Res, prep.Baseline) {
		t.Errorf("empty selection: simulated %v, Result equal to the baseline %v; want the baseline, not simulated",
			empty.SimSeconds > 0, reflect.DeepEqual(empty.Res, prep.Baseline))
	}
}
