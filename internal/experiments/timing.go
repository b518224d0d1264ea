package experiments

// Call-scoped timing runs. The simulator is deterministic in (timing
// configuration, trace, p-threads), so within one call every target
// measurement with the same measurement preparation, timing configuration
// and p-thread list is the same run. The call's context carries one
// timing-run table: an artifactStore of timing Results keyed by the
// preparation's baseline-stage key — which chains the trace's key and the
// timing configuration — and the p-thread list (cpu.PThreadsKey). The
// first requester simulates, every other requester derives its TargetRun
// from that Result with the energy breakdown recomputed under its own
// energy parameters (withEnergy). An empty selection is the preparation's
// baseline and never simulates.
//
// runDAG gives every entry point call a fresh table unless the call's
// context already carries one (Runner.Suite); nothing is kept on the
// Runner, so a repeated call simulates again.

import (
	"context"

	"repro/internal/cpu"
	"repro/internal/pthsel"
)

type timingRunsKey struct{}

// withTimingRuns returns ctx carrying a timing-run table: ctx itself when
// it already carries one, else ctx with a fresh table.
func withTimingRuns(ctx context.Context) context.Context {
	if _, ok := ctx.Value(timingRunsKey{}).(*artifactStore); ok {
		return ctx
	}
	return context.WithValue(ctx, timingRunsKey{}, newArtifactStore())
}

// Suite runs fn with one timing-run table for every entry point call fn
// makes through the context it receives, so a run that several figures or
// sweeps measure is simulated once across all of them. The
// table dies when Suite returns.
func (r *Runner) Suite(ctx context.Context, fn func(context.Context) error) error {
	return fn(withTimingRuns(ctx))
}

// timingRun measures selection on meas, whose baseline stage is key, under
// cfg. It simulates (MeasureSelection, so the run reports its throughput)
// when no earlier requester of ctx's timing-run table has, and otherwise
// derives the run from the shared Result without simulating (SimSeconds
// stays 0). An empty selection is the baseline's run.
func timingRun(ctx context.Context, key artifactKey, cfg cpu.Config, meas *Prepared, selection *pthsel.Selection) (*TargetRun, error) {
	if len(selection.PThreads) == 0 {
		return Derive(selection, meas.Baseline, meas.Baseline), nil
	}
	key.fp += "\x00" + cpu.PThreadsKey(selection.PThreads)
	var run *TargetRun
	res, outcome, err := withTimingRuns(ctx).Value(timingRunsKey{}).(*artifactStore).get(ctx, key, func() (any, error) {
		var err error
		run, err = MeasureSelection(ctx, cfg, meas, selection)
		if err != nil {
			return nil, err
		}
		return run.Res, nil
	})
	switch {
	case err != nil:
		return nil, err
	case outcome == storeCold:
		return run, nil
	}
	return Derive(selection, meas.Baseline, withEnergy(res.(*cpu.Result), cfg.Energy)), nil
}
