// Package experiments drives the paper's evaluation: it prepares each
// benchmark (trace, profile, slice trees, criticality curves, baseline
// simulation), runs p-thread selection under each target, simulates the
// augmented executions, and derives every number the paper's figures and
// tables report. The per-experiment entry points in figures.go map 1:1 to
// the paper's Figure 2, Figure 3, Table 3, Figure 4 and Figure 5.
package experiments

import (
	"context"
	"fmt"
	"sync"
	"time"

	"repro/internal/cpu"
	"repro/internal/critpath"
	"repro/internal/metrics"
	"repro/internal/profile"
	"repro/internal/program"
	"repro/internal/pthsel"
	"repro/internal/slicer"
	"repro/internal/trace"
)

// simPool recycles simulators across runs: every timing simulation issued
// through this package (baselines, target measurements, sweep workers)
// grabs a pooled simulator, Resets it onto the new (config, trace,
// p-threads) triple and returns it afterwards, so the figure suite's
// thousands of runs reuse a handful of fully-grown simulators — in-flight
// slot ring, store table, wakeup pools, cache arrays — instead of
// reallocating them per run. Determinism is unaffected: Reset restores exactly the
// freshly-constructed state (pinned by the golden and reuse tests).
var simPool sync.Pool

// Simulate runs one timing simulation through the simulator pool and
// returns an owned (cloned) Result.
func Simulate(ctx context.Context, cfg cpu.Config, tr *trace.Trace, pthreads []*cpu.PThread) (*cpu.Result, error) {
	s, _ := simPool.Get().(*cpu.Simulator)
	if s == nil {
		s = new(cpu.Simulator)
	}
	if err := s.Reset(cfg, tr, pthreads); err != nil {
		simPool.Put(s)
		return nil, err
	}
	res, err := s.RunContext(ctx)
	if err != nil {
		simPool.Put(s)
		return nil, err
	}
	// The pooled simulator owns res's memory; clone before releasing it.
	out := res.Clone()
	simPool.Put(s)
	return out, nil
}

// Config parameterizes a full experiment run.
type Config struct {
	CPU    cpu.Config
	Slicer slicer.Config

	// Problem-load mining thresholds.
	ProblemCoverage float64 // fraction of L2 misses the problem set must cover
	MinMisses       int64   // ignore loads with fewer L2 misses

	// Scale divides benchmark iteration counts indirectly by using the
	// given input class for measurement.
	MeasureInput program.InputClass
}

// DefaultConfig returns the paper's configuration.
func DefaultConfig() Config {
	return Config{
		CPU:             cpu.DefaultConfig(),
		Slicer:          slicer.DefaultConfig(),
		ProblemCoverage: 0.9,
		MinMisses:       100,
		MeasureInput:    program.Train,
	}
}

// Prepared bundles everything selection and measurement need for one
// benchmark under one input class.
type Prepared struct {
	Name     string
	Input    program.InputClass
	Trace    *trace.Trace
	Prof     *profile.Profile
	Trees    []*slicer.Tree
	Curves   map[int32]critpath.Curve
	Baseline *cpu.Result
	Params   pthsel.Params
}

// Prepare builds, traces, profiles and baselines one benchmark by running
// the staged pipeline end to end without a store (every stage cold). The
// context is honored throughout, including mid-simulation in the baseline
// run. Engines cache the same stages individually — see Runner.Prepare.
func Prepare(ctx context.Context, name string, input program.InputClass, cfg Config) (*Prepared, error) {
	tr, err := stageTrace(name, input)
	if err != nil {
		return nil, err
	}
	p, err := PrepareTrace(ctx, name, tr, cfg)
	if err != nil {
		return nil, err
	}
	p.Input = input
	return p, nil
}

// PrepareTrace profiles and baselines an already-traced program (used for
// custom workloads supplied through the public façade). It is the uncached
// composition of the pipeline stages, so its output is identical to the
// Runner's store-backed preparation.
func PrepareTrace(ctx context.Context, name string, tr *trace.Trace, cfg Config) (*Prepared, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if _, err := planFor(cfg, ""); err != nil {
		return nil, err
	}
	prof := profile.Collect(tr, profile.ConfigFromHier(cfg.CPU.Hier))
	problems := stageProblems(prof, problemsConfigOf(cfg))
	trees := slicer.BuildTrees(tr, prof, problems, cfg.Slicer)
	curves, err := stageCurves(ctx, tr, prof, problems, critpathConfig(cfg))
	if err != nil {
		return nil, err
	}
	base, err := stageBaseline(ctx, name, timingConfig(cfg.CPU), tr)
	if err != nil {
		return nil, err
	}
	base = withEnergy(base, cfg.CPU.Energy)
	params := deriveConfig(cfg).Derive(float64(base.Cycles), base.Energy.Total(), base.IPC(), curves)
	return assemblePrepared(name, tr, prof, trees, curves, base, params), nil
}

func critpathConfig(cfg Config) critpath.Config {
	c := critpath.DefaultConfig(cfg.CPU.Hier)
	c.Width = cfg.CPU.DispatchWidth
	c.ROBSize = cfg.CPU.ROBSize
	c.MispredPen = cfg.CPU.FrontEndDepth + cfg.CPU.RedirectPen
	return c
}

// TargetRun is one (benchmark, target) measurement with derived metrics.
type TargetRun struct {
	Target pthsel.Target
	Sel    *pthsel.Selection
	Res    *cpu.Result

	// SimSeconds is the wall-clock time the timing simulation took; with
	// Res.Cycles it yields the run's simulator throughput (a substrate
	// health metric, deliberately kept out of Res so Results stay
	// deterministic).
	SimSeconds float64

	SpeedupPct    float64 // %IPC gain
	EnergySavePct float64
	EDSavePct     float64
	ED2SavePct    float64
	FullCovPct    float64 // fully covered misses / baseline misses
	PartCovPct    float64
	PInstIncPct   float64 // p-instructions / committed main instructions
	UsefulPct     float64
	AvgPThreadLen float64
}

// SimCyclesPerSec returns the run's simulator throughput in simulated
// cycles per wall-clock second (0 when unmeasured).
func (t *TargetRun) SimCyclesPerSec() float64 {
	if t.SimSeconds <= 0 {
		return 0
	}
	return float64(t.Res.Cycles) / t.SimSeconds
}

// RunTarget selects p-threads on sel's profile and measures them on meas
// (sel == meas for ideal profiling; they differ for the realistic-profiling
// experiment). Cancellation is honored mid-simulation. It shares nothing
// between calls: the uncached reference the goldens pin the engines to.
func RunTarget(ctx context.Context, sel, meas *Prepared, target pthsel.Target, cfg Config) (*TargetRun, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return MeasureSelection(ctx, cfg.CPU, meas, pthsel.Select(sel.Trace, sel.Prof, sel.Trees, sel.Params, target))
}

// MeasureSelection simulates meas's trace with selection's p-threads
// installed, through the simulator pool, derives the paper's metrics
// against meas's baseline and records the simulation's wall-clock time in
// SimSeconds. It is the one measurement path behind RunTarget, the
// engine's per-benchmark measurement loop and the public Study.
func MeasureSelection(ctx context.Context, cfg cpu.Config, meas *Prepared, selection *pthsel.Selection) (*TargetRun, error) {
	start := time.Now()
	res, err := Simulate(ctx, cfg, meas.Trace, selection.PThreads)
	if err != nil {
		return nil, fmt.Errorf("%s/%s: %w", meas.Name, selection.Target, err)
	}
	run := Derive(selection, meas.Baseline, res)
	run.SimSeconds = time.Since(start).Seconds()
	return run, nil
}

// Derive computes the paper's reported percentages for one measured run
// against its baseline.
func Derive(selection *pthsel.Selection, base, res *cpu.Result) *TargetRun {
	t := &TargetRun{Target: selection.Target, Sel: selection, Res: res}
	bc, nc := float64(base.Cycles), float64(res.Cycles)
	be, ne := base.Energy.Total(), res.Energy.Total()
	t.SpeedupPct = metrics.SpeedupPct(bc, nc)
	t.EnergySavePct = metrics.ImprovementPct(be, ne)
	t.EDSavePct = metrics.ImprovementPct(metrics.ED(be, bc), metrics.ED(ne, nc))
	t.ED2SavePct = metrics.ImprovementPct(metrics.ED2(be, bc), metrics.ED2(ne, nc))
	if base.DemandL2Misses > 0 {
		t.FullCovPct = 100 * float64(res.FullCovered) / float64(base.DemandL2Misses)
		t.PartCovPct = 100 * float64(res.PartCovered) / float64(base.DemandL2Misses)
	}
	t.PInstIncPct = 100 * res.PInstIncrease()
	t.UsefulPct = 100 * res.Usefulness()
	t.AvgPThreadLen = selection.AvgPThreadLen()
	return t
}
