package experiments

import (
	"context"
	"fmt"

	"repro/internal/metrics"
	"repro/internal/program"
	"repro/internal/pthsel"
)

// PrimaryTargets are the p-thread flavours of the paper's main study
// (Figure 3): original PTHSEL (O), latency (L), energy (E), ED (P).
var PrimaryTargets = []pthsel.Target{pthsel.TargetO, pthsel.TargetL, pthsel.TargetE, pthsel.TargetP}

// figureSinks declares one sink per benchmark for the paper's
// per-benchmark figures: fill(ctx, i) measures names[i] into the figure's
// slot i, its error prefixed with the name. The sinks declare no
// preparation chain — each runs its own Prepare calls as soon as a worker
// is free — so the figures keep the store request pattern they have always
// had (perfbench's figures-cold workload pins it).
func figureSinks(names []string, fill func(ctx context.Context, i int) error) []sink {
	sinks := make([]sink, len(names))
	for i, name := range names {
		sinks[i] = sink{bench: name, run: func(ctx context.Context) error {
			if err := fill(ctx, i); err != nil {
				return fmt.Errorf("%s: %w", name, err)
			}
			return nil
		}}
	}
	return sinks
}

// Figure2 reproduces the paper's Figure 2: execution-time (critical-path
// category) and energy breakdowns for unoptimized execution (N) and
// PTHSEL-driven pre-execution (O), normalized to N = 100.
func (r *Runner) Figure2(ctx context.Context, names []string) (*Figure2Report, error) {
	if err := validateNames(names); err != nil {
		return nil, err
	}
	targets := []pthsel.Target{pthsel.TargetO}
	rep := &Figure2Report{Rows: make([]Figure2Row, 2*len(names))}
	err := r.runDAG(ctx, figureSinks(names, func(ctx context.Context, i int) error {
		prep, runs, err := r.ideal(ctx, names[i], targets, r.cfg)
		if err != nil {
			return err
		}
		base, opt := prep.Baseline, runs[0].Res
		rep.Rows[2*i] = Figure2Row{Bench: names[i], Run: "N", Time: timePct(base, base), Energy: energyPct(base, base)}
		rep.Rows[2*i+1] = Figure2Row{Bench: names[i], Run: "O", Time: timePct(base, opt), Energy: energyPct(base, opt)}
		return nil
	}))
	if err != nil {
		return nil, err
	}
	return rep, nil
}

// Figure3 reproduces the paper's Figure 3: improvements and diagnostics for
// all four primary targets across all benchmarks.
func (r *Runner) Figure3(ctx context.Context, names []string) (*Figure3Report, error) {
	if err := validateNames(names); err != nil {
		return nil, err
	}
	rep := &Figure3Report{Targets: targetNames(PrimaryTargets), Benchmarks: make([]BenchRuns, len(names))}
	err := r.runDAG(ctx, figureSinks(names, func(ctx context.Context, i int) error {
		_, runs, err := r.ideal(ctx, names[i], PrimaryTargets, r.cfg)
		rep.Benchmarks[i] = BenchRuns{Name: names[i], Runs: runReports(runs)}
		return err
	}))
	if err != nil {
		return nil, err
	}
	for ti, tgt := range PrimaryTargets {
		var speedup, energy, ed []float64
		for _, bench := range rep.Benchmarks {
			run := bench.Runs[ti]
			speedup = append(speedup, run.SpeedupPct)
			energy = append(energy, run.EnergySavePct)
			ed = append(ed, run.EDSavePct)
		}
		rep.GMeans = append(rep.GMeans, GMeanRow{
			Target:        tgt.String(),
			SpeedupPct:    metrics.GMeanPct(speedup),
			EnergySavePct: metrics.GMeanPct(energy),
			EDSavePct:     metrics.GMeanPct(ed),
		})
	}
	return rep, nil
}

// Table3 reproduces the paper's validation table for L-p-threads on the
// paper's four benchmarks (gcc, parser, vortex, vpr.place).
func (r *Runner) Table3(ctx context.Context, names []string) (*Table3Report, error) {
	if err := validateNames(names); err != nil {
		return nil, err
	}
	targets := []pthsel.Target{pthsel.TargetL}
	rep := &Table3Report{Rows: make([]Table3Row, len(names))}
	err := r.runDAG(ctx, figureSinks(names, func(ctx context.Context, i int) error {
		prep, runs, err := r.ideal(ctx, names[i], targets, r.cfg)
		if err != nil {
			return err
		}
		base, run := prep.Baseline, runs[0]
		res := run.Res
		// Measured composite at W=0.5 (the paper's P metric).
		pBase := metrics.Composite(0.5, float64(base.Cycles), base.Energy.Total())
		pPE := metrics.Composite(0.5, float64(res.Cycles), res.Energy.Total())
		rep.Rows[i] = Table3Row{
			Name:        names[i],
			LatencyPred: metrics.Ratio(float64(base.Cycles-res.Cycles), run.Sel.PredLADV),
			EnergyPred:  metrics.Ratio(base.Energy.Total()-res.Energy.Total(), run.Sel.PredEADV),
			EDPred:      metrics.Ratio(pBase-pPE, pthselCompositePred(prep, run)),
		}
		return nil
	}))
	if err != nil {
		return nil, err
	}
	return rep, nil
}

func pthselCompositePred(prep *Prepared, run *TargetRun) float64 {
	l0, e0 := prep.Params.L0, prep.Params.E0
	return metrics.Composite(0.5, l0, e0) - metrics.Composite(0.5, l0-run.Sel.PredLADV, e0-run.Sel.PredEADV)
}

// Figure4Targets are the targets of the realistic-profiling experiment.
var Figure4Targets = []pthsel.Target{pthsel.TargetL, pthsel.TargetE, pthsel.TargetP}

// Figure4 reproduces the realistic-profiling experiment (§5.3): p-threads
// selected from Ref-input profiles, measured on the Train input. Both
// preparations go through the artifact store, so the Train preparation is
// shared with every other figure.
func (r *Runner) Figure4(ctx context.Context, names []string) (*Figure4Report, error) {
	if err := validateNames(names); err != nil {
		return nil, err
	}
	rep := &Figure4Report{Targets: targetNames(Figure4Targets), Benchmarks: make([]BenchRuns, len(names))}
	err := r.runDAG(ctx, figureSinks(names, func(ctx context.Context, i int) error {
		profPrep, err := r.Prepare(ctx, names[i], program.Ref, r.cfg)
		if err != nil {
			return err
		}
		measPrep, err := r.Prepare(ctx, names[i], r.cfg.MeasureInput, r.cfg)
		if err != nil {
			return err
		}
		runs, err := r.measure(ctx, names[i], profPrep, measPrep, Figure4Targets, r.cfg)
		rep.Benchmarks[i] = BenchRuns{Name: names[i], Runs: runReports(runs)}
		return err
	}))
	if err != nil {
		return nil, err
	}
	return rep, nil
}

// SweepAxis identifies a Figure 5 sensitivity axis.
type SweepAxis int

// Figure 5's three sensitivity axes.
const (
	SweepIdleFactor SweepAxis = iota // 0%, 5%, 10%
	SweepMemLatency                  // 100, 200, 300 cycles
	SweepL2Size                      // 128KB(10), 256KB(12), 512KB(15)
)

// String names the axis.
func (a SweepAxis) String() string {
	switch a {
	case SweepIdleFactor:
		return "idle-energy-factor"
	case SweepMemLatency:
		return "memory-latency"
	default:
		return "L2-size"
	}
}

// SweepPoints returns the labels and config mutations of each point on the
// axis, matching the paper's Figure 5.
func SweepPoints(a SweepAxis) (labels []string, mutate []func(*Config)) {
	switch a {
	case SweepIdleFactor:
		for _, f := range []float64{0, 0.05, 0.10} {
			f := f
			labels = append(labels, fmt.Sprintf("%.0f%%", f*100))
			mutate = append(mutate, func(c *Config) { c.CPU.Energy.IdleFactor = f })
		}
	case SweepMemLatency:
		for _, m := range []int{100, 200, 300} {
			m := m
			labels = append(labels, fmt.Sprintf("%d", m))
			mutate = append(mutate, func(c *Config) { c.CPU.Hier.MemLatency = m })
		}
	default:
		type l2pt struct {
			size, lat int
		}
		for _, p := range []l2pt{{128 << 10, 10}, {256 << 10, 12}, {512 << 10, 15}} {
			p := p
			labels = append(labels, fmt.Sprintf("%dKB(%d)", p.size>>10, p.lat))
			mutate = append(mutate, func(c *Config) {
				c.CPU.Hier.L2.SizeBytes = p.size
				c.CPU.Hier.L2.HitLatency = p.lat
			})
		}
	}
	return labels, mutate
}

// Figure5 reproduces one sensitivity sweep for the given benchmarks: every
// axis point re-runs selection and measurement under the mutated
// configuration (PTHSEL+E re-targets to the new parameters, which is the
// point of the experiment). It is a one-axis declarative grid: each point
// is keyed per stage in the artifact store, so the points share the
// benchmark's trace, profile and slice trees and rebuild only the stages
// the axis actually touches.
func (r *Runner) Figure5(ctx context.Context, axis SweepAxis, names []string) (*Figure5Report, error) {
	sw, err := r.Sweep(ctx, Grid{Axes: []Axis{GridAxis(axis)}, Benchmarks: names, Targets: Figure4Targets})
	if err != nil {
		return nil, err
	}
	rep := &Figure5Report{Axis: axis.String(), Targets: sw.Targets}
	for _, pt := range sw.Points {
		rep.Points = append(rep.Points, Figure5Point{Bench: pt.Bench, Point: pt.Labels[0], Runs: pt.Runs})
	}
	return rep, nil
}

// ED2Study reproduces the §5.1 ED² discussion: P2-p-threads behave like
// L-p-threads; both improve ED² substantially. It is the degenerate
// declarative grid: no axes, a single base-configuration point per
// benchmark, targets L and P2.
func (r *Runner) ED2Study(ctx context.Context, names []string) (*ED2Report, error) {
	sw, err := r.Sweep(ctx, Grid{Benchmarks: names, Targets: []pthsel.Target{pthsel.TargetL, pthsel.TargetP2}})
	if err != nil {
		return nil, err
	}
	rep := &ED2Report{}
	var lAll, p2All []float64
	for _, pt := range sw.Points {
		l := pt.Runs[0].ED2SavePct
		p2 := pt.Runs[1].ED2SavePct
		lAll = append(lAll, l)
		p2All = append(p2All, p2)
		rep.Rows = append(rep.Rows, ED2Row{Bench: pt.Bench, LSavePct: l, P2SavePct: p2})
	}
	rep.GMeanL = metrics.GMeanPct(lAll)
	rep.GMeanP2 = metrics.GMeanPct(p2All)
	return rep, nil
}

// PaperBenchmarks returns the paper's benchmark list in the paper's own
// presentation order. The order is pinned explicitly (program.PaperNames):
// it used to be derived from the name-sorted registry, which coincided with
// the paper's order only while exactly the nine built-ins were registered
// and silently diverges once generated workloads register.
func PaperBenchmarks() []string { return program.PaperNames() }

// Figure5Benchmarks returns the paper's per-axis benchmark triples.
func Figure5Benchmarks(axis SweepAxis) []string {
	switch axis {
	case SweepIdleFactor:
		return []string{"gap", "vortex", "vpr.route"}
	case SweepMemLatency:
		return []string{"gcc", "twolf", "vortex"}
	default:
		return []string{"mcf", "twolf", "vortex"}
	}
}

// Table3Benchmarks returns the paper's validation benchmarks.
func Table3Benchmarks() []string { return []string{"gcc", "parser", "vortex", "vpr.place"} }
