package experiments

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync/atomic"

	"repro/internal/program/gen"
	"repro/internal/pthsel"
)

// AxisPoint is one point on a sweep axis: a human-readable label and the
// configuration mutation that realizes the point. A nil Mutate leaves the
// base configuration untouched (useful for a "base" point).
type AxisPoint struct {
	Label  string
	Mutate func(*Config) `json:"-"`
}

// Axis is one named dimension of a sweep grid.
type Axis struct {
	Name   string
	Points []AxisPoint
}

// GridAxis converts one of the paper's Figure 5 sensitivity axes into a
// declarative sweep axis (the paper's three points, in order).
func GridAxis(a SweepAxis) Axis {
	labels, mutations := SweepPoints(a)
	ax := Axis{Name: a.String(), Points: make([]AxisPoint, len(labels))}
	for i := range labels {
		ax.Points[i] = AxisPoint{Label: labels[i], Mutate: mutations[i]}
	}
	return ax
}

// ParseSweepAxis parses a sensitivity-axis name as used by the CLIs and the
// paper's figures: the short forms "idle", "mem" and "l2", or the canonical
// axis names ("idle-energy-factor", "memory-latency", "L2-size").
func ParseSweepAxis(s string) (SweepAxis, error) {
	switch s {
	case "idle", SweepIdleFactor.String():
		return SweepIdleFactor, nil
	case "mem", SweepMemLatency.String():
		return SweepMemLatency, nil
	case "l2", SweepL2Size.String():
		return SweepL2Size, nil
	}
	return 0, fmt.Errorf("unknown sweep axis %q (want idle, mem or l2)", s)
}

// WorkloadPoint is one generated workload participating in a sweep: a
// human-readable label (defaulting to the spec's canonical name) plus the
// spec realizing it.
type WorkloadPoint struct {
	Label string
	Spec  gen.Spec
}

// GenPoint is one point on a generator-knob axis: a label plus the spec
// mutation realizing it — the workload analogue of AxisPoint.
type GenPoint struct {
	Label  string
	Mutate func(*gen.Spec)
}

// GenAxis expands a base spec through per-point mutations into the workload
// points of a Grid, so generator knobs sweep exactly like config knobs:
//
//	g.Workloads = experiments.GenAxis(gen.Spec{Family: gen.PointerChase, Seed: 1},
//	        experiments.GenPoint{Label: "d=500", Mutate: func(s *gen.Spec) { s.Depth = 500 }},
//	        experiments.GenPoint{Label: "d=2000", Mutate: func(s *gen.Spec) { s.Depth = 2000 }})
func GenAxis(base gen.Spec, pts ...GenPoint) []WorkloadPoint {
	out := make([]WorkloadPoint, len(pts))
	for i, pt := range pts {
		s := base
		if pt.Mutate != nil {
			pt.Mutate(&s)
		}
		out[i] = WorkloadPoint{Label: pt.Label, Spec: s}
	}
	return out
}

// Grid declares a multi-axis sensitivity sweep: the cartesian product of
// every axis's points, evaluated for every benchmark under every target.
// With no axes the grid has a single point at the engine's base
// configuration; with no targets it defaults to the paper's sensitivity
// targets (L, E, P).
type Grid struct {
	Axes       []Axis
	Benchmarks []string
	// Workloads extends the benchmark dimension with generated workloads:
	// each point's spec is registered (idempotently) when the sweep starts
	// and then evaluated like a named benchmark under every axis point and
	// target, sharing the staged artifact store the same way — an axis over
	// a generator knob the config axes never read (chase depth, branch mix)
	// re-traces nothing between config points.
	Workloads []WorkloadPoint
	Targets   []pthsel.Target
}

// Points returns the number of configuration points in the grid (the
// product of the axis sizes; 1 with no axes).
func (g Grid) Points() int {
	n := 1
	for _, ax := range g.Axes {
		n *= len(ax.Points)
	}
	return n
}

// gridPoint is one realized configuration point of a grid.
type gridPoint struct {
	labels []string // one label per axis, in axis order
	cfg    Config
}

// points expands the cartesian product in row-major order (the first axis
// varies slowest), mutating a copy of base at each point.
func (g Grid) points(base Config) ([]gridPoint, error) {
	for _, ax := range g.Axes {
		if len(ax.Points) == 0 {
			return nil, fmt.Errorf("experiments: sweep axis %q has no points", ax.Name)
		}
	}
	total := g.Points()
	pts := make([]gridPoint, 0, total)
	ix := make([]int, len(g.Axes))
	for idx := 0; idx < total; idx++ {
		rem := idx
		for ai := len(g.Axes) - 1; ai >= 0; ai-- {
			ix[ai] = rem % len(g.Axes[ai].Points)
			rem /= len(g.Axes[ai].Points)
		}
		cfg := base
		labels := make([]string, len(g.Axes))
		// Mutations apply in axis order, so when two axes touch the same
		// field the later axis wins — matching how the labels read.
		for ai, ax := range g.Axes {
			pt := ax.Points[ix[ai]]
			labels[ai] = pt.Label
			if pt.Mutate != nil {
				pt.Mutate(&cfg)
			}
		}
		pts = append(pts, gridPoint{labels: labels, cfg: cfg})
	}
	return pts, nil
}

// Sweep evaluates a declarative grid on the bounded worker pool: every
// (benchmark, grid point) pair is prepared through the staged artifact
// store — so points that agree on a stage's config fields share its trace,
// profile, slice trees, curves and baseline instead of rebuilding them —
// and measured under every target. Per-point progress is streamed as
// EventPointDone events. The report's points are ordered benchmark-major,
// then row-major across the axes (first axis slowest), independent of
// worker scheduling.
func (r *Runner) Sweep(ctx context.Context, g Grid) (*SweepReport, error) {
	jobs, targets, axes, err := r.expandGrid(g)
	if err != nil {
		return nil, err
	}
	rep := &SweepReport{
		Axes:    axes,
		Targets: targetNames(targets),
		Points:  make([]SweepPointReport, len(jobs)),
	}
	errs := make([]error, len(jobs))
	defer r.costs.flush()
	var done atomic.Int64
	switch {
	case r.sched:
		// Critical-path order: the grid's full stage DAG plus one
		// measurement sink per job, pulled longest-remaining-path-first.
		// Identical store traffic, events and report indexing to the naive
		// path below — only order (and wall-clock) changes.
		b := r.newDAGBuilder()
		for i, j := range jobs {
			prep, _ := b.addChain(j.bench, j.pt.cfg.MeasureInput, j.pt.cfg)
			i := i
			b.addMeasure(j.pt.point(), r.measureEstimate(j.bench, j.pt.cfg.MeasureInput, len(targets)),
				prep, func(ctx context.Context) {
					r.runSweepJob(ctx, i, jobs, targets, rep, errs, &done)
				})
		}
		r.runDAG(ctx, b)
	default:
		r.forEach(ctx, len(jobs), func(i int) {
			r.runSweepJob(ctx, i, jobs, targets, rep, errs, &done)
		})
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if err := errors.Join(errs...); err != nil {
		return nil, err
	}
	return rep, nil
}

// expandGrid resolves a grid into its job list: workloads registered,
// names validated, targets defaulted and the cartesian product expanded
// benchmark-major, row-major — the report row order every execution
// strategy must preserve.
func (r *Runner) expandGrid(g Grid) (jobs []sweepJob, targets []pthsel.Target, axes []string, err error) {
	names := append([]string(nil), g.Benchmarks...)
	// Workload labels per registered name; empty for named benchmarks.
	labels := make([]string, len(names))
	if len(g.Workloads) > 0 {
		for _, wp := range g.Workloads {
			wnames, werr := gen.Register(wp.Spec)
			if werr != nil {
				return nil, nil, nil, fmt.Errorf("experiments: workload %q: %w", wp.Label, werr)
			}
			label := wp.Label
			if label == "" {
				label = wnames[0]
			}
			names = append(names, wnames[0])
			labels = append(labels, label)
		}
	}
	if err := validateNames(names); err != nil {
		return nil, nil, nil, err
	}
	targets = g.Targets
	if len(targets) == 0 {
		targets = Figure4Targets
	}
	pts, err := g.points(r.cfg)
	if err != nil {
		return nil, nil, nil, err
	}
	jobs = make([]sweepJob, 0, len(names)*len(pts))
	for bi, bench := range names {
		for _, pt := range pts {
			jobs = append(jobs, sweepJob{bench: bench, wl: labels[bi], pt: pt})
		}
	}
	axes = make([]string, len(g.Axes))
	for i, ax := range g.Axes {
		axes[i] = ax.Name
	}
	return jobs, targets, axes, nil
}

// runSweepJob evaluates one job and publishes its point, error and progress
// event — the shared body of the naive and scheduled serial paths.
func (r *Runner) runSweepJob(ctx context.Context, i int, jobs []sweepJob,
	targets []pthsel.Target, rep *SweepReport, errs []error, done *atomic.Int64) {
	j := jobs[i]
	point, perr := r.sweepPoint(ctx, j.bench, j.pt, targets)
	if perr != nil {
		errs[i] = fmt.Errorf("%s@%s: %w", j.bench, j.pt.point(), perr)
	} else {
		point.Workload = j.wl
		rep.Points[i] = point
	}
	r.emit(ctx, Event{Kind: EventPointDone, Bench: j.bench,
		Point: j.pt.point(), Err: perr,
		Done: int(done.Add(1)), Total: len(jobs)})
}

// sweepJob is one (benchmark, grid point) evaluation of a sweep.
type sweepJob struct {
	bench string
	wl    string // workload label, empty for named benchmarks
	pt    gridPoint
}

// point renders the job's axis labels as the Point field of progress events.
func (pt gridPoint) point() string { return strings.Join(pt.labels, ",") }

// sweepPoint prepares and measures one (benchmark, grid point) pair.
func (r *Runner) sweepPoint(ctx context.Context, bench string, pt gridPoint, targets []pthsel.Target) (SweepPointReport, error) {
	prep, err := r.Prepare(ctx, bench, pt.cfg.MeasureInput, pt.cfg)
	if err != nil {
		return SweepPointReport{}, err
	}
	runs, err := r.measure(ctx, bench, prep, prep, targets, pt.cfg)
	point := SweepPointReport{Bench: bench, Labels: pt.labels}
	for _, run := range runs {
		point.Runs = append(point.Runs, runReport(run))
	}
	return point, err
}
