package experiments

import (
	"context"
	"fmt"
	"strings"

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

// Validate rejects a grid that cannot be expanded: an axis with no points,
// or an axis name used twice. A repeated axis would multiply the grid by
// its own size for no new configuration, and enough repeats overflow
// Points.
func (g Grid) Validate() error {
	seen := make(map[string]bool, len(g.Axes))
	for _, ax := range g.Axes {
		if len(ax.Points) == 0 {
			return fmt.Errorf("experiments: sweep axis %q has no points", ax.Name)
		}
		if seen[ax.Name] {
			return fmt.Errorf("experiments: repeated sweep axis %q", ax.Name)
		}
		seen[ax.Name] = true
	}
	return nil
}

// gridPoint is one realized configuration point of a grid.
type gridPoint struct {
	labels []string // one label per axis, in axis order
	cfg    Config
}

// points expands the cartesian product of a validated grid in row-major
// order (the first axis varies slowest), mutating a copy of base at each
// point.
func (g Grid) points(base Config) []gridPoint {
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
	return pts
}

// Sweep evaluates a declarative grid on the fan-out executor: every
// (benchmark, grid point) pair is prepared through the staged artifact
// store — so points that agree on a stage's config fields share its trace,
// profile, slice trees, curves and baseline instead of rebuilding them —
// and measured under every target. Each pair is one sink declaring its
// preparation chain, so the executor walks the grid's stage DAG
// depth-first in grid order. Per-point progress is streamed as EventPointDone
// events. The report's points are ordered benchmark-major, then row-major
// across the axes (first axis slowest), independent of worker scheduling.
func (r *Runner) Sweep(ctx context.Context, g Grid) (*SweepReport, error) {
	rep, sinks, err := r.sweepSinks(g)
	if err != nil {
		return nil, err
	}
	if err := r.runDAG(ctx, sinks); err != nil {
		return nil, err
	}
	return rep, nil
}

// CheckSweep validates a grid without running it: the resolution Sweep
// performs before it runs anything, so its error is exactly the one Sweep
// would return for an unknown, duplicated or missing benchmark or a bad
// workload spec. Like Sweep, it registers the grid's workload specs.
func (r *Runner) CheckSweep(g Grid) error {
	_, _, err := r.sweepSinks(g)
	return err
}

// sweepSinks resolves a grid into its report skeleton and one sink per
// (benchmark, grid point) job: grid validated, workloads registered, names
// validated, targets defaulted and the cartesian product expanded
// benchmark-major, row-major — the report row order every execution order
// must preserve. Sweep runs the sinks; CheckSweep only resolves them.
func (r *Runner) sweepSinks(g Grid) (*SweepReport, []sink, error) {
	if err := g.Validate(); err != nil {
		return nil, nil, err
	}
	names := append([]string(nil), g.Benchmarks...)
	// Workload labels per registered name; empty for named benchmarks.
	labels := make([]string, len(names))
	for _, wp := range g.Workloads {
		wnames, err := gen.Register(wp.Spec)
		if err != nil {
			return nil, nil, fmt.Errorf("experiments: workload %q: %w", wp.Label, err)
		}
		label := wp.Label
		if label == "" {
			label = wnames[0]
		}
		names = append(names, wnames[0])
		labels = append(labels, label)
	}
	if err := validateNames(names); err != nil {
		return nil, nil, err
	}
	targets := g.Targets
	if len(targets) == 0 {
		targets = Figure4Targets
	}
	pts := g.points(r.cfg)
	rep := &SweepReport{
		Axes:    make([]string, len(g.Axes)),
		Targets: targetNames(targets),
		Points:  make([]SweepPointReport, len(names)*len(pts)),
	}
	for i, ax := range g.Axes {
		rep.Axes[i] = ax.Name
	}
	sinks := make([]sink, 0, len(rep.Points))
	var done int // completions delivered, under obsMu
	for bi, bench := range names {
		for _, pt := range pts {
			i, point := len(sinks), pt.point()
			sinks = append(sinks, sink{bench: bench, prep: &pt.cfg,
				run: func(ctx context.Context) error {
					_, runs, err := r.ideal(ctx, bench, targets, pt.cfg)
					if err == nil {
						rep.Points[i] = SweepPointReport{Bench: bench, Workload: labels[bi], Labels: pt.labels, Runs: runReports(runs)}
					}
					r.emitDone(ctx, Event{Kind: EventPointDone, Bench: bench, Point: point, Err: err,
						Total: len(rep.Points)}, &done)
					if err != nil {
						return fmt.Errorf("%s@%s: %w", bench, point, err)
					}
					return nil
				}})
		}
	}
	return rep, sinks, nil
}

// point renders the job's axis labels as the Point field of progress events
// and the prefix of its errors. A zero-axis grid's one point is "base", the
// name SweepPointReport.Point gives it.
func (pt gridPoint) point() string {
	if len(pt.labels) == 0 {
		return "base"
	}
	return strings.Join(pt.labels, ",")
}
