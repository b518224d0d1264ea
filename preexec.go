// Package preexec is the public API of the reproduction of "Energy-
// Effectiveness of Pre-Execution and Energy-Aware P-Thread Selection"
// (Petric & Roth, ISCA 2005).
//
// The package wraps the internal substrates — a micro-ISA with a program
// builder, a functional interpreter, a cycle-level multithreaded out-of-
// order simulator with DDMT pre-execution, a Wattch-style energy model, a
// Fields-style critical-path analyzer, a backward slicer, and the
// PTHSEL/PTHSEL+E selection frameworks — behind a Lab engine:
//
//	lab := preexec.New()                            // functional options below
//	study, _ := lab.AnalyzeBenchmark(ctx, "mcf")
//	run, _ := study.Run(ctx, preexec.TargetP)       // ED-targeted p-threads
//	fmt.Println(run.SpeedupPct, run.EnergySavePct)
//
// A Lab owns a memoizing artifact store keyed by (benchmark, input, config
// fingerprint): every expensive preparation — trace, profile, slice trees,
// criticality curves, baseline simulation — happens at most once per engine,
// so regenerating several figures over the same benchmark suite performs
// O(benchmarks) preparations instead of O(figures × benchmarks). Engines
// are configured with functional options:
//
//	lab := preexec.New(
//	        preexec.WithConfig(cfg),        // processor/selection configuration
//	        preexec.WithParallelism(4),     // bounded campaign worker pool
//	        preexec.WithObserver(func(ev preexec.Event) { log.Println(ev.Kind, ev.Bench) }),
//	)
//
// Every entry point takes a context.Context that is honored mid-simulation:
// cancelling the context aborts even a multi-billion-cycle run promptly.
//
// The experiment entry points (Figure2, Figure3, Table3, Figure4, Figure5,
// ED2Study, RunCampaign) regenerate the paper's evaluation artifacts as
// structured, JSON-marshalable Report values; call Render on a report for
// the human-readable table (see EXPERIMENTS.md for paper-vs-measured
// values and the report schema).
//
// Beyond the paper's nine built-in workloads, the seeded workload generator
// opens the rest of the memory-behaviour space: a WorkloadSpec declares a
// family (pointer-chase, hash-probe, tree-walk, blocked-stream,
// branchy-parser), a seed and knobs, and Lab.RegisterSpecs turns specs into
// benchmarks usable everywhere names are (see also Grid.Workloads and
// GenAxis for sweeping generator knobs like configuration knobs):
//
//	names, _ := lab.RegisterSpecs(preexec.WorkloadSpec{Family: preexec.FamilyPointerChase, Seed: 7})
//	rep, _ := lab.RunCampaign(ctx, names, []preexec.Target{preexec.TargetP})
//
// # Observability probes
//
// A Lab exposes counters that pin its caching guarantees in tests and let
// servers report cache health: StagePrepares(stage) counts cold executions
// of one preparation pipeline stage (the per-stage reuse guarantee — a
// swept knob rebuilds only the stages that read it); StoreStats snapshots
// every stage's request outcomes (cold, cached, shared in-flight, disk
// load) plus the disk tier's counters; DiskStoreErr reports whether a
// requested disk store opened.
package preexec

import (
	"context"
	"fmt"

	"repro/internal/artifactdisk"
	"repro/internal/cpu"
	"repro/internal/experiments"
	"repro/internal/isa"
	"repro/internal/program"
	"repro/internal/program/gen"
	"repro/internal/pthsel"
	"repro/internal/trace"
)

// Re-exported core types. The micro-ISA types are aliased so custom
// workloads can be written against this package alone.
type (
	// Config parameterizes the processor, hierarchy, energy model and
	// selection framework.
	Config = experiments.Config
	// Target selects the optimization objective (latency, energy, ED, ED²).
	Target = pthsel.Target
	// Result is one simulation's outcome.
	Result = cpu.Result
	// TargetRun couples a selection with its measured run and derived
	// percentages.
	TargetRun = experiments.TargetRun
	// PThread is a static pre-execution thread (DDMT model).
	PThread = cpu.PThread
	// Selection is the output of the selection framework.
	Selection = pthsel.Selection
	// Program is an executable workload (code + initial data image).
	Program = isa.Program
	// Builder assembles custom workload programs.
	Builder = isa.Builder
	// Inst is a single micro-ISA instruction.
	Inst = isa.Inst
	// Reg identifies an architectural register (R0 is hardwired zero).
	Reg = isa.Reg

	// Event is a progress notification delivered to a Lab's observer.
	Event = experiments.Event
	// EventKind classifies an Event.
	EventKind = experiments.EventKind
	// SweepAxis identifies a Figure 5 sensitivity axis.
	SweepAxis = experiments.SweepAxis
	// Stage identifies one stage of the staged preparation pipeline
	// (trace → profile → problems → slices/curves, trace → baseline →
	// params); see Lab.StagePrepares.
	Stage = experiments.Stage
	// Grid declares a multi-axis sensitivity sweep (cartesian product of
	// axes × benchmarks × targets); see Lab.Sweep.
	Grid = experiments.Grid
	// Axis is one named dimension of a sweep Grid.
	Axis = experiments.Axis
	// AxisPoint is one point on an Axis: a label plus the configuration
	// mutation realizing it.
	AxisPoint = experiments.AxisPoint
	// StoreStats is a Lab's artifact-store observability snapshot: per-stage
	// request outcomes plus, when a disk store is attached, the spill tier's
	// counters (see Lab.StoreStats).
	StoreStats = experiments.StoreStats
	// StageStoreStats is one pipeline stage's request-outcome counters.
	StageStoreStats = experiments.StageStoreStats
	// DiskStoreStats is the on-disk spill tier's counter snapshot.
	DiskStoreStats = artifactdisk.Stats

	// WorkloadSpec declares one generated synthetic workload: a memory-
	// behaviour family, a seed, and knobs for working-set size, chain depth,
	// problem-load count, branch mix and ILP width. Specs are pure values:
	// equal specs always materialize bit-identical programs (see
	// Lab.RegisterSpecs).
	WorkloadSpec = gen.Spec
	// WorkloadFamily names a generator memory-behaviour family.
	WorkloadFamily = gen.Family
	// WorkloadPoint is one generated workload participating in a sweep Grid
	// (see Grid.Workloads).
	WorkloadPoint = experiments.WorkloadPoint
	// GenPoint is one point on a generator-knob axis: a label plus a spec
	// mutation (see GenAxis).
	GenPoint = experiments.GenPoint

	// Report is a structured, JSON-marshalable experiment artifact with a
	// Render method producing the human-readable table.
	Report = experiments.Report
	// Figure2Report holds Figure 2's time and energy breakdowns.
	Figure2Report = experiments.Figure2Report
	// Figure3Report holds Figure 3's improvements and diagnostics.
	Figure3Report = experiments.Figure3Report
	// Table3Report holds Table 3's model-validation ratios.
	Table3Report = experiments.Table3Report
	// Figure4Report holds the realistic-profiling results.
	Figure4Report = experiments.Figure4Report
	// Figure5Report holds one sensitivity sweep.
	Figure5Report = experiments.Figure5Report
	// SweepReport holds a declarative multi-axis sweep grid's results.
	SweepReport = experiments.SweepReport
	// SweepPointReport is one (benchmark, grid point) sweep evaluation.
	SweepPointReport = experiments.SweepPointReport
	// ED2Report holds the ED² study.
	ED2Report = experiments.ED2Report
	// CampaignReport holds a campaign's partial results and per-run errors.
	CampaignReport = experiments.CampaignReport
	// RunReport is the JSON-stable summary of one measured run.
	RunReport = experiments.RunReport
	// BaselineReport summarizes one unoptimized run.
	BaselineReport = experiments.BaselineReport
)

// Selection targets, named as in the paper: O (original flat-cost PTHSEL),
// L (criticality-based latency), E (energy), P (ED), P2 (ED²).
const (
	TargetO  = pthsel.TargetO
	TargetL  = pthsel.TargetL
	TargetE  = pthsel.TargetE
	TargetP  = pthsel.TargetP
	TargetP2 = pthsel.TargetP2
)

// Figure 5's sensitivity axes.
const (
	SweepIdleFactor = experiments.SweepIdleFactor
	SweepMemLatency = experiments.SweepMemLatency
	SweepL2Size     = experiments.SweepL2Size
)

// Generator workload families (see WorkloadSpec).
const (
	FamilyPointerChase  = gen.PointerChase
	FamilyHashProbe     = gen.HashProbe
	FamilyTreeWalk      = gen.TreeWalk
	FamilyBlockedStream = gen.BlockedStream
	FamilyBranchyParser = gen.BranchyParser
)

// WorkloadFamilies lists every generator family.
func WorkloadFamilies() []WorkloadFamily { return gen.Families() }

// ParseWorkloadSpec parses the generator's CLI spec grammar,
// family:seed[:knob=value,...] — e.g. "pointer-chase:7" or
// "hash-probe:42:ws=131072,loads=2,branch=30" — as used by cmd/sweep's
// -gen flag. Knob keys: ws, depth, loads, branch, ilp.
func ParseWorkloadSpec(s string) (WorkloadSpec, error) { return gen.Parse(s) }

// GenAxis expands a base workload spec through per-point mutations into the
// Workloads dimension of a sweep Grid, so generator knobs sweep exactly like
// configuration knobs:
//
//	g := preexec.Grid{
//	        Workloads: preexec.GenAxis(preexec.WorkloadSpec{Family: preexec.FamilyPointerChase, Seed: 1},
//	                preexec.GenPoint{Label: "d=500", Mutate: func(s *preexec.WorkloadSpec) { s.Depth = 500 }},
//	                preexec.GenPoint{Label: "d=2000", Mutate: func(s *preexec.WorkloadSpec) { s.Depth = 2000 }}),
//	        Axes: []preexec.Axis{preexec.GridAxis(preexec.SweepIdleFactor)},
//	}
func GenAxis(base WorkloadSpec, pts ...GenPoint) []WorkloadPoint {
	return experiments.GenAxis(base, pts...)
}

// Preparation pipeline stages, in dependency order (see Lab.StagePrepares).
const (
	StageTrace    = experiments.StageTrace
	StageProfile  = experiments.StageProfile
	StageProblems = experiments.StageProblems
	StageSlices   = experiments.StageSlices
	StageCurves   = experiments.StageCurves
	StageBaseline = experiments.StageBaseline
	StageParams   = experiments.StageParams
	StagePrepared = experiments.StagePrepared
)

// Stages lists every preparation pipeline stage in dependency order,
// StagePrepared last — the key set of Lab.StoreStats().Stages.
func Stages() []Stage { return experiments.Stages() }

// Observer event kinds.
const (
	EventPrepareStart  = experiments.EventPrepareStart
	EventPrepareDone   = experiments.EventPrepareDone
	EventPrepareCached = experiments.EventPrepareCached
	EventStageStart    = experiments.EventStageStart
	EventStageDone     = experiments.EventStageDone
	EventStageCached   = experiments.EventStageCached
	EventStageSpill    = experiments.EventStageSpill
	EventRunStart      = experiments.EventRunStart
	EventRunDone       = experiments.EventRunDone
	EventBenchDone     = experiments.EventBenchDone
	EventPointDone     = experiments.EventPointDone
)

// DefaultConfig returns the paper's configuration: 6-wide 15-stage core,
// 128-entry ROB, 80 reservation stations, 8 contexts, 32K/16K/256K caches,
// 200-cycle memory, 5% idle energy factor, 2048-instruction slicing window
// and 64-instruction p-threads.
func DefaultConfig() Config { return experiments.DefaultConfig() }

// NewBuilder starts a custom workload program.
func NewBuilder(name string) *Builder { return isa.NewBuilder(name) }

// Benchmarks lists every registered workload, sorted by name: the nine
// SPEC2000-like built-ins plus any generated workloads registered through
// RegisterSpecs or sweep grids.
func Benchmarks() []string { return program.Names() }

// PaperBenchmarks returns the paper's nine benchmarks in the paper's own
// presentation order, independent of what else is registered.
func PaperBenchmarks() []string { return experiments.PaperBenchmarks() }

// ParseTarget parses a selection-target name (O, L, E, P, P2) as used in
// the paper's figures and this package's CLIs.
func ParseTarget(s string) (Target, error) {
	for _, t := range []Target{TargetO, TargetL, TargetE, TargetP, TargetP2} {
		if t.String() == s {
			return t, nil
		}
	}
	return 0, fmt.Errorf("unknown target %q (want O, L, E, P or P2)", s)
}

// Option configures a Lab.
type Option func(*Lab)

// WithConfig sets the engine's configuration (default: DefaultConfig).
func WithConfig(cfg Config) Option { return func(l *Lab) { l.cfg = cfg } }

// WithParallelism bounds the worker pool used by figures and campaigns
// (default and <= 0: GOMAXPROCS).
func WithParallelism(n int) Option { return func(l *Lab) { l.parallelism = n } }

// WithObserver registers a progress callback. Events are delivered
// serialized (never concurrently) but from worker goroutines.
func WithObserver(fn func(Event)) Option { return func(l *Lab) { l.observe = fn } }

// WithDiskStore attaches an on-disk content-addressed spill tier at dir
// behind the engine's in-memory artifact store, with a byte budget
// (maxBytes <= 0: unlimited; least-recently-used artifacts are evicted over
// budget). Stage artifacts are persisted under their content fingerprints,
// so a fresh Lab pointed at a populated directory satisfies every heavy
// preparation stage with a verified disk load instead of a rebuild — the
// restart-warm guarantee behind the lab daemon. Corrupt files are
// quarantined and rebuilt, never fatal. A directory that cannot be opened
// surfaces through Lab.DiskStoreErr (the Lab still works, uncached).
func WithDiskStore(dir string, maxBytes int64) Option {
	return func(l *Lab) {
		l.diskDir = dir
		l.diskMax = maxBytes
		l.diskSet = true
	}
}

// WithEventTag returns a context whose engine events carry tag, letting one
// observer attribute events from concurrent entry points over a shared Lab
// (the daemon routes events to jobs with it). Events emitted from inside a
// build shared between concurrent callers carry the computing caller's tag.
func WithEventTag(ctx context.Context, tag string) context.Context {
	return experiments.WithEventTag(ctx, tag)
}

// Lab is the experiment engine: it owns the artifact store (one preparation
// per benchmark × input × configuration, shared by every figure, sweep,
// study and campaign run through it) and the bounded worker pool. A Lab is
// safe for concurrent use.
type Lab struct {
	cfg         Config
	parallelism int
	observe     func(Event)
	run         *experiments.Runner
	cfgErr      error

	diskDir string
	diskMax int64
	diskSet bool
	diskErr error
}

// New creates a Lab engine. A processor configuration the simulator cannot
// run (a zero width or window, no thread context, a negative latency) is
// caught here: every entry point then fails with that one error (also
// available up front through ConfigErr).
func New(opts ...Option) *Lab {
	l := &Lab{cfg: experiments.DefaultConfig()}
	for _, opt := range opts {
		opt(l)
	}
	l.cfgErr = l.cfg.CPU.Validate()
	l.run = experiments.NewRunner(l.cfg, l.parallelism, l.observe)
	if l.diskSet {
		l.diskErr = l.run.AttachDiskStore(l.diskDir, l.diskMax)
	}
	return l
}

// ConfigErr reports whether the engine's configuration validated at
// construction; entry points of a Lab with a non-nil ConfigErr return it.
// Servers check it at startup to reject a bad engine configuration loudly
// instead of failing on the first job.
func (l *Lab) ConfigErr() error { return l.cfgErr }

// DiskStoreErr reports whether WithDiskStore's directory could be opened;
// nil when no disk store was requested. A Lab with a failed disk store
// still works — every preparation is simply cold — so servers check this at
// startup to fail loudly instead of silently running uncached.
func (l *Lab) DiskStoreErr() error { return l.diskErr }

// Config returns the engine's configuration.
func (l *Lab) Config() Config { return l.cfg }

// ErrClosed is returned by every call on a Lab, and on a Study it returned,
// after Lab.Close.
var ErrClosed = experiments.ErrClosed

// Close ends the Lab's lifetime. It unmaps every trace the engine serves
// from its disk store's files, and every later call on the Lab or on a
// Study it returned fails with ErrClosed instead of reading unmapped
// memory; the counters (StagePrepares, StoreStats) keep working. Call it
// once every call on the Lab has returned. Close is idempotent.
func (l *Lab) Close() error { return l.run.Close() }

// err is what an entry point returns before doing any work: ErrClosed
// after Close, else the configuration's validation error.
func (l *Lab) err() error {
	if l.run.Closed() {
		return ErrClosed
	}
	return l.cfgErr
}

// StagePrepares reports how many cold executions of one preparation
// pipeline stage the engine has performed; StagePrepares(StagePrepared)
// counts whole-config preparations. It is the observable behind the
// per-stage reuse guarantee: a mutated knob re-fingerprints only the
// stages that read it, so a 3-point sweep along an axis a stage never
// looks at (e.g. idle factor or memory latency for trace/profile/slices)
// executes that stage exactly once per benchmark.
func (l *Lab) StagePrepares(stage Stage) int64 { return l.run.StagePrepares(stage) }

// StoreStats snapshots the engine's artifact-store counters, generalizing
// StagePrepares: per stage, how many requests executed it cold, were served
// from a completed in-memory entry, shared another caller's in-flight
// build, or were satisfied by a disk-tier load — plus the disk store's own
// counters when one is attached. The cold counts are the observable behind
// the build-once guarantee; the spill-load counts behind the restart-warm
// guarantee.
func (l *Lab) StoreStats() StoreStats { return l.run.StoreStats() }

// RegisterSpecs materializes and registers generated workloads, returning
// their canonical benchmark names in argument order. Registered names work
// everywhere built-in names do — studies, campaigns, figures, sweep grids —
// and their preparations flow through the same staged artifact store, keyed
// by the spec's content fingerprint. Registration is global (the benchmark
// registry is shared by every Lab) and idempotent: re-registering an
// identical spec, even concurrently from campaign workers, is a no-op.
//
//	names, err := lab.RegisterSpecs(
//	        preexec.WorkloadSpec{Family: preexec.FamilyPointerChase, Seed: 1},
//	        preexec.WorkloadSpec{Family: preexec.FamilyHashProbe, Seed: 2, ProblemLoads: 2},
//	)
//	rep, err := lab.RunCampaign(ctx, names, []preexec.Target{preexec.TargetP})
func (l *Lab) RegisterSpecs(specs ...WorkloadSpec) ([]string, error) {
	return gen.Register(specs...)
}

// Benchmark builds a named synthetic workload on its Train input. Unknown
// names return an error; use Benchmarks for the list.
func (l *Lab) Benchmark(name string) (*Program, error) {
	bm, err := program.ByName(name)
	if err != nil {
		return nil, err
	}
	return bm.Build(program.Train), nil
}

// Study owns everything needed to select and measure p-threads for one
// program: its trace, profile, slice trees, criticality curves and baseline
// simulation.
type Study struct {
	lab  *Lab
	prep *experiments.Prepared
}

// Analyze traces, profiles and baselines a custom program.
func (l *Lab) Analyze(ctx context.Context, prog *Program) (*Study, error) {
	if err := l.err(); err != nil {
		return nil, err
	}
	if err := prog.Validate(); err != nil {
		return nil, err
	}
	tr, err := trace.Run(prog)
	if err != nil {
		return nil, fmt.Errorf("preexec: %w", err)
	}
	prep, err := experiments.PrepareTrace(ctx, prog.Name, tr, l.cfg)
	if err != nil {
		return nil, err
	}
	return &Study{lab: l, prep: prep}, nil
}

// AnalyzeBenchmark is Analyze for a named built-in workload. The
// preparation goes through the artifact store, so repeated studies and
// figures over the same benchmark share one.
func (l *Lab) AnalyzeBenchmark(ctx context.Context, name string) (*Study, error) {
	if err := l.err(); err != nil {
		return nil, err
	}
	prep, err := l.run.Prepare(ctx, name, l.cfg.MeasureInput, l.cfg)
	if err != nil {
		return nil, err
	}
	return &Study{lab: l, prep: prep}, nil
}

// Baseline returns the unoptimized simulation result.
func (s *Study) Baseline() *Result { return s.prep.Baseline }

// Select runs PTHSEL/PTHSEL+E under the given target.
func (s *Study) Select(ctx context.Context, target Target) (*Selection, error) {
	if err := s.lab.err(); err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return pthsel.Select(s.prep.Trace, s.prep.Prof, s.prep.Trees, s.prep.Params, target), nil
}

// Measure simulates the program with the selection's p-threads installed
// and derives the paper's metrics against the study's baseline. The context
// is honored mid-simulation; the run goes through the engine's simulator
// pool, so repeated measurements reuse one fully-grown simulator, and it
// records the simulation's wall-clock time (see TargetRun.SimCyclesPerSec).
func (s *Study) Measure(ctx context.Context, sel *Selection) (*TargetRun, error) {
	if err := s.lab.err(); err != nil {
		return nil, err
	}
	return experiments.MeasureSelection(ctx, s.lab.cfg.CPU, s.prep, sel)
}

// Run is Select followed by Measure.
func (s *Study) Run(ctx context.Context, target Target) (*TargetRun, error) {
	sel, err := s.Select(ctx, target)
	if err != nil {
		return nil, err
	}
	return s.Measure(ctx, sel)
}

// RunCampaign evaluates benchmarks × targets on the bounded worker pool
// with partial-result reporting: one failing benchmark does not discard the
// others. The returned error is non-nil only for context cancellation;
// per-benchmark failures are carried inside the report (see
// CampaignReport.Err).
func (l *Lab) RunCampaign(ctx context.Context, names []string, targets []Target) (*CampaignReport, error) {
	if err := l.err(); err != nil {
		return nil, err
	}
	return l.run.Campaign(ctx, names, targets)
}

// Figure2 reproduces the paper's Figure 2 breakdowns for the given
// benchmarks.
func (l *Lab) Figure2(ctx context.Context, names []string) (*Figure2Report, error) {
	if err := l.err(); err != nil {
		return nil, err
	}
	return l.run.Figure2(ctx, names)
}

// Figure3 reproduces the paper's primary study (Figure 3).
func (l *Lab) Figure3(ctx context.Context, names []string) (*Figure3Report, error) {
	if err := l.err(); err != nil {
		return nil, err
	}
	return l.run.Figure3(ctx, names)
}

// Table3 reproduces the paper's model-validation table.
func (l *Lab) Table3(ctx context.Context, names []string) (*Table3Report, error) {
	if err := l.err(); err != nil {
		return nil, err
	}
	return l.run.Table3(ctx, names)
}

// Figure4 reproduces the realistic-profiling experiment (§5.3).
func (l *Lab) Figure4(ctx context.Context, names []string) (*Figure4Report, error) {
	if err := l.err(); err != nil {
		return nil, err
	}
	return l.run.Figure4(ctx, names)
}

// Figure5 reproduces one sensitivity sweep (Figure 5).
func (l *Lab) Figure5(ctx context.Context, axis SweepAxis, names []string) (*Figure5Report, error) {
	if err := l.err(); err != nil {
		return nil, err
	}
	return l.run.Figure5(ctx, axis, names)
}

// ED2Study reproduces the §5.1 ED² discussion.
func (l *Lab) ED2Study(ctx context.Context, names []string) (*ED2Report, error) {
	if err := l.err(); err != nil {
		return nil, err
	}
	return l.run.ED2Study(ctx, names)
}

// Sweep evaluates a declarative multi-axis sensitivity grid: the cartesian
// product of the grid's axes, for every benchmark, under every target
// (default: the paper's L, E and P). Points are prepared through the staged
// artifact store, so a grid's points share every upstream artifact their
// configurations agree on — a 3-point idle-factor or memory-latency sweep
// performs one trace, one profile and one slice-tree build per benchmark,
// not three. Per-point progress is streamed to the observer as
// EventPointDone events.
//
//	rep, err := lab.Sweep(ctx, preexec.Grid{
//	        Axes:       []preexec.Axis{preexec.GridAxis(preexec.SweepIdleFactor), preexec.GridAxis(preexec.SweepMemLatency)},
//	        Benchmarks: []string{"mcf", "twolf"},
//	})
func (l *Lab) Sweep(ctx context.Context, g Grid) (*SweepReport, error) {
	if err := l.err(); err != nil {
		return nil, err
	}
	return l.run.Sweep(ctx, g)
}

// Suite runs fn as one call scope for measurements: every figure, table,
// sweep and campaign fn issues on this Lab through the context it receives
// shares one table of timing runs, so a (trace, timing configuration,
// p-thread list) run that several artifacts measure simulates once. Each
// artifact is byte-identical to its standalone call, except that a run
// another artifact already simulated reports no SimCyclesPerSec. Each
// target keeps its own run-start/run-done events. The table dies when
// Suite returns; outside Suite every entry point call gets its own.
//
//	err := lab.Suite(ctx, func(ctx context.Context) error {
//	        f3, err := lab.Figure3(ctx, names)
//	        ...
//	        f5, err := lab.Figure5(ctx, preexec.SweepIdleFactor, names)
//	        ...
//	})
func (l *Lab) Suite(ctx context.Context, fn func(ctx context.Context) error) error {
	return l.run.Suite(ctx, fn)
}

// CheckSweep validates a grid without running it, exactly as Sweep does
// before it runs anything: an unknown, duplicated or missing benchmark or a
// bad workload spec is the error Sweep would return. Like Sweep, it
// registers the grid's workload specs; it builds nothing and touches no
// counters.
func (l *Lab) CheckSweep(g Grid) error {
	if err := l.err(); err != nil {
		return err
	}
	return l.run.CheckSweep(g)
}

// GridAxis converts a Figure 5 sensitivity axis into a declarative sweep
// axis (the paper's three points).
func GridAxis(axis SweepAxis) Axis { return experiments.GridAxis(axis) }

// ParseSweepAxis parses a sensitivity-axis name ("idle", "mem", "l2", or
// the canonical axis names) as used by cmd/sweep and the paper's figures.
func ParseSweepAxis(s string) (SweepAxis, error) { return experiments.ParseSweepAxis(s) }

// Figure5Benchmarks returns the paper's per-axis benchmark triples.
func Figure5Benchmarks(axis SweepAxis) []string { return experiments.Figure5Benchmarks(axis) }

// Table3Benchmarks returns the paper's validation benchmarks.
func Table3Benchmarks() []string { return experiments.Table3Benchmarks() }
