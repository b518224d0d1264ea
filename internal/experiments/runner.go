package experiments

import (
	"context"
	"errors"
	"fmt"
	"math"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"repro/internal/artifactdisk"
	"repro/internal/program"
	"repro/internal/pthsel"
)

// EventKind classifies an observer notification.
type EventKind string

// Observer event kinds, in lifecycle order.
const (
	EventPrepareStart  EventKind = "prepare-start"  // a cold preparation assembly began
	EventPrepareDone   EventKind = "prepare-done"   // a cold preparation assembly finished
	EventPrepareCached EventKind = "prepare-cached" // the artifact store satisfied a whole preparation
	EventStageStart    EventKind = "stage-start"    // a cold pipeline stage began (Stage names it)
	EventStageDone     EventKind = "stage-done"     // a cold pipeline stage finished
	EventStageCached   EventKind = "stage-cached"   // the artifact store satisfied a pipeline stage
	EventStageSpill    EventKind = "stage-spill"    // the disk tier satisfied a pipeline stage
	EventRunStart      EventKind = "run-start"      // one (benchmark, target) measurement began
	EventRunDone       EventKind = "run-done"       // one (benchmark, target) measurement finished
	EventPointDone     EventKind = "point-done"     // one sweep grid point finished (Point labels it)
)

// Event is one progress notification delivered to a Runner's observer.
// Fields beyond Kind and Bench are populated where meaningful: Input for
// preparation and stage events, Stage for stage events, Target for run
// events, Point and Done/Total for sweep progress, Err when the step
// failed.
type Event struct {
	Kind   EventKind
	Bench  string
	Input  string
	Stage  string
	Target string
	Point  string
	Done   int
	Total  int
	Err    error

	// DurationNS carries the build's wall-clock nanoseconds on
	// EventStageDone and EventPrepareDone (0 otherwise), for observers
	// timing builds; the scheduler does not read it.
	DurationNS int64

	// SimCyclesPerSec carries the run's measured simulator throughput on
	// EventRunDone (0 otherwise), so observers can stream substrate health
	// alongside progress.
	SimCyclesPerSec float64

	// Tag carries the submission tag threaded through the context (see
	// WithEventTag), so a shared observer can attribute events from
	// concurrent entry points — the daemon routes them to jobs with it.
	Tag string
}

// eventTagKey is the context key behind WithEventTag.
type eventTagKey struct{}

// WithEventTag returns a context whose Runner events carry tag, letting one
// observer demultiplex concurrent Sweeps and Prepares over a shared
// engine. Events emitted from inside a shared singleflight build carry the
// computing caller's tag.
func WithEventTag(ctx context.Context, tag string) context.Context {
	return context.WithValue(ctx, eventTagKey{}, tag)
}

func eventTag(ctx context.Context) string {
	tag, _ := ctx.Value(eventTagKey{}).(string)
	return tag
}

// Runner is the experiment engine behind the public Lab façade. It owns the
// staged artifact store — every pipeline stage cached under a per-stage
// content fingerprint, so figures, sweeps and studies sharing one Runner
// share every upstream artifact their configurations agree on — and the
// bounded fan-out executor (runDAG) that every multi-benchmark entry point
// runs on.
type Runner struct {
	cfg         Config
	parallelism int
	observe     func(Event)

	// sched lets the executor expand the preparation chains sinks declare
	// (the default). Tests clear it to claim sweep sinks in naive
	// bench-major job order, each running its own Prepare. It is scheduling
	// state, deliberately outside Config so it never reaches a fingerprint:
	// clearing it changes build order, not results.
	sched bool

	// mappedSpill enables the zero-copy mmap trace-spill path (the
	// default). Tests clear it to force the chunk-parallel heap decode of
	// warm trace loads. Like sched it is never part of a fingerprint:
	// results are byte-identical mapped or decoded, only the load cost
	// changes.
	mappedSpill bool

	// mappings holds the live artifact mappings whose columns back mapped
	// traces, warm-loaded or remapped after a cold build (mapSpill). The
	// in-memory artifacts they back live until Close, which unmaps them
	// and sets closed so no later request can read one; the store's
	// deferred byte accounting handles eviction underneath a live reader.
	mapMu    sync.Mutex
	mappings []*artifactdisk.Mapping
	closed   atomic.Bool

	obsMu sync.Mutex // serializes observer callbacks

	store *artifactStore
	disk  *artifactdisk.Store // optional spill tier (see AttachDiskStore)

	stats []stageCounters // per-stage request outcomes, by stageTable row
}

// stageCounters tallies one stage's artifact-store request outcomes and
// cold-build latencies.
type stageCounters struct {
	cold   atomic.Int64 // this engine executed the stage
	hit    atomic.Int64 // served from a completed in-memory entry
	shared atomic.Int64 // waited on another caller's in-flight build
	spill  atomic.Int64 // satisfied by a disk-tier load
	mapped atomic.Int64 // of the spill loads, served via the mmap path
	lat    latencyReservoir
}

// NewRunner creates an engine over cfg. parallelism bounds the executor's
// workers (<= 0 means GOMAXPROCS); observe, if non-nil,
// receives progress events (serialized, from worker goroutines).
func NewRunner(cfg Config, parallelism int, observe func(Event)) *Runner {
	if parallelism <= 0 {
		parallelism = runtime.GOMAXPROCS(0)
	}
	return &Runner{
		cfg:         cfg,
		parallelism: parallelism,
		observe:     observe,
		sched:       true,
		mappedSpill: true,
		store:       newArtifactStore(),
		stats:       make([]stageCounters, len(stageTable)),
	}
}

// Config returns the engine's base configuration.
func (r *Runner) Config() Config { return r.cfg }

// ErrClosed is returned by every stage request of a closed Runner.
var ErrClosed = errors.New("experiments: engine closed")

// Close ends the engine's lifetime: it unmaps every spill mapping the
// engine retains — the mapped traces its store serves — and every later
// stage request fails with ErrClosed instead of reading unmapped memory.
// Call it once every call on the engine has returned; StoreStats keeps
// working. Close is idempotent.
func (r *Runner) Close() error {
	r.mapMu.Lock()
	defer r.mapMu.Unlock()
	r.closed.Store(true)
	var errs []error
	for _, m := range r.mappings {
		errs = append(errs, m.Close())
	}
	r.mappings = nil
	return errors.Join(errs...)
}

// Closed reports whether Close has been called.
func (r *Runner) Closed() bool { return r.closed.Load() }

// StagePrepares reports how many cold executions of one pipeline stage the
// engine has performed, across all benchmarks and configurations — the
// observable behind the per-stage reuse guarantee (a 3-point sweep along an
// axis a stage never reads executes that stage once per benchmark). A stage
// satisfied by the disk spill tier is not a cold execution; StoreStats
// breaks out every outcome. StagePrepares(StagePrepared) counts
// whole-config preparations.
func (r *Runner) StagePrepares(st Stage) int64 {
	i := stageRow(st)
	if i < 0 {
		return 0
	}
	return r.stats[i].cold.Load()
}

// latencyWindow bounds each stage's latency reservoir: percentiles are over
// the most recent builds, so a daemon that has been up for days reports
// current behaviour, not its lifetime average.
const latencyWindow = 256

// latencyReservoir is a mutex-guarded ring of recent build durations, the
// sample behind the per-stage p50/p95 in StoreStats.
type latencyReservoir struct {
	mu  sync.Mutex
	buf []int64 // nanoseconds, ring once full
	pos int
}

func (l *latencyReservoir) record(ns int64) {
	l.mu.Lock()
	if len(l.buf) < latencyWindow {
		l.buf = append(l.buf, ns)
	} else {
		l.buf[l.pos] = ns
		l.pos = (l.pos + 1) % latencyWindow
	}
	l.mu.Unlock()
}

// percentiles reports the window's p50 and p95 (nearest-rank), 0/0 when no
// build has been observed.
func (l *latencyReservoir) percentiles() (p50, p95 int64) {
	l.mu.Lock()
	s := append([]int64(nil), l.buf...)
	l.mu.Unlock()
	if len(s) == 0 {
		return 0, 0
	}
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	// The nearest rank of q is the ceil(q·n)-th smallest of n samples.
	rank := func(q float64) int64 {
		return s[int(math.Ceil(q*float64(len(s))))-1]
	}
	return rank(0.50), rank(0.95)
}

func (r *Runner) emit(ctx context.Context, ev Event) { r.emitDone(ctx, ev, nil) }

// emitDone delivers ev and, with a non-nil done, numbers it as the call's
// next completion: done is counted under the lock that orders delivery, so
// observers see Done run 1..Total however the workers race to finish.
func (r *Runner) emitDone(ctx context.Context, ev Event, done *int) {
	if r.observe == nil {
		return
	}
	ev.Tag = eventTag(ctx)
	r.obsMu.Lock()
	defer r.obsMu.Unlock()
	if done != nil {
		*done++
		ev.Done = *done
	}
	r.observe(ev)
}

// Prepare returns the (benchmark, input, cfg) preparation. The assembled
// whole-config view is computed at most once per engine, and each of its
// pipeline stages is cached individually under a per-stage content
// fingerprint, so two configurations that agree on the fields a stage reads
// share that stage's artifact (a sweep point that mutates one knob rebuilds
// only the stages downstream of it). Concurrent requests for the same
// artifact share a single in-flight computation. Failed computations are
// cached (a benchmark that cannot prepare will not prepare on retry) except
// when the failure was a context cancellation, which is the waiting
// caller's problem, not the artifact's.
func (r *Runner) Prepare(ctx context.Context, name string, input program.InputClass, cfg Config) (*Prepared, error) {
	if err := cfg.CPU.Validate(); err != nil {
		return nil, err
	}
	// The outer key needs only the whole-config fingerprint chained through
	// the workload fingerprint; the full stage plan is computed once, on a
	// cold miss, inside stagedPrepare.
	wfp, err := workloadFingerprint(name)
	if err != nil {
		return nil, err
	}
	fp, err := preparedFingerprint(cfg, wfp)
	if err != nil {
		return nil, err
	}
	key := artifactKey{name: name, input: input, stage: StagePrepared, fp: fp}
	val, err := r.stage(ctx, key, func() (any, error) { return r.stagedPrepare(ctx, name, input, cfg) })
	if err != nil {
		return nil, err
	}
	return val.(*Prepared), nil
}

// validateNames rejects unknown and silently-duplicated benchmark names
// with a single error listing every problem and the valid set. Entry points
// that fan out over benchmark lists (figures, sweeps) call it up front so a
// typo fails fast instead of surfacing as one opaque per-benchmark failure
// deep in a long run.
func validateNames(names []string) error {
	if len(names) == 0 {
		return errors.New("experiments: no benchmarks given")
	}
	valid := make(map[string]bool)
	for _, n := range program.Names() {
		valid[n] = true
	}
	seen := make(map[string]bool, len(names))
	var unknown, dups []string
	for _, n := range names {
		if !valid[n] {
			unknown = append(unknown, n)
		} else if seen[n] {
			dups = append(dups, n)
		}
		seen[n] = true
	}
	if len(unknown) == 0 && len(dups) == 0 {
		return nil
	}
	all := program.Names()
	sort.Strings(all)
	var parts []string
	if len(unknown) > 0 {
		parts = append(parts, fmt.Sprintf("unknown benchmarks %s", strings.Join(unknown, ", ")))
	}
	if len(dups) > 0 {
		parts = append(parts, fmt.Sprintf("duplicated benchmarks %s", strings.Join(dups, ", ")))
	}
	return fmt.Errorf("experiments: %s (valid: %s)", strings.Join(parts, "; "), strings.Join(all, ", "))
}

func isContextErr(err error) bool {
	return errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
}

// ideal prepares bench under cfg and measures every target on that one
// preparation (ideal profiling: selection and measurement share it).
func (r *Runner) ideal(ctx context.Context, bench string, targets []pthsel.Target, cfg Config) (*Prepared, []*TargetRun, error) {
	prep, err := r.Prepare(ctx, bench, cfg.MeasureInput, cfg)
	if err != nil {
		return nil, nil, err
	}
	runs, err := r.measure(ctx, bench, prep, prep, targets, cfg)
	return prep, runs, err
}

// measure selects p-threads on sel for each target in order and measures
// them on meas through the call's timing runs (see timing.go): a target
// whose run the call already has — the baseline for an empty selection, an
// earlier target's or another sink's for the same p-threads on the same
// trace and timing configuration — derives it without simulating, so its
// SimSeconds stays 0. Each target gets its own run-start/run-done pair.
func (r *Runner) measure(ctx context.Context, bench string, sel, meas *Prepared, targets []pthsel.Target, cfg Config) ([]*TargetRun, error) {
	c, err := newChain(bench, meas.Input, cfg)
	if err != nil {
		return nil, err
	}
	key := c.key(StageBaseline)
	runs := make([]*TargetRun, 0, len(targets))
	for _, tgt := range targets {
		r.emit(ctx, Event{Kind: EventRunStart, Bench: bench, Target: tgt.String()})
		var run *TargetRun
		err := ctx.Err()
		if err == nil {
			run, err = timingRun(ctx, key, cfg.CPU, meas, pthsel.Select(sel.Trace, sel.Prof, sel.Trees, sel.Params, tgt))
		}
		ev := Event{Kind: EventRunDone, Bench: bench, Target: tgt.String(), Err: err}
		if err == nil {
			ev.SimCyclesPerSec = run.SimCyclesPerSec()
		}
		r.emit(ctx, ev)
		if err != nil {
			return nil, err
		}
		runs = append(runs, run)
	}
	return runs, nil
}

func targetNames(targets []pthsel.Target) []string {
	names := make([]string, len(targets))
	for i, t := range targets {
		names[i] = t.String()
	}
	return names
}
