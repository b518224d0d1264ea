package experiments

// The one fan-out executor and its critical-path scheduling. Every
// multi-benchmark entry point — figures, sweeps, campaigns — is a list of
// measurement sinks (one per figure benchmark, campaign benchmark or grid
// point), each writing its own preassigned result slot. A sink may declare
// the (benchmark, input, config) preparation chain it consumes; before
// fan-out every declared chain is expanded into an explicit dependency DAG —
// stage nodes deduplicated across sinks by artifact key — and each node's
// remaining critical-path cost is projected from the fixed stageCost table.
// The bounded worker pool then pulls ready nodes longest-critical-path-first
// instead of job order, so the chains that bound the call's wall clock (a
// long trace → profile → slices build for a late benchmark) start first
// instead of last. A sink that declares no chain is ready at once and runs
// its own Prepare calls.
//
// Stage nodes double as speculative pre-builds: they are exactly the
// artifacts some sink will demand (the DAG is the union of the demanded
// chains, never a superset), and an idle worker builds them ahead of the
// first measurement that needs them. Results are byte-identical to naive
// order — the store traffic for each artifact is the same work, earlier —
// and report rows stay in job order regardless of completion order,
// because sinks write into their preassigned slots.

import (
	"container/heap"
	"context"
	"errors"
	"fmt"
	"sync"

	"repro/internal/program"
)

// stageMeasure is the scheduler's pseudo-stage for measurement work (one
// target's selection + simulation at a grid point). It is not a pipeline
// stage — it never touches the artifact store or the stage counters — but
// measurement sinks need a cost like build nodes do.
const stageMeasure Stage = "measure"

// stageCost is the fixed per-node cost the critical-path projection sums:
// relative magnitudes of the stages (trace dominates, then baseline
// simulation and measurement, then the analysis stages; assembly and
// derivation are near-free). The numbers are unitless proxies, not seconds:
// the scheduler orders by projected cost, it never budgets wall-clock, so
// the plan is a pure function of the grid and the store state.
var stageCost = map[Stage]float64{
	StageTrace:    1.0,
	StageProfile:  0.25,
	StageProblems: 0.01,
	StageSlices:   0.2,
	StageCurves:   0.1,
	StageBaseline: 0.5,
	StageParams:   0.01,
	StagePrepared: 0.005,
	stageMeasure:  0.5,
}

// Scheduler node statuses, annotated on DAG exports.
const (
	schedCold    = "cold"    // projected to execute the stage
	schedCached  = "cached"  // already complete in the in-memory store
	schedSpill   = "spill"   // resident in the disk tier; a load, not a build
	schedMeasure = "measure" // a measurement sink (one grid point / benchmark)
)

// schedNode is one DAG node: a stage build for one workload, or a
// measurement sink. waiting/children carry the dependency edges; cost and
// crit the projected cost (crit = cost + costliest chain below).
type schedNode struct {
	seq    int // insertion order: deterministic heap tie-break
	bench  string
	input  program.InputClass
	stage  Stage  // pipeline stage, or stageMeasure for sinks
	label  string // sweep sinks: the grid point
	status string

	cost float64
	crit float64

	waiting  int // unfinished dependencies (scheduler-mutex-guarded)
	children []*schedNode
	run      func(ctx context.Context) error
}

// sink is one measurement of a fan-out. run fills the sink's preassigned
// result slot and returns its error, already prefixed with the job's name.
// prep, when set, declares the preparation chain the sink consumes —
// (bench, prep.MeasureInput, *prep) — so the executor can build it ahead;
// nil declares none.
type sink struct {
	bench string
	label string // sweeps: the grid point, shown on DAG exports
	cost  float64
	prep  *Config
	run   func(ctx context.Context) error
}

// dagBuilder accumulates a schedule DAG. Nodes are deduplicated by artifact
// key, so two grid points that agree on a stage's config fields share one
// node exactly as they share one store entry. order is topological by
// construction: a dependency always exists before its dependent is created.
type dagBuilder struct {
	r     *Runner
	nodes map[artifactKey]*schedNode
	order []*schedNode
}

func (r *Runner) newDAGBuilder() *dagBuilder {
	return &dagBuilder{r: r, nodes: map[artifactKey]*schedNode{}}
}

// addChain adds one (benchmark, input, config) preparation chain — every
// pipeline stage through StagePrepared — reusing nodes already added by
// other chains, and returns the chain's prepared node. An error means the
// chain cannot even be planned (unknown workload, unfingerprintable
// config); callers add a dependency-free sink instead, whose Prepare call
// surfaces the identical error through the normal path.
func (b *dagBuilder) addChain(name string, input program.InputClass, cfg Config) (*schedNode, error) {
	wfp, err := workloadFingerprint(name)
	if err != nil {
		return nil, err
	}
	plan, err := planFor(cfg, wfp)
	if err != nil {
		return nil, err
	}
	var last *schedNode
	for _, st := range Stages() {
		key := artifactKey{name: name, input: input, stage: st, fp: plan.fps[st]}
		if n, ok := b.nodes[key]; ok {
			last = n
			continue
		}
		n := &schedNode{seq: len(b.order), bench: name, input: input, stage: st}
		if _, _, done := b.r.store.peek(key); done {
			n.status = schedCached // complete (or a cached failure): zero remaining cost
		} else if b.r.diskHas(key) {
			n.status = schedSpill // a verified load, orders of magnitude under a build
		} else {
			n.status = schedCold
			n.cost = stageCost[st]
		}
		st := st
		n.run = func(ctx context.Context) error {
			b.r.runStageNode(ctx, name, input, cfg, plan, st)
			return nil
		}
		for _, u := range stageDeps[st] {
			if dep := b.nodes[artifactKey{name: name, input: input, stage: u, fp: plan.fps[u]}]; dep != nil {
				dep.children = append(dep.children, n)
				n.waiting++
			}
		}
		b.nodes[key] = n
		b.order = append(b.order, n)
		last = n
	}
	return last, nil
}

// plan expands sinks into a schedule DAG: with chains set, every declared
// preparation chain (stage nodes shared across sinks by artifact key) with
// its sink hanging off the chain's prepared node; without, the sinks alone,
// all ready at once. A chain that cannot be planned (unknown workload,
// unfingerprintable config) leaves its sink dependency-free, so the sink's
// own Prepare call reports the error; the first such error is returned for
// SweepDAG, the one caller that reports it.
func (r *Runner) plan(sinks []sink, chains bool) (*dagBuilder, error) {
	b := r.newDAGBuilder()
	var first error
	for _, s := range sinks {
		n := &schedNode{bench: s.bench, stage: stageMeasure, label: s.label,
			status: schedMeasure, cost: s.cost, run: s.run}
		if chains && s.prep != nil {
			dep, err := b.addChain(s.bench, s.prep.MeasureInput, *s.prep)
			if err != nil && first == nil {
				first = fmt.Errorf("%s@%s: %w", s.bench, s.label, err)
			}
			if dep != nil {
				n.input = dep.input
				dep.children = append(dep.children, n)
				n.waiting = 1
			}
		}
		n.seq = len(b.order) // after its chain: order stays topological
		b.order = append(b.order, n)
	}
	return b, first
}

// computeCritical fills every node's projected critical-path cost: its own
// cost plus the costliest chain of dependents below it. order is
// topological, so one reverse pass suffices.
func (b *dagBuilder) computeCritical() {
	for i := len(b.order) - 1; i >= 0; i-- {
		n := b.order[i]
		n.crit = n.cost
		for _, c := range n.children {
			if n.cost+c.crit > n.crit {
				n.crit = n.cost + c.crit
			}
		}
	}
}

// runStageNode executes one scheduled stage node. A failed upstream means
// the chain is already doomed: the node declines to execute (or poison its
// own store entry), matching the naive walk, which stops at the first
// failed stage — so failure-path cold counts and events are identical in
// both orders. The stage's own errors are cached in the store; the chain's
// measurement sink surfaces them through its ordinary Prepare call.
func (r *Runner) runStageNode(ctx context.Context, name string, input program.InputClass,
	cfg Config, plan stagePlan, st Stage) {
	if ctx.Err() != nil {
		return
	}
	for _, u := range stageDeps[st] {
		key := artifactKey{name: name, input: input, stage: u, fp: plan.fps[u]}
		if _, err, done := r.store.peek(key); done && err != nil {
			return
		}
	}
	r.ensureStage(ctx, name, input, cfg, plan, st)
}

// measureCost projects one sink's measurement cost.
func measureCost(targets int) float64 {
	return stageCost[stageMeasure] * float64(targets)
}

// nodeHeap is the ready queue: a max-heap on projected critical-path cost,
// insertion order breaking ties so equal-cost nodes run in grid order.
type nodeHeap []*schedNode

func (h nodeHeap) Len() int { return len(h) }
func (h nodeHeap) Less(i, j int) bool {
	if h[i].crit != h[j].crit {
		return h[i].crit > h[j].crit
	}
	return h[i].seq < h[j].seq
}
func (h nodeHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *nodeHeap) Push(x any)   { *h = append(*h, x.(*schedNode)) }
func (h *nodeHeap) Pop() any     { old := *h; n := old[len(old)-1]; *h = old[:len(old)-1]; return n }

// runDAG is the one fan-out executor: it plans sinks (their declared
// chains included unless SetScheduling(false) dropped them) and runs the
// DAG on a bounded pool of r.parallelism workers, each pulling the ready
// node with the longest projected critical path. Every node runs exactly
// once; short chains cannot starve because priority only orders the ready
// set — nothing is ever deferred indefinitely, workers always take *some*
// ready node. Cancellation stops workers from claiming further nodes;
// in-flight nodes abort through their own context checks. It returns
// ctx.Err(), or else the sinks' errors joined in job order.
func (r *Runner) runDAG(ctx context.Context, sinks []sink) error {
	b, _ := r.plan(sinks, r.sched)
	nodes := b.order
	if len(nodes) == 0 {
		return ctx.Err()
	}
	b.computeCritical()

	var (
		mu        sync.Mutex
		cond      = sync.NewCond(&mu)
		ready     nodeHeap
		remaining = len(nodes)
		stopped   bool
		errs      = make([]error, len(nodes)) // by seq: sinks in job order
	)
	for _, n := range nodes {
		if n.waiting == 0 {
			ready = append(ready, n)
		}
	}
	heap.Init(&ready)

	// Wake blocked workers promptly on cancellation, even when no node is
	// completing to signal them.
	watchDone := make(chan struct{})
	go func() {
		select {
		case <-ctx.Done():
			mu.Lock()
			stopped = true
			mu.Unlock()
			cond.Broadcast()
		case <-watchDone:
		}
	}()
	defer close(watchDone)

	workers := r.parallelism
	if workers > len(nodes) {
		workers = len(nodes)
	}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			mu.Lock()
			for {
				for !stopped && remaining > 0 && len(ready) == 0 {
					cond.Wait()
				}
				if stopped || remaining == 0 {
					mu.Unlock()
					return
				}
				n := heap.Pop(&ready).(*schedNode)
				mu.Unlock()
				errs[n.seq] = n.run(ctx)
				mu.Lock()
				remaining--
				for _, c := range n.children {
					if c.waiting--; c.waiting == 0 {
						heap.Push(&ready, c)
					}
				}
				if remaining == 0 || len(ready) > 0 {
					cond.Broadcast()
				}
			}
		}()
	}
	wg.Wait()
	if err := ctx.Err(); err != nil {
		return err
	}
	return errors.Join(errs...)
}
