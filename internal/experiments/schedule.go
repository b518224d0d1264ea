package experiments

// The one fan-out executor. Every multi-benchmark entry point — figures
// and sweeps — is a list of measurement sinks (one per figure benchmark or
// per sweep benchmark and grid point), each writing its own preassigned
// result slot. A sink may declare the (benchmark, input, config)
// preparation chain it consumes; before fan-out every declared
// chain is expanded into an explicit dependency DAG, stage nodes
// deduplicated across sinks by artifact key. The bounded worker pool then
// walks the DAG depth-first in plan order: the ready set is a stack, so a
// worker that finishes a node takes up the work that node just unblocked
// before moving on to the next chain. A sink that declares no chain is
// ready at once and runs its own Prepare calls.
//
// Stage nodes double as speculative pre-builds: they are exactly the
// artifacts some sink will demand (the DAG is the union of the demanded
// chains, never a superset), and an idle worker builds them ahead of the
// first measurement that needs them. Results are byte-identical to naive
// order — the store traffic for each artifact is the same work, earlier —
// and report rows stay in job order regardless of completion order,
// because sinks write into their preassigned slots.

import (
	"context"
	"errors"
	"sync"

	"repro/internal/program"
)

// schedNode is one DAG node: a stage build for one workload, or a
// measurement sink. waiting/children carry the dependency edges.
type schedNode struct {
	seq      int // insertion (plan) order
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

// addChain adds one (benchmark, input, config) preparation chain — every
// pipeline stage through StagePrepared — reusing nodes already added by
// other chains, and returns the chain's prepared node. It returns nil when
// the chain cannot even be planned (unknown workload, unfingerprintable
// config); the caller then adds a dependency-free sink, whose Prepare call
// surfaces the error through the normal path.
func (b *dagBuilder) addChain(name string, input program.InputClass, cfg Config) *schedNode {
	c, err := newChain(name, input, cfg)
	if err != nil {
		return nil
	}
	var last *schedNode
	for _, d := range stageTable {
		key := c.key(d.stage)
		if n, ok := b.nodes[key]; ok {
			last = n
			continue
		}
		n := &schedNode{seq: len(b.order), run: func(ctx context.Context) error {
			b.r.runStageNode(ctx, c, d)
			return nil
		}}
		for _, u := range d.up {
			if dep := b.nodes[c.key(u)]; dep != nil {
				dep.children = append(dep.children, n)
				n.waiting++
			}
		}
		b.nodes[key] = n
		b.order = append(b.order, n)
		last = n
	}
	return last
}

// plan expands sinks into a schedule DAG, nodes in topological (plan)
// order: with chains set, every declared preparation chain (stage nodes
// shared across sinks by artifact key) with its sink hanging off the
// chain's prepared node; without, the sinks alone, all ready at once.
func (r *Runner) plan(sinks []sink, chains bool) []*schedNode {
	b := &dagBuilder{r: r, nodes: map[artifactKey]*schedNode{}}
	for _, s := range sinks {
		n := &schedNode{run: s.run}
		if chains && s.prep != nil {
			if dep := b.addChain(s.bench, s.prep.MeasureInput, *s.prep); dep != nil {
				dep.children = append(dep.children, n)
				n.waiting = 1
			}
		}
		n.seq = len(b.order) // after its chain: order stays topological
		b.order = append(b.order, n)
	}
	return b.order
}

// runStageNode executes one scheduled stage node. A failed upstream means
// the chain is already doomed: the node declines to execute (or poison its
// own store entry), matching the naive walk, which stops at the first
// failed stage — so failure-path cold counts and events are identical in
// both orders. The stage's own errors are cached in the store; the chain's
// measurement sink surfaces them through its ordinary Prepare call.
func (r *Runner) runStageNode(ctx context.Context, c *chain, d stageDef) {
	if ctx.Err() != nil {
		return
	}
	for _, u := range d.up {
		if _, err, done := r.store.peek(c.key(u)); done && err != nil {
			return
		}
	}
	r.ensure(ctx, c, d.stage)
}

// runDAG is the one fan-out executor: it plans sinks (their declared
// chains included unless r.sched is cleared) and runs the DAG on a
// bounded pool of r.parallelism workers. The ready set is a
// stack seeded in reverse plan order, and a finished node pushes the
// children it unblocked in reverse, so one worker walks the DAG
// depth-first in plan (grid) order. Every node runs exactly once.
// Cancellation stops workers from claiming further nodes; in-flight nodes
// abort through their own context checks. It returns ctx.Err(), or else
// the sinks' errors joined in job order. The sinks share one timing-run
// table: ctx's own inside Suite, else a fresh one for this call.
func (r *Runner) runDAG(ctx context.Context, sinks []sink) error {
	ctx = withTimingRuns(ctx)
	nodes := r.plan(sinks, r.sched)
	if len(nodes) == 0 {
		return ctx.Err()
	}

	var (
		mu        sync.Mutex
		cond      = sync.NewCond(&mu)
		ready     []*schedNode // a stack: the next node is the last one
		remaining = len(nodes)
		stopped   bool
		errs      = make([]error, len(nodes)) // by seq: sinks in job order
	)
	for i := len(nodes) - 1; i >= 0; i-- {
		if nodes[i].waiting == 0 {
			ready = append(ready, nodes[i])
		}
	}

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
				n := ready[len(ready)-1]
				ready = ready[:len(ready)-1]
				mu.Unlock()
				errs[n.seq] = n.run(ctx)
				mu.Lock()
				remaining--
				for i := len(n.children) - 1; i >= 0; i-- {
					c := n.children[i]
					if c.waiting--; c.waiting == 0 {
						ready = append(ready, c)
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
