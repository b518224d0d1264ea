package main

import (
	"context"
	"sync"
	"time"

	preexec "repro"
)

// ------------------------------------------------------- figures-cold --

// figuresCold regenerates the whole paper suite, as cmd/report does, on a
// fresh Lab with no disk store and two workers. It is the workload on
// which trace, profile, slicer, critpath and baseline simulation do most of
// the work, and the only one where the critical-path scheduler orders
// parallel cold builds. The seed does not change its inputs.
var figuresCold = &workload{
	workers: 2,
	setups:  3,
	setup: func(ctx context.Context, b *bench) (state, error) {
		// Process warm-up: one study of the smallest paper benchmark on a
		// throwaway Lab grows the simulator pool and the heap, which a
		// user regenerating the paper pays once per process.
		st, err := preexec.New(preexec.WithParallelism(b.workers)).AnalyzeBenchmark(ctx, "gap")
		if err != nil {
			return nil, err
		}
		if _, err := st.Run(ctx, preexec.TargetP); err != nil {
			return nil, err
		}
		return &figuresState{}, nil
	},
	rep: func(ctx context.Context, b *bench, s state, i int, tr *tracer) (*repOut, error) {
		st := s.(*figuresState)
		opts := []preexec.Option{preexec.WithParallelism(b.workers)}
		if tr != nil {
			opts = append(opts, preexec.WithObserver(tr.observe))
		}
		lab := preexec.New(opts...)
		st.lab = lab // kept alive until the run's heap is measured
		out := &repOut{}
		var parts [][]byte
		start := time.Now()
		root := tr.begin("figures-cold rep", "", 0)
		for _, a := range paperSuite() {
			call := tr.begin(a.name, "", root)
			tr.setParent("", call)
			rep, err := a.run(ctx, lab)
			out.ops++
			if err != nil {
				tr.end(call)
				out.opFail++
				parts = append(parts, []byte("error: "+err.Error()))
				continue
			}
			ck := tr.begin("check "+a.name, "perfbench", call)
			canon, cycles, err := canonical(rep)
			if err != nil {
				return nil, err
			}
			tr.end(ck)
			out.cycles += cycles
			parts = append(parts, canon)
			rs := time.Now()
			rd := tr.begin("render "+a.name, "report", call)
			_ = rep.Render()
			tr.end(rd)
			out.render += time.Since(rs)
			tr.end(call)
			// The user asked for the whole suite at once, so an artifact's
			// latency runs from the suite's start to its delivery.
			out.lats = append(out.lats, time.Since(start).Seconds())
		}
		tr.end(root)
		out.wall = time.Since(start)
		out.store = storeDelta(preexec.StoreStats{}, lab.StoreStats())
		out.checks = append(b.verify.countChecks(i, out.store),
			b.verify.check(i, "digest", digest(parts...)),
			b.verify.check(i, "sim_cycles", out.cycles))
		return out, nil
	},
}

type figuresState struct{ lab *preexec.Lab }

func (s *figuresState) close() { s.lab = nil }

type artifact struct {
	name string
	run  func(context.Context, *preexec.Lab) (preexec.Report, error)
}

// paperSuite is cmd/report's full run, in its order.
func paperSuite() []artifact {
	names := preexec.PaperBenchmarks()
	suite := []artifact{
		{"figure2", func(ctx context.Context, l *preexec.Lab) (preexec.Report, error) { return l.Figure2(ctx, names) }},
		{"figure3", func(ctx context.Context, l *preexec.Lab) (preexec.Report, error) { return l.Figure3(ctx, names) }},
		{"table3", func(ctx context.Context, l *preexec.Lab) (preexec.Report, error) {
			return l.Table3(ctx, preexec.Table3Benchmarks())
		}},
		{"figure4", func(ctx context.Context, l *preexec.Lab) (preexec.Report, error) { return l.Figure4(ctx, names) }},
	}
	for _, axis := range []preexec.SweepAxis{preexec.SweepIdleFactor, preexec.SweepMemLatency, preexec.SweepL2Size} {
		suite = append(suite, artifact{"figure5/" + axis.String(), func(ctx context.Context, l *preexec.Lab) (preexec.Report, error) {
			return l.Figure5(ctx, axis, preexec.Figure5Benchmarks(axis))
		}})
	}
	return append(suite, artifact{"ed2", func(ctx context.Context, l *preexec.Lab) (preexec.Report, error) {
		return l.ED2Study(ctx, names)
	}})
}

// storeDelta sums every stage's request outcomes between two snapshots.
func storeDelta(before, after preexec.StoreStats) storeCounts {
	var c storeCounts
	for st, a := range after.Stages {
		bs := before.Stages[st]
		c.Cold += a.Cold - bs.Cold
		c.Hit += a.Hit - bs.Hit
		c.Shared += a.Shared - bs.Shared
		c.Spill += a.SpillLoads - bs.SpillLoads
	}
	return c
}

// ---------------------------------------------------------- grid-warm --

// gridWarm repeats one sweep — the memory-latency axis × targets L, E, P
// over the paper nine, 27 points and 81 target simulations — on one worker
// whose in-memory store set-up warmed. Preparation is skipped entirely, so
// the time goes to target simulation, selection and per-point runner and
// store overhead. The seed does not change its inputs.
var gridWarm = &workload{
	workers: 1,
	setups:  2,
	setup: func(ctx context.Context, b *bench) (state, error) {
		st := &gridState{}
		st.lab = preexec.New(preexec.WithParallelism(b.workers), preexec.WithObserver(st.observe))
		// One target suffices to build every preparation stage of every
		// point; the other two would only add target simulations.
		g := warmGrid()
		g.Targets = g.Targets[:1]
		if _, err := st.lab.Sweep(ctx, g); err != nil {
			return nil, err
		}
		return st, nil
	},
	rep: func(ctx context.Context, b *bench, s state, i int, tr *tracer) (*repOut, error) {
		st := s.(*gridState)
		out := &repOut{}
		before := st.lab.StoreStats()
		st.mu.Lock()
		st.tr, st.points = tr, nil
		st.mu.Unlock()
		root := tr.begin("grid-warm rep", "", 0)
		call := tr.begin("sweep", "", root)
		tr.setParent("", call)
		start := time.Now()
		rep, err := st.lab.Sweep(ctx, warmGrid())
		tr.end(call)
		st.mu.Lock()
		points := st.points
		st.tr, st.points = nil, nil
		st.mu.Unlock()
		if err != nil {
			tr.end(root)
			out.wall = time.Since(start)
			out.ops, out.opFail = 27, 27
			return out, nil
		}
		ck := tr.begin("check sweep", "perfbench", root)
		canon, cycles, err := canonical(rep)
		if err != nil {
			return nil, err
		}
		tr.end(ck)
		rs := time.Now()
		rd := tr.begin("render sweep", "report", root)
		_ = rep.Render()
		tr.end(rd)
		out.render = time.Since(rs)
		tr.end(root)
		out.wall = time.Since(start)

		// Every point is requested when the sweep starts, so a point's
		// latency runs from there to its completion.
		for _, at := range points {
			out.lats = append(out.lats, at.Sub(start).Seconds())
		}
		out.ops = len(rep.Points)
		out.cycles = cycles
		out.store = storeDelta(before, st.lab.StoreStats())
		out.checks = append(b.verify.countChecks(i, out.store),
			b.verify.check(i, "digest", digest(canon)),
			b.verify.check(i, "sim_cycles", out.cycles),
			b.verify.check(i, "points", len(out.lats)))
		return out, nil
	},
}

func warmGrid() preexec.Grid {
	return preexec.Grid{
		Axes:       []preexec.Axis{preexec.GridAxis(preexec.SweepMemLatency)},
		Benchmarks: preexec.PaperBenchmarks(),
		Targets:    []preexec.Target{preexec.TargetL, preexec.TargetE, preexec.TargetP},
	}
}

// gridState is the warm Lab. Its observer timestamps point completions —
// the progress a sweep's user sees, from which per-point latency comes —
// and forwards every event to the tracer of a traced repetition.
type gridState struct {
	lab    *preexec.Lab
	mu     sync.Mutex
	tr     *tracer
	points []time.Time
}

func (s *gridState) observe(ev preexec.Event) {
	s.mu.Lock()
	tr := s.tr
	if ev.Kind == preexec.EventPointDone {
		s.points = append(s.points, time.Now())
	}
	s.mu.Unlock()
	tr.observe(ev)
}

func (s *gridState) close() { s.lab = nil }
