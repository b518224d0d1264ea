package main

import (
	"context"
	"fmt"
	"path/filepath"
	"runtime"
	"time"
)

// runTraced is the traced run. After one set-up it alternates untraced
// and traced repetitions until the measurement time is used up, so the
// tracing overhead is the difference of their medians within one process.
// The traced repetitions give the per-layer self-time table; direct calls
// into each module give the per-layer metrics. The spans of the last traced
// repetition and of the probes are written as Chrome trace-event JSON.
func runTraced(ctx context.Context, b *bench, w *workload) (*result, error) {
	st, err := w.setup(ctx, b)
	if err != nil {
		return nil, fmt.Errorf("setup: %w", err)
	}
	defer st.close()

	var untraced, traced []float64
	var tracers []*tracer
	var reps []*repOut
	begin := time.Now()
	for i := 0; len(traced) == 0 || time.Since(begin).Seconds() < b.seconds; i++ {
		var tr *tracer
		if i%2 == 1 {
			tr = newTracer()
		}
		runtime.GC()
		r, err := w.rep(ctx, b, st, i, tr)
		if err != nil {
			return nil, fmt.Errorf("repetition %d: %w", i, err)
		}
		reps = append(reps, r)
		if tr == nil {
			untraced = append(untraced, r.wall.Seconds())
		} else {
			traced = append(traced, r.wall.Seconds())
			tracers = append(tracers, tr)
		}
	}

	a := &attribution{layers: map[string]layerTime{}, reps: len(tracers),
		tracedWall: median(traced), untracedWall: median(untraced), instants: map[string]int{}}
	var selfSum float64
	for _, tr := range tracers {
		for k, n := range tr.instants {
			a.instants[k] += n
		}
		for layer, lt := range tr.selfTimes() {
			sum := a.layers[layer]
			sum.Spans += lt.Spans
			sum.Self += lt.Self
			a.layers[layer] = sum
			selfSum += lt.Self.Seconds()
		}
	}
	a.workerS = mean(traced) * float64(b.workers)
	a.unattributed = a.workerS - selfSum/float64(a.reps)
	a.print(b.verify.workload, b.workers)

	probeTr := newTracer()
	m, err := runProbes(ctx, b, probeTr)
	if err != nil {
		return nil, fmt.Errorf("layer probes: %w", err)
	}
	var timings []labdTiming
	for _, r := range reps {
		timings = append(timings, r.labd...)
	}
	if len(timings) == 0 {
		if timings, err = labdProbe(ctx, b, probeTr); err != nil {
			return nil, fmt.Errorf("labd probe: %w", err)
		}
	}
	var submit, first, tail, render []float64
	for _, t := range timings {
		submit = append(submit, t.submit.Seconds()*1e3)
		first = append(first, t.firstEvent.Seconds()*1e3)
		tail = append(tail, t.tail.Seconds()*1e3)
	}
	attempted, failed := 0, 0
	for _, r := range reps {
		render = append(render, r.render.Seconds()*1e3)
		attempted += r.ops + len(r.checks)
		failed += r.opFail + failedChecks(r.checks)
	}
	last := reps[len(reps)-1]
	requests := last.store.Cold + last.store.Hit + last.store.Shared + last.store.Spill
	m["labd.submit_ms"] = metric{median(submit), "ms"}
	m["labd.first_event_ms"] = metric{median(first), "ms"}
	m["labd.tail_ms"] = metric{median(tail), "ms"}
	m["report.render_ms"] = metric{median(render), "ms"}
	m["cpu.sim_cycles"] = metric{float64(last.cycles), "count"}
	m["experiments.stage_cold"] = metric{float64(last.store.Cold), "count"}
	m["experiments.stage_hit"] = metric{float64(last.store.Hit), "count"}
	m["experiments.stage_shared"] = metric{float64(last.store.Shared), "count"}
	m["experiments.stage_spill"] = metric{float64(last.store.Spill), "count"}
	m["experiments.hit_ratio"] = metric{float64(last.store.Hit+last.store.Shared) / float64(max(requests, 1)), "ratio"}
	m["experiments.unattributed_s"] = metric{a.unattributed, "s"}

	path := filepath.Join(b.out, fmt.Sprintf("trace-%s-seed%d.json", b.verify.workload, b.seed))
	if err := writeChrome(path, map[string]*tracer{
		"1 " + b.verify.workload + " (last traced repetition)": tracers[len(tracers)-1],
		"2 layer probes": probeTr,
	}); err != nil {
		return nil, fmt.Errorf("write trace: %w", err)
	}
	fmt.Printf("  chrome trace: %s\n", path)

	record(b, "traced", m, map[string]any{
		"reps_traced":        len(traced),
		"reps_untraced":      len(untraced),
		"traced_wall_s":      a.tracedWall,
		"untraced_wall_s":    a.untracedWall,
		"tracing_overhead_s": a.tracedWall - a.untracedWall,
		"checks":             checkSummary(reps),
		"trace_file":         path,
	})
	return &result{Correct: failed == 0, Attempted: attempted, Failed: failed, Metrics: m}, nil
}

func mean(xs []float64) float64 {
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}
