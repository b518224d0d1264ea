// The simulator hot loop over the paper suite: BenchmarkSimHotLoop times
// the event engine against the reference scan loop, and
// TestSimHotLoopAllocationFree pins the event engine's steady state at zero
// heap allocations. The repository's end-to-end benchmark is perfbench/.
package preexec

import (
	"context"
	"sync"
	"testing"

	"repro/internal/cpu"
	"repro/internal/experiments"
	"repro/internal/program"
	"repro/internal/pthsel"
	"repro/internal/trace"
)

// hotLoopWorkload is one prepared (trace, p-threads) pair for the hot loop;
// preparation and selection run once per process, outside any timed or
// counted region.
type hotLoopWorkload struct {
	trace    *trace.Trace
	pthreads []*cpu.PThread
}

var hotLoop struct {
	once      sync.Once
	cfg       experiments.Config
	workloads []hotLoopWorkload
	err       error
}

func hotLoopWorkloads(tb testing.TB) []hotLoopWorkload {
	tb.Helper()
	hotLoop.once.Do(func() {
		ctx := context.Background()
		hotLoop.cfg = experiments.DefaultConfig()
		// The corpus is the pinned paper nine: tests in this binary may
		// have registered generated workloads, which must not leak into
		// the measured or counted loop.
		for _, name := range program.PaperNames() {
			prep, err := experiments.Prepare(ctx, name, program.Train, hotLoop.cfg)
			if err != nil {
				hotLoop.err = err
				return
			}
			sel := pthsel.Select(prep.Trace, prep.Prof, prep.Trees, prep.Params, pthsel.TargetL)
			hotLoop.workloads = append(hotLoop.workloads, hotLoopWorkload{
				trace:    prep.Trace,
				pthreads: sel.PThreads,
			})
		}
	})
	if hotLoop.err != nil {
		tb.Fatal(hotLoop.err)
	}
	return hotLoop.workloads
}

type simRun func(*cpu.Simulator, context.Context) (*cpu.Result, error)

// hotLoopSims builds one simulator per hot-loop workload and warms it with
// one run under run, growing every internal pool, exactly like the Lab's
// per-worker reuse.
func hotLoopSims(tb testing.TB, run simRun) []*cpu.Simulator {
	tb.Helper()
	workloads := hotLoopWorkloads(tb)
	sims := make([]*cpu.Simulator, len(workloads))
	for i, wl := range workloads {
		s, err := cpu.NewSimulator(hotLoop.cfg.CPU, wl.trace, wl.pthreads)
		if err != nil {
			tb.Fatal(err)
		}
		if _, err := run(s, context.Background()); err != nil {
			tb.Fatal(err)
		}
		sims[i] = s
	}
	return sims
}

// runHotLoop resets every warmed simulator onto its workload and runs it
// once under run, returning the simulated cycles.
func runHotLoop(tb testing.TB, sims []*cpu.Simulator, run simRun) int64 {
	ctx := context.Background()
	var cycles int64
	for j, wl := range hotLoop.workloads {
		s := sims[j]
		if err := s.Reset(hotLoop.cfg.CPU, wl.trace, wl.pthreads); err != nil {
			tb.Fatal(err)
		}
		res, err := run(s, ctx)
		if err != nil {
			tb.Fatal(err)
		}
		cycles += res.Cycles
	}
	return cycles
}

// TestSimHotLoopAllocationFree pins the event engine's steady state over
// the whole paper suite with L-target p-threads installed: once each
// simulator's pools are grown, Reset plus RunContext on all nine workloads
// performs zero heap allocations. internal/cpu's
// TestResetSteadyStateAllocationFree checks the same on one workload.
func TestSimHotLoopAllocationFree(t *testing.T) {
	run := (*cpu.Simulator).RunContext
	sims := hotLoopSims(t, run)
	if n := testing.AllocsPerRun(1, func() { runHotLoop(t, sims, run) }); n != 0 {
		t.Errorf("event hot loop: %v allocations per suite run after warm-up, want 0", n)
	}
}

// simHotLoop times the cycle simulator's hot loop alone — no preparation,
// no selection — across the full benchmark suite with L-p-threads
// installed, under one engine — (*cpu.Simulator).RunContext or its
// RunReference — reporting simulated cycles per wall-clock second.
func simHotLoop(b *testing.B, run simRun) {
	sims := hotLoopSims(b, run)
	b.ReportAllocs()
	b.ResetTimer()
	var cycles int64
	for i := 0; i < b.N; i++ {
		cycles += runHotLoop(b, sims, run)
	}
	b.ReportMetric(float64(cycles)/b.Elapsed().Seconds(), "sim-cycles/s")
}

// BenchmarkSimHotLoop compares the event-driven wakeup scheduler against
// the reference per-cycle scan engine on the same prepared workloads (every
// paper benchmark, L-target p-threads installed). CI profiles its event
// side; the event/scan sim-cycles/s ratio is the engine speedup quoted in
// EXPERIMENTS.md.
func BenchmarkSimHotLoop(b *testing.B) {
	b.Run("event", func(b *testing.B) { simHotLoop(b, (*cpu.Simulator).RunContext) })
	b.Run("scan", func(b *testing.B) { simHotLoop(b, (*cpu.Simulator).RunReference) })
}
