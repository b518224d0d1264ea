package critpath

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sync"
	"testing"

	"repro/internal/cache"
	"repro/internal/cpu"
	"repro/internal/isa"
	"repro/internal/profile"
	"repro/internal/program"
	"repro/internal/program/gen"
	"repro/internal/trace"
)

func analyzerFor(t *testing.T, p *isa.Program) (*Analyzer, *trace.Trace, *profile.Profile) {
	t.Helper()
	tr, err := trace.Run(p)
	if err != nil {
		t.Fatal(err)
	}
	// The stride prefetcher would cover these synthetic stride loops; the
	// tests exercise the criticality model on raw misses.
	hier := cache.DefaultHierConfig()
	hier.StrideEntries = 0
	prof := profile.Collect(tr, profile.ConfigFromHier(hier))
	return New(tr, prof, DefaultConfig(hier)), tr, prof
}

// missLoop builds a loop with one 64B-stride load per iteration (every
// iteration misses to memory once caches are cold).
func missLoop(iters int) *isa.Program {
	b := isa.NewBuilder("missloop")
	const (
		rI, rN, rA, rV, rC = isa.Reg(1), isa.Reg(2), isa.Reg(3), isa.Reg(4), isa.Reg(5)
	)
	b.MovI(rI, 0)
	b.MovI(rN, int64(iters))
	b.Label("top")
	b.ShlI(rA, rI, 6)
	b.Load(rV, rA, 0)
	b.AddI(rI, rI, 1)
	b.CmpLT(rC, rI, rN)
	b.BrNZ(rC, "top")
	b.Halt()
	b.SetMem(make([]int64, iters*8+8))
	return b.MustBuild()
}

func TestBaselinePositiveAndBounded(t *testing.T) {
	a, tr, _ := analyzerFor(t, missLoop(200))
	base := a.Baseline()
	if base <= 0 {
		t.Fatal("baseline must be positive")
	}
	// Sanity bounds: at least n/width cycles, at most n * memory latency.
	n := int64(tr.Len())
	if base < n/6 {
		t.Errorf("baseline %d below bandwidth bound %d", base, n/6)
	}
	if base > n*220 {
		t.Errorf("baseline %d absurdly high", base)
	}
}

func TestBreakdownSumsToBaseline(t *testing.T) {
	a, _, _ := analyzerFor(t, missLoop(200))
	var sum int64
	for _, v := range a.Breakdown() {
		sum += v
	}
	base := a.Baseline()
	// Attribution walks the single critical path; rounding can shift a few
	// cycles.
	diff := sum - base
	if diff < 0 {
		diff = -diff
	}
	if float64(diff) > 0.02*float64(base)+10 {
		t.Errorf("breakdown sums to %d, baseline %d", sum, base)
	}
}

func TestMemDominatedBreakdown(t *testing.T) {
	a, _, _ := analyzerFor(t, missLoop(300))
	bd := a.Breakdown()
	if float64(bd[0]) < 0.3*float64(a.Baseline()) {
		t.Errorf("mem share %d of %d: stride-miss loop must be memory-bound", bd[0], a.Baseline())
	}
}

func TestCostCurveMonotone(t *testing.T) {
	p := missLoop(300)
	a, tr, prof := analyzerFor(t, p)
	problems := prof.ProblemLoads(0.9, 10)
	if len(problems) == 0 {
		t.Fatal("no problem loads")
	}
	curve := a.CostCurve(problems[0].PC)
	if curve.MissLat <= 0 {
		t.Fatal("no miss latency")
	}
	prev := 0.0
	for k, g := range curve.Gain {
		if g < prev {
			t.Errorf("curve not monotone at %d: %v", k, curve.Gain)
		}
		prev = g
	}
	if curve.Gain[3] <= 0 {
		t.Error("full tolerance of the only problem load must yield gain")
	}
	// The flat model must dominate the criticality-aware curve: tolerating
	// the full latency cannot gain more than the latency itself per miss.
	if curve.Gain[3] > curve.MissLat*1.05 {
		t.Errorf("gain %v exceeds tolerated latency %v", curve.Gain[3], curve.MissLat)
	}
	_ = tr
}

// Two interleaved, independent miss streams: each load alone has low
// criticality (the other stream keeps the machine busy), so the pessimistic
// estimate is small — the averaged curve must fall clearly below the flat
// model (the paper's interaction-cost scenario).
func TestContemporaneousMissesReduceCriticality(t *testing.T) {
	b := isa.NewBuilder("dual")
	const (
		rI, rN, rA1, rA2, rV1, rV2, rC = isa.Reg(1), isa.Reg(2), isa.Reg(3),
			isa.Reg(4), isa.Reg(5), isa.Reg(6), isa.Reg(7)
	)
	iters := 250
	b.MovI(rI, 0)
	b.MovI(rN, int64(iters))
	b.MovI(rA2, int64(iters*64+64)) // second region offset
	b.Label("top")
	b.ShlI(rA1, rI, 6)
	pcLoad1 := b.Load(rV1, rA1, 0)
	b.Add(rA2, rA2, isa.Zero) // keep rA2
	b.Load(rV2, rA2, 0)
	b.AddI(rA2, rA2, 64)
	b.AddI(rI, rI, 1)
	b.CmpLT(rC, rI, rN)
	b.BrNZ(rC, "top")
	b.Halt()
	b.SetMem(make([]int64, iters*16+64))
	p := b.MustBuild()

	a, _, _ := analyzerFor(t, p)
	curve := a.CostCurve(int32(pcLoad1))
	flat := FlatCurve(curve.MissLat)
	if curve.Gain[3] >= flat.Gain[3]*0.9 {
		t.Errorf("interaction-aware gain %v not clearly below flat %v", curve.Gain[3], flat.Gain[3])
	}
	if curve.Gain[3] <= 0 {
		t.Error("averaged estimate must stay positive (optimistic half)")
	}
}

func TestGainAtInterpolation(t *testing.T) {
	c := Curve{MissLat: 200, Gain: [4]float64{10, 30, 60, 100}}
	cases := []struct{ tol, want float64 }{
		{0, 0},
		{-5, 0},
		{50, 10},   // 25%
		{100, 30},  // 50%
		{150, 60},  // 75%
		{200, 100}, // 100%
		{400, 100}, // saturates
		{25, 5},    // halfway to first sample
		{125, 45},  // halfway between 50% and 75%
	}
	for _, tc := range cases {
		if got := c.GainAt(tc.tol); got < tc.want-1e-9 || got > tc.want+1e-9 {
			t.Errorf("GainAt(%v) = %v, want %v", tc.tol, got, tc.want)
		}
	}
}

// TestGainAtEdgeCases pins the degenerate inputs the selection pipeline can
// hand the cost model: the zero-value (empty) curve of a load that never
// missed, non-positive miss latencies, and tolerated latencies at or beyond
// the last sampled knee, which must saturate at Gain[3] — including for
// extreme and infinite tolerances.
func TestGainAtEdgeCases(t *testing.T) {
	var empty Curve
	for _, tol := range []float64{-1, 0, 1, 200, 1e12, math.Inf(1)} {
		if got := empty.GainAt(tol); got != 0 {
			t.Errorf("empty curve GainAt(%v) = %v, want 0", tol, got)
		}
	}
	neg := Curve{MissLat: -200, Gain: [4]float64{10, 30, 60, 100}}
	if got := neg.GainAt(50); got != 0 {
		t.Errorf("negative-latency curve GainAt(50) = %v, want 0", got)
	}

	c := Curve{MissLat: 200, Gain: [4]float64{10, 30, 60, 100}}
	for _, tol := range []float64{200, 200.0001, 1e9, math.MaxFloat64, math.Inf(1)} {
		if got := c.GainAt(tol); got != 100 {
			t.Errorf("GainAt(%v) = %v, want saturation at Gain[3]=100", tol, got)
		}
	}
	// Approaching the last knee from below stays on the final segment:
	// bounded by the 75% and 100% samples, never above saturation.
	if got := c.GainAt(199.999); got < 60 || got > 100 {
		t.Errorf("GainAt(199.999) = %v, want within (60, 100]", got)
	}
	// A zero-latency flat curve is inert, not NaN.
	if got := FlatCurve(0).GainAt(50); got != 0 || math.IsNaN(got) {
		t.Errorf("FlatCurve(0).GainAt(50) = %v, want 0", got)
	}
	// NaN tolerated latencies and NaN miss latencies gain nothing (they
	// used to index the sample array with int(NaN) and panic).
	nan := math.NaN()
	if got := FlatCurve(200).GainAt(nan); got != 0 {
		t.Errorf("FlatCurve(200).GainAt(NaN) = %v, want 0", got)
	}
	for _, tol := range []float64{nan, 50, 1e12, math.Inf(1)} {
		if got := (Curve{MissLat: nan, Gain: [4]float64{10, 30, 60, 100}}).GainAt(tol); got != 0 {
			t.Errorf("NaN-latency curve GainAt(%v) = %v, want 0", tol, got)
		}
	}
	// An infinite miss latency tolerated infinitely (Inf/Inf is NaN)
	// saturates rather than panicking.
	inf := Curve{MissLat: math.Inf(1), Gain: [4]float64{10, 30, 60, 100}}
	if got := inf.GainAt(math.Inf(1)); got != 100 {
		t.Errorf("infinite-latency curve GainAt(+Inf) = %v, want 100", got)
	}
}

func TestFlatCurveIsIdentity(t *testing.T) {
	c := FlatCurve(200)
	for _, tol := range []float64{0, 37, 100, 150, 200, 300} {
		want := tol
		if want > 200 {
			want = 200
		}
		if got := c.GainAt(tol); got < want-1e-6 || got > want+1e-6 {
			t.Errorf("flat GainAt(%v) = %v, want %v", tol, got, want)
		}
	}
}

func TestZeroCurveForNonProblemLoad(t *testing.T) {
	a, _, _ := analyzerFor(t, missLoop(100))
	curve := a.CostCurve(9999) // no such load
	if curve.Gain[3] != 0 {
		t.Error("unknown load must have a zero curve")
	}
}

func TestModelTracksSimulatorOnBenchmarks(t *testing.T) {
	if testing.Short() {
		t.Skip("full benchmark in short mode")
	}
	// The model need not match simulated cycles, but must be within 2x on a
	// real workload (relative accuracy is what selection needs).
	bm, err := program.ByName("gap")
	if err != nil {
		t.Fatal(err)
	}
	tr := trace.MustRun(bm.Build(program.Train))
	prof := profile.Collect(tr, profile.ConfigFromHier(cache.DefaultHierConfig()))
	a := New(tr, prof, DefaultConfig(cache.DefaultHierConfig()))
	est := a.Baseline()
	if est <= 0 {
		t.Fatal("no estimate")
	}
	if est < int64(tr.Len())/6 {
		t.Errorf("estimate %d below dispatch bound", est)
	}
}

func TestMispredictModelFlagsChaoticBranches(t *testing.T) {
	b := isa.NewBuilder("chaos")
	const rI, rN, rH, rC, rC2 = isa.Reg(1), isa.Reg(2), isa.Reg(3), isa.Reg(4), isa.Reg(5)
	b.MovI(rI, 0)
	b.MovI(rN, 2000)
	b.Label("top")
	b.AddI(rI, rI, 1)
	b.MulI(rH, rI, 2654435761)
	b.ShrI(rH, rH, 13)
	b.AndI(rC, rH, 1)
	b.BrZ(rC, "skip")
	b.Nop()
	b.Label("skip")
	b.CmpLT(rC2, rI, rN)
	b.BrNZ(rC2, "top")
	b.Halt()
	tr := trace.MustRun(b.MustBuild())
	mis := modelMispredicts(tr)
	var count int
	for _, m := range mis {
		if m {
			count++
		}
	}
	// ~2000 chaotic branches; the multiplicative-hash direction bit retains
	// structure a gshare can partially learn, so expect a substantial (not
	// total) mispredict count, and the predictable loop-back branch mostly
	// right.
	if count < 150 {
		t.Errorf("only %d mispredicts modelled on a chaotic branch", count)
	}
	if count > 2500 {
		t.Errorf("%d mispredicts: predictable branches also failing", count)
	}
}

// refPassConfig, refLatency and refPass are the one-configuration-per-pass
// longest-path DP that the nine-lane scan replaced, kept verbatim (minus
// attribution) as the oracle the scan must reproduce bit for bit.
type refPassConfig struct {
	// reducePC, when ≥ 0, scales the miss latency of that static load's L2
	// misses by (1-reduceFrac).
	reducePC   int32
	reduceFrac float64
	// resolveOthers treats every other load's L2/memory misses as L2 hits
	// (the optimistic interaction-cost estimate).
	resolveOthers bool
}

func (a *Analyzer) refLatency(i int, in isa.Inst, pc refPassConfig) (lat float64, demandMem bool) {
	if !in.IsLoad() {
		if in.IsALU() {
			return float64(in.ExecLatency()), false
		}
		return 1, false
	}
	lvl := a.levels[i]
	base := float64(a.cfg.LatL1)
	switch lvl {
	case profile.LvlL2:
		base = float64(a.cfg.LatL2)
	case profile.LvlMem:
		base = float64(a.cfg.LatMem)
	}
	isTargetMiss := pc.reducePC >= 0 && a.tr.PC(i) == pc.reducePC && lvl == profile.LvlMem
	if isTargetMiss {
		miss := base - float64(a.cfg.LatL1)
		return float64(a.cfg.LatL1) + miss*(1-pc.reduceFrac), pc.reduceFrac < 1
	}
	if pc.resolveOthers && lvl == profile.LvlMem {
		return float64(a.cfg.LatL2), false
	}
	return base, lvl == profile.LvlMem
}

func (a *Analyzer) refPass(pc refPassConfig) int64 {
	n := a.tr.Len()
	if n == 0 {
		return 0
	}
	cfg := a.cfg
	D := make([]float64, n)
	E := make([]float64, n)
	C := make([]float64, n)
	lastMispred := -1
	busFree := 0.0
	busOcc := float64(a.cfg.BusOcc)
	for cu := a.tr.Cursor(); cu.Next(); {
		i := cu.Index()
		in := a.tr.Prog.Insts[cu.PC()]

		d := 0.0
		if i > 0 && D[i-1] > d {
			d = D[i-1]
		}
		if i >= cfg.Width {
			if v := D[i-cfg.Width] + 1; v > d {
				d = v
			}
		}
		if lastMispred >= 0 {
			if v := E[lastMispred] + float64(cfg.MispredPen); v > d {
				d = v
			}
		}
		if i >= cfg.ROBSize {
			if v := C[i-cfg.ROBSize]; v > d {
				d = v
			}
		}
		D[i] = d

		lat, demandMem := a.refLatency(i, in, pc)
		base := d
		if p1 := cu.Prod1(); p1 != trace.NoProducer {
			if v := E[p1]; v > base {
				base = v
			}
		}
		if p2 := cu.Prod2(); p2 != trace.NoProducer {
			if v := E[p2]; v > base {
				base = v
			}
		}
		E[i] = base + lat
		if a.levels[i] == profile.LvlMem && busOcc > 0 {
			slot := busFree
			if base > slot {
				slot = base
			}
			busFree = slot + busOcc
			if demandMem {
				if v := slot + lat; v > E[i] {
					E[i] = v
				}
			}
		}

		c := E[i] + 1
		if i > 0 && C[i-1] > c {
			c = C[i-1]
		}
		if i >= cfg.Width {
			if v := C[i-cfg.Width] + 1; v > c {
				c = v
			}
		}
		C[i] = c

		if in.IsBranch() && a.mispred[i] {
			lastMispred = i
		}
	}
	return int64(C[n-1] + 0.5)
}

// refCostCurve is CostCurve as nine refPass calls; pessBase is
// refPass with no target (the baseline).
func (a *Analyzer) refCostCurve(pc int32, pessBase int64) Curve {
	ls := a.prof.Loads[pc]
	missLat := float64(a.cfg.LatMem - a.cfg.LatL1)
	curve := Curve{MissLat: missLat}
	if ls == nil || ls.L2Misses == 0 {
		return curve
	}
	nMiss := float64(ls.L2Misses)
	optBase := a.refPass(refPassConfig{reducePC: pc, reduceFrac: 0, resolveOthers: true})
	fracs := [4]float64{0.25, 0.5, 0.75, 1.0}
	for k, f := range fracs {
		pess := a.refPass(refPassConfig{reducePC: pc, reduceFrac: f})
		opt := a.refPass(refPassConfig{reducePC: pc, reduceFrac: f, resolveOthers: true})
		pessGain := float64(pessBase-pess) / nMiss
		optGain := float64(optBase-opt) / nMiss
		if pessGain < 0 {
			pessGain = 0
		}
		if optGain < 0 {
			optGain = 0
		}
		curve.Gain[k] = (pessGain + optGain) / 2
	}
	for k := 1; k < 4; k++ {
		if curve.Gain[k] < curve.Gain[k-1] {
			curve.Gain[k] = curve.Gain[k-1]
		}
	}
	return curve
}

// assertMatchesReference checks the baseline and the curve of every given
// load against the reference with == (no tolerance).
func assertMatchesReference(t *testing.T, name string, a *Analyzer, pcs []int32) {
	t.Helper()
	base := a.refPass(refPassConfig{reducePC: -1})
	if a.Baseline() != base {
		t.Errorf("%s: Baseline() = %d, reference %d", name, a.Baseline(), base)
	}
	for _, pc := range pcs {
		if got, want := a.CostCurve(pc), a.refCostCurve(pc, base); got != want {
			t.Errorf("%s: CostCurve(%d) = %+v, reference %+v", name, pc, got, want)
		}
	}
}

// Problem-load selection as the experiment pipeline's defaults make it.
const (
	testCoverage  = 0.9
	testMinMisses = 100
)

func problemPCs(prof *profile.Profile) []int32 {
	var pcs []int32
	for _, ls := range prof.ProblemLoads(testCoverage, testMinMisses) {
		pcs = append(pcs, ls.PC)
	}
	return pcs
}

// pipelineConfig is the critical-path model the experiment pipeline builds
// from a processor configuration.
func pipelineConfig(c cpu.Config) Config {
	cc := DefaultConfig(c.Hier)
	cc.Width = c.DispatchWidth
	cc.ROBSize = c.ROBSize
	cc.MispredPen = c.FrontEndDepth + c.RedirectPen
	return cc
}

// TestCostCurveMatchesReference pins the nine-lane scan to the nine-pass
// reference, bit for bit, on every problem load of the paper's nine
// benchmarks (Train and Ref inputs) at the Figure 5 memory latencies and
// L2 sizes and with the bus edges off.
func TestCostCurveMatchesReference(t *testing.T) {
	if testing.Short() {
		t.Skip("full benchmarks in short mode")
	}
	// The default point (200 cycles, 256KB L2) and the other Figure 5
	// memory latencies and L2 sizes.
	points := []struct {
		name   string
		mutate func(*cpu.Config)
	}{
		{"default", func(*cpu.Config) {}},
		{"mem100", func(c *cpu.Config) { c.Hier.MemLatency = 100 }},
		{"mem300", func(c *cpu.Config) { c.Hier.MemLatency = 300 }},
		{"l2-128KB", func(c *cpu.Config) { c.Hier.L2.SizeBytes, c.Hier.L2.HitLatency = 128<<10, 10 }},
		{"l2-512KB", func(c *cpu.Config) { c.Hier.L2.SizeBytes, c.Hier.L2.HitLatency = 512<<10, 15 }},
	}
	// One parallel subtest per (benchmark, input): each builds its own
	// trace and checks every point against it.
	for _, name := range program.PaperNames() {
		bm, err := program.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		for _, input := range []program.InputClass{program.Train, program.Ref} {
			t.Run(fmt.Sprintf("%s/%v", name, input), func(t *testing.T) {
				t.Parallel()
				tr := trace.MustRun(bm.Build(input))
				for _, pt := range points {
					at := fmt.Sprintf("%s/%v/%s", name, input, pt.name)
					c := cpu.DefaultConfig()
					pt.mutate(&c)
					prof := profile.Collect(tr, profile.ConfigFromHier(c.Hier))
					pcs := problemPCs(prof)
					if len(pcs) == 0 {
						t.Fatalf("%s: no problem loads", at)
					}
					cc := pipelineConfig(c)
					assertMatchesReference(t, at, New(tr, prof, cc), pcs)
					if pt.name == "default" {
						cc.BusOcc = 0
						assertMatchesReference(t, at+"/nobus", New(tr, prof, cc), pcs)
					}
				}
			})
		}
	}
}

// TestBreakdownPinned pins the baseline and the Figure 2 attribution on
// the paper's nine benchmarks (Train input, pipeline configuration) to the
// values the one-estimate-per-pass analyzer produced: the single-lane scan
// must reproduce its last-arriving-edge choices, ties included.
func TestBreakdownPinned(t *testing.T) {
	if testing.Short() {
		t.Skip("full benchmarks in short mode")
	}
	want := map[string]struct {
		base int64
		bd   [5]int64
	}{
		"bzip2":     {428971, [5]int64{370796, 24514, 11020, 1793, 20848}},
		"gap":       {350262, [5]int64{206091, 4578, 9581, 1254, 128758}},
		"gcc":       {235019, [5]int64{54449, 1386, 9302, 363, 169519}},
		"mcf":       {440796, [5]int64{169678, 10724, 8199, 874, 251321}},
		"parser":    {292326, [5]int64{287507, 630, 1416, 1363, 1410}},
		"twolf":     {363880, [5]int64{180541, 756, 23102, 857, 158624}},
		"vortex":    {506942, [5]int64{130244, 4158, 2707, 339, 369494}},
		"vpr.place": {348629, [5]int64{174918, 938, 26322, 846, 145605}},
		"vpr.route": {657769, [5]int64{23262, 672, 601, 106, 633128}},
	}
	c := cpu.DefaultConfig()
	for _, name := range program.PaperNames() {
		bm, err := program.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		tr := trace.MustRun(bm.Build(program.Train))
		a := New(tr, profile.Collect(tr, profile.ConfigFromHier(c.Hier)), pipelineConfig(c))
		if w := want[name]; a.Baseline() != w.base || a.Breakdown() != w.bd {
			t.Errorf("%s: baseline %d breakdown %v, want %d %v", name, a.Baseline(), a.Breakdown(), w.base, w.bd)
		}
	}
}

// TestCostCurveConcurrent calls CostCurve on one Analyzer from several
// goroutines at once (the scan's buffers are per call; the Analyzer is
// read-only after New) and checks every result against a serial call.
func TestCostCurveConcurrent(t *testing.T) {
	a, _, prof := analyzerFor(t, missLoop(300))
	var pcs []int32
	for pc := range prof.Loads {
		pcs = append(pcs, pc)
	}
	want := make([]Curve, len(pcs))
	for k, pc := range pcs {
		want[k] = a.CostCurve(pc)
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k, pc := range pcs {
				if got := a.CostCurve(pc); got != want[k] {
					t.Errorf("concurrent CostCurve(%d) = %+v, serial %+v", pc, got, want[k])
				}
			}
		}()
	}
	wg.Wait()
}

// TestCostCurveMatchesReferenceGen runs the same differential over seeded
// generated workloads.
func TestCostCurveMatchesReferenceGen(t *testing.T) {
	specs := []gen.Spec{
		{Family: gen.PointerChase, Seed: 1},
		{Family: gen.HashProbe, Seed: 2, ProblemLoads: 3},
		{Family: gen.TreeWalk, Seed: 3, BranchMix: 40},
	}
	c := cpu.DefaultConfig()
	for _, s := range specs {
		bm, err := s.Benchmark()
		if err != nil {
			t.Fatal(err)
		}
		tr := trace.MustRun(bm.Build(program.Train))
		prof := profile.Collect(tr, profile.ConfigFromHier(c.Hier))
		pcs := problemPCs(prof)
		if len(pcs) == 0 {
			t.Fatalf("%s: no problem loads", s.Name())
		}
		assertMatchesReference(t, s.Name(), New(tr, prof, pipelineConfig(c)), pcs)
	}
}

// farReads builds a pointer chase whose consumer loads read their
// producers from 1 to 130 entries back (Nops fill each gap), so every
// machine shape below has a binding producer just inside its ROB and a
// dominated one at or beyond it. A consumer is a load so that its own
// latency, which the ROB edge cannot hide, carries the producer's time
// down the chain. Each gap ends in a taken branch on the loaded zero,
// mispredicted on its first and only execution, and the program ends in a
// long dependent run that also reads a register loaded at index 0.
func farReads() *isa.Program {
	b := isa.NewBuilder("far")
	const rFirst, rP, rC = isa.Reg(1), isa.Reg(2), isa.Reg(3)
	b.Load(rFirst, isa.Zero, 0)
	for k, gap := range []int{1, 2, 3, 4, 62, 63, 64, 65, 100, 127, 128, 130} {
		b.Load(rP, rC, 0) // the producer, chained on the last consumer
		for j := 1; j < gap; j++ {
			b.Nop()
		}
		b.Load(rC, rP, 0) // reads the producer gap entries back
		next := fmt.Sprintf("gap%d", k)
		b.BrZ(rC, next)
		b.Label(next)
	}
	for j := 0; j < 80; j++ {
		b.AddI(rC, rC, 1)
	}
	b.Add(rC, rC, rFirst)
	b.Halt()
	b.SetMem(make([]int64, 8))
	return b.MustBuild()
}

// TestCostCurveMatchesReferenceTiny covers the ring-buffer edges on
// hand-built traces and profiles: fewer entries than the dispatch width or
// the ROB, a memory-level load at index 0, memory-level non-load entries
// (which still take a bus slot), producers on both sides of the ROB
// distance and mispredicted branches followed by long dependent runs, under
// several machine shapes.
func TestCostCurveMatchesReferenceTiny(t *testing.T) {
	// Loads of zero: the first entry is a memory-level load.
	first := func(loads int) *isa.Program {
		b := isa.NewBuilder("tiny")
		for k := 0; k < loads; k++ {
			b.Load(isa.Reg(1+k%4), isa.Zero, int64(8*k))
			b.AddI(isa.Reg(5), isa.Reg(1+k%4), 1)
		}
		b.Halt()
		b.SetMem(make([]int64, 8*loads+8))
		return b.MustBuild()
	}
	programs := []struct {
		name string
		p    *isa.Program
	}{
		{"n<width", first(1)},
		{"n<rob", first(20)},
		{"loop", missLoop(60)},
		{"far", farReads()},
	}
	shapes := []Config{
		DefaultConfig(cache.DefaultHierConfig()),
		{Width: 1, ROBSize: 1, MispredPen: 3, LatL1: 2, LatL2: 12, LatMem: 200, BusOcc: 4},
		{Width: 8, ROBSize: 3, MispredPen: 0, LatL1: 1, LatL2: 5, LatMem: 51, BusOcc: 40},
		{Width: 2, ROBSize: 64, MispredPen: 10, LatL1: 3, LatL2: 15, LatMem: 215, BusOcc: 0},
	}
	traces := make([]*trace.Trace, len(programs))
	for k, tp := range programs {
		traces[k] = trace.MustRun(tp.p)
	}
	if n := traces[0].Len(); n >= shapes[0].Width {
		t.Fatalf("n<width: %d entries", n)
	}
	if n := traces[1].Len(); n <= shapes[0].Width || n >= shapes[0].ROBSize {
		t.Fatalf("n<rob: %d entries", n)
	}
	// Index 0 is made memory-level below: a load in first(n), a non-load
	// in missLoop.
	if !traces[0].Inst(0).IsLoad() || traces[2].Inst(0).IsLoad() {
		t.Fatal("index 0: want a load in first(n) and a non-load in missLoop")
	}
	// The far reads reach past the largest ROB below, and their branches
	// mispredict.
	if last := traces[3].Len() - 2; traces[3].Prod2(last) != 0 || last <= shapes[0].ROBSize {
		t.Fatalf("far: entry %d reads %d, want index 0 beyond ROB %d", last, traces[3].Prod2(last), shapes[0].ROBSize)
	}
	var mispredicts int
	for _, m := range modelMispredicts(traces[3]) {
		if m {
			mispredicts++
		}
	}
	if mispredicts == 0 {
		t.Fatal("far: no mispredicted branch")
	}
	rng := rand.New(rand.NewSource(7))
	for k, tp := range programs {
		tr := traces[k]
		for variant := 0; variant < 4; variant++ {
			// Hand-built service levels: loads draw L1/L2/memory, the entry
			// at index 0 is memory-level, and some non-loads are marked
			// memory-level too.
			prof := &profile.Profile{Loads: map[int32]*profile.LoadStats{}, Levels: make([]uint8, tr.Len())}
			pcs := []int32{-1, 9999} // no such load
			for i := 0; i < tr.Len(); i++ {
				pc := tr.PC(i)
				switch {
				case i == 0 || (tr.Inst(i).IsLoad() && rng.Intn(2) == 0) || rng.Intn(8) == 0:
					prof.Levels[i] = profile.LvlMem
				case tr.Inst(i).IsLoad():
					prof.Levels[i] = profile.LvlL1 + uint8(rng.Intn(2))
				}
				if tr.Inst(i).IsLoad() {
					ls := prof.Loads[pc]
					if ls == nil {
						ls = &profile.LoadStats{PC: pc}
						prof.Loads[pc] = ls
						pcs = append(pcs, pc)
					}
					ls.Execs++
					if prof.Levels[i] == profile.LvlMem {
						ls.L2Misses++
					}
				}
			}
			for si, cc := range shapes {
				assertMatchesReference(t, fmt.Sprintf("%s/v%d/shape%d", tp.name, variant, si), New(tr, prof, cc), pcs)
			}
		}
	}
}

// TestCostCurveMemoryBounded pins the scans' memory to the window, not the
// trace: on bzip2/train one CostCurve call allocates under 1 MiB, and New
// under 1 MiB beyond its per-entry mispredict flags (n bytes). Not
// parallel: TotalAlloc counts the whole process.
func TestCostCurveMemoryBounded(t *testing.T) {
	bm, err := program.ByName("bzip2")
	if err != nil {
		t.Fatal(err)
	}
	tr := trace.MustRun(bm.Build(program.Train))
	c := cpu.DefaultConfig()
	prof := profile.Collect(tr, profile.ConfigFromHier(c.Hier))
	pcs := problemPCs(prof)
	if len(pcs) == 0 {
		t.Fatal("bzip2: no problem loads")
	}
	allocated := func(f func()) uint64 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		f()
		runtime.ReadMemStats(&after)
		return after.TotalAlloc - before.TotalAlloc
	}
	n := uint64(tr.Len())
	var a *Analyzer
	if got, limit := allocated(func() { a = New(tr, prof, pipelineConfig(c)) }), n+1<<20; got >= limit {
		t.Errorf("New allocated %d B on %d entries, want under %d", got, n, limit)
	}
	if got := allocated(func() { a.CostCurve(pcs[0]) }); got >= 1<<20 {
		t.Errorf("CostCurve allocated %d B on %d entries, want under %d", got, n, 1<<20)
	}
}

// Sinks for the benchmarks' results, so the compiler keeps the calls.
var (
	benchCurve    Curve
	benchAnalyzer *Analyzer
)

// paperInputs traces and profiles the paper's nine benchmarks (Train
// input, default configuration) for the benchmarks below.
func paperInputs(b *testing.B) (c cpu.Config, trs []*trace.Trace, profs []*profile.Profile) {
	c = cpu.DefaultConfig()
	for _, name := range program.PaperNames() {
		bm, err := program.ByName(name)
		if err != nil {
			b.Fatal(err)
		}
		tr := trace.MustRun(bm.Build(program.Train))
		trs = append(trs, tr)
		profs = append(profs, profile.Collect(tr, profile.ConfigFromHier(c.Hier)))
	}
	return c, trs, profs
}

// BenchmarkCostCurves times the curves stage's per-load work: CostCurve
// for every problem load of the paper's nine benchmarks. Tracing,
// profiling and New run before the timer.
func BenchmarkCostCurves(b *testing.B) {
	c, trs, profs := paperInputs(b)
	type load struct {
		a  *Analyzer
		pc int32
	}
	var loads []load
	var entries int
	for k, tr := range trs {
		a := New(tr, profs[k], pipelineConfig(c))
		for _, pc := range problemPCs(profs[k]) {
			loads = append(loads, load{a, pc})
			entries += tr.Len()
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, l := range loads {
			benchCurve = l.a.CostCurve(l.pc)
		}
	}
	b.ReportMetric(float64(entries)*float64(b.N)/b.Elapsed().Seconds(), "entries/s")
}

// BenchmarkAnalyzerNew times New — the mispredict model and the one-lane
// baseline scan — on the paper's nine benchmarks. Tracing and profiling
// run before the timer.
func BenchmarkAnalyzerNew(b *testing.B) {
	c, trs, profs := paperInputs(b)
	var entries int
	for _, tr := range trs {
		entries += tr.Len()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for k, tr := range trs {
			benchAnalyzer = New(tr, profs[k], pipelineConfig(c))
		}
	}
	b.ReportMetric(float64(entries)*float64(b.N)/b.Elapsed().Seconds(), "entries/s")
}
