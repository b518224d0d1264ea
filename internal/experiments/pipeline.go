package experiments

// The staged preparation pipeline. stageTable is the one place a stage is
// declared: its upstream stages, its configuration projection, its build
// and its spill codec. Stages, the fingerprint plan (planFor), the
// store-backed build (ensure), the assembly (stagedPrepare), the
// scheduler's DAG (addChain), the disk tier (spillLoad, spillSave) and the
// per-stage counters all read it, indexed by row. The uncached Prepare and
// PrepareTrace stay composed by hand: they are the reference the staged
// path is tested against.

import (
	"context"
	"fmt"
	"io"
	"slices"
	"time"

	"repro/internal/cpu"
	"repro/internal/critpath"
	"repro/internal/energy"
	"repro/internal/fingerprint"
	"repro/internal/isa"
	"repro/internal/profile"
	"repro/internal/program"
	"repro/internal/pthsel"
	"repro/internal/slicer"
	"repro/internal/trace"
)

// Stage identifies one stage of the preparation pipeline — the small DAG
//
//	trace ──► profile ──► problems ──┬─► slices
//	  │                              └─► curves ──┐
//	  └────────────────► baseline ────────────────┴─► params
//
// Every stage artifact is cached under a content fingerprint derived from
// exactly the configuration fields the stage reads (chained through its
// upstream artifacts' fingerprints), so a sweep point that mutates one knob
// rebuilds only the stages that actually depend on it:
//
//	trace    — (benchmark, input) alone; no configuration
//	profile  — profile.Config (L1D/L2 geometry, stride prefetcher)
//	problems — ProblemCoverage, MinMisses
//	slices   — slicer.Config
//	curves   — critpath.Config (core shape + hierarchy latencies)
//	baseline — cpu.Config with the energy parameters zeroed (simulation
//	           timing is independent of them; energy is recomputed from the
//	           cached event counts per requesting configuration)
//	params   — pthsel.DeriveConfig (latencies + energy model + floors)
//	prepared — the assembled whole-config view (cheap; kept so repeated
//	           figures over one configuration share a single assembly)
type Stage string

// Pipeline stages, in dependency order.
const (
	StageTrace    Stage = "trace"
	StageProfile  Stage = "profile"
	StageProblems Stage = "problems"
	StageSlices   Stage = "slices"
	StageCurves   Stage = "curves"
	StageBaseline Stage = "baseline"
	StageParams   Stage = "params"
	StagePrepared Stage = "prepared"
)

// stageDef declares one pipeline stage.
type stageDef struct {
	stage Stage
	// up lists the upstream stages in the order build reads them; the
	// stage's key chains their keys in that order.
	up []Stage
	// conf projects an experiment Config onto the fields the stage reads;
	// its fingerprint is folded into the stage's key. nil only for the
	// trace, which the workload alone identifies.
	conf  func(Config) any
	build func(ctx context.Context, in stageIn) (any, error)
	codec *stageCodec // nil: never spilled
}

// stageIn is what a stage's build reads: the workload, the stage's config
// projection and its upstream artifacts in declared order.
type stageIn struct {
	name  string
	input program.InputClass
	conf  any
	up    []any
}

// stageTable lists every stage in dependency order, each row's upstream
// stages before it, StagePrepared last.
var stageTable = []stageDef{{
	stage: StageTrace,
	build: func(_ context.Context, in stageIn) (any, error) { return stageTrace(in.name, in.input) },
	// Traces spill in the page-aligned format so the warm path can mmap
	// them, and a cold-built trace is served from the file just written for
	// it, reusing the built trace's program: a disk-backed engine holds
	// every trace in a mapping. A file in an older trace format fails
	// verification and is quarantined and rebuilt: the spill tier is a
	// cache.
	codec: &stageCodec{
		encode: func(v any) ([]byte, error) { return encodeWith(v.(*trace.Trace).EncodeBinaryV2) },
		decode: func(name string, input program.InputClass, data []byte) (any, error) {
			prog, err := buildProgram(name, input)
			if err != nil {
				return nil, err
			}
			return trace.DecodeBinaryV2(data, prog)
		},
		mapped: func(name string, input program.InputClass, payload []byte, built any) (any, bool, error) {
			if built != nil {
				return trace.MapBytes(payload, built.(*trace.Trace).Prog)
			}
			prog, err := buildProgram(name, input)
			if err != nil {
				return nil, false, err
			}
			return trace.MapBytes(payload, prog)
		},
	},
}, {
	stage: StageProfile,
	up:    []Stage{StageTrace},
	conf:  func(c Config) any { return profile.ConfigFromHier(c.CPU.Hier) },
	build: func(_ context.Context, in stageIn) (any, error) {
		return profile.Collect(in.up[0].(*trace.Trace), in.conf.(profile.Config)), nil
	},
	codec: binaryCodec((*profile.Profile).EncodeBinary, profile.DecodeBinary),
}, {
	stage: StageProblems,
	up:    []Stage{StageProfile},
	conf:  func(c Config) any { return problemsConfigOf(c) },
	build: func(_ context.Context, in stageIn) (any, error) {
		return stageProblems(in.up[0].(*profile.Profile), in.conf.(problemsConfig)), nil
	},
	// ProblemLoads returns nil for a workload without problem loads, and
	// nil encodes as JSON null: any list is a real one.
	codec: jsonCodec[[]*profile.LoadStats](nil),
}, {
	stage: StageSlices,
	up:    []Stage{StageTrace, StageProfile, StageProblems},
	conf:  func(c Config) any { return c.Slicer },
	build: func(_ context.Context, in stageIn) (any, error) {
		return slicer.BuildTrees(in.up[0].(*trace.Trace), in.up[1].(*profile.Profile),
			in.up[2].([]*profile.LoadStats), in.conf.(slicer.Config)), nil
	},
	codec: binaryCodec(func(ts []*slicer.Tree, w io.Writer) error { return slicer.EncodeTrees(w, ts) },
		slicer.DecodeTrees),
}, {
	stage: StageCurves,
	up:    []Stage{StageTrace, StageProfile, StageProblems},
	conf:  func(c Config) any { return critpathConfig(c) },
	build: func(ctx context.Context, in stageIn) (any, error) {
		return stageCurves(ctx, in.up[0].(*trace.Trace), in.up[1].(*profile.Profile),
			in.up[2].([]*profile.LoadStats), in.conf.(critpath.Config))
	},
	// A workload without problem loads has an empty curve set, `{}`; only
	// `null` is not a curve set.
	codec: jsonCodec(func(m map[int32]critpath.Curve) bool { return m != nil }),
}, {
	stage: StageBaseline,
	up:    []Stage{StageTrace},
	conf:  func(c Config) any { return timingConfig(c.CPU) },
	build: func(ctx context.Context, in stageIn) (any, error) {
		return stageBaseline(ctx, in.name, in.conf.(cpu.Config), in.up[0].(*trace.Trace))
	},
	codec: jsonCodec(func(r *cpu.Result) bool { return r.Cycles > 0 }),
}, {
	stage: StageParams,
	up:    []Stage{StageBaseline, StageCurves},
	conf:  func(c Config) any { return deriveConfig(c) },
	build: func(_ context.Context, in stageIn) (any, error) {
		dc := in.conf.(pthsel.DeriveConfig)
		base := withEnergy(in.up[0].(*cpu.Result), dc.Energy)
		return dc.Derive(float64(base.Cycles), base.Energy.Total(), base.IPC(),
			in.up[1].(map[int32]critpath.Curve)), nil
	},
	codec: jsonCodec(func(p pthsel.Params) bool { return p.L0 > 0 }),
}, {
	// The assembled view is cheap to rebuild from spilled stages and holds
	// cross-stage pointers that do not serialize meaningfully: no codec.
	stage: StagePrepared,
	up: []Stage{StageTrace, StageProfile, StageProblems, StageSlices,
		StageCurves, StageBaseline, StageParams},
	conf: func(c Config) any { return c },
	build: func(_ context.Context, in stageIn) (any, error) {
		cfg := in.conf.(Config)
		p := assemblePrepared(in.name, in.up[0].(*trace.Trace), in.up[1].(*profile.Profile),
			in.up[3].([]*slicer.Tree), in.up[4].(map[int32]critpath.Curve),
			withEnergy(in.up[5].(*cpu.Result), cfg.CPU.Energy), in.up[6].(pthsel.Params))
		p.Input = in.input
		return p, nil
	},
}}

// Stages lists every pipeline stage in dependency order (StagePrepared
// last: the assembled whole-config view behind StagePrepares).
func Stages() []Stage {
	out := make([]Stage, len(stageTable))
	for i, d := range stageTable {
		out[i] = d.stage
	}
	return out
}

// stageRow returns st's row in stageTable, or -1 for an unknown stage.
func stageRow(st Stage) int {
	return slices.IndexFunc(stageTable, func(d stageDef) bool { return d.stage == st })
}

// problemsConfig is the configuration of the problem-load mining stage.
type problemsConfig struct {
	Coverage  float64
	MinMisses int64
}

func problemsConfigOf(cfg Config) problemsConfig {
	return problemsConfig{Coverage: cfg.ProblemCoverage, MinMisses: cfg.MinMisses}
}

// stagePlan is one experiment Config projected onto the pipeline: each
// stage's config projection, by table row, plus its chained content
// fingerprint.
type stagePlan struct {
	confs []any
	fps   map[Stage]string
}

// timingConfig strips the processor configuration down to the fields that
// influence simulated behaviour: the energy parameters are accounting-only
// (they are read exactly once, after the last cycle, to convert event counts
// into energy), so baselines are keyed — and simulated — without them.
func timingConfig(c cpu.Config) cpu.Config {
	c.Energy = energy.Params{}
	return c
}

// deriveConfig projects an experiment Config onto the params-derivation
// stage's inputs.
func deriveConfig(cfg Config) pthsel.DeriveConfig {
	h := cfg.CPU.Hier
	return pthsel.DeriveConfig{
		BWSEQproc: float64(cfg.CPU.FetchWidth),
		MissLat:   float64(h.MemLatency),
		LatL1:     float64(h.L1D.HitLatency),
		LatL2:     float64(h.L1D.HitLatency + h.L2.HitLatency),
		LatMem:    float64(h.L1D.HitLatency + h.L2.HitLatency + h.MemLatency),
		Energy:    cfg.CPU.Energy,
		MinDCptcm: 16,
	}
}

// planFor computes the per-stage configs and content fingerprints of one
// experiment configuration. workloadFP is the content fingerprint of the
// workload itself — empty for the built-in corpus, whose (benchmark, input)
// pair alone identifies the trace, and the generated-spec fingerprint for
// registered generator workloads, so a respun spec under a reused name can
// never alias a cached stage. A configuration the simulator cannot run
// (cpu.Config.Validate) or that cannot be fingerprinted (e.g. a sweep
// mutation smuggling in a NaN) is reported as an error instead of failing
// from inside the artifact store.
func planFor(cfg Config, workloadFP string) (stagePlan, error) {
	if err := cfg.CPU.Validate(); err != nil {
		return stagePlan{}, err
	}
	p := stagePlan{confs: make([]any, len(stageTable)), fps: make(map[Stage]string, len(stageTable))}
	for i, d := range stageTable {
		if d.conf == nil {
			p.fps[d.stage] = workloadFP
			continue
		}
		p.confs[i] = d.conf(cfg)
		if d.stage == StagePrepared {
			// The whole Config covers every upstream projection, so the
			// key chains only the workload — the key Runner.Prepare
			// computes without a plan.
			fp, err := preparedFingerprint(cfg, workloadFP)
			if err != nil {
				return stagePlan{}, err
			}
			p.fps[d.stage] = fp
			continue
		}
		own, err := fingerprint.JSON(p.confs[i])
		if err != nil {
			return stagePlan{}, fmt.Errorf("%s stage: %w", d.stage, err)
		}
		ups := make([]string, len(d.up))
		for k, u := range d.up {
			ups[k] = p.fps[u]
		}
		p.fps[d.stage] = fingerprint.Chain(own, ups...)
	}
	return p, nil
}

// preparedFingerprint is the whole-config fingerprint behind the assembled
// preparation's store key, chained through the workload fingerprint. It is
// computed separately from the full stage plan so Runner.Prepare can key its
// outer store lookup without re-deriving every stage config on a cache hit.
func preparedFingerprint(cfg Config, workloadFP string) (string, error) {
	fp, err := fingerprint.JSON(cfg)
	if err != nil {
		return "", fmt.Errorf("%s stage: %w", StagePrepared, err)
	}
	return fingerprint.Chain(fp, workloadFP), nil
}

// workloadFingerprint returns the registered benchmark's content fingerprint
// (empty for the built-in corpus) plus a not-found error for unknown names,
// so entry points fail fast before touching the store.
func workloadFingerprint(name string) (string, error) {
	bm, err := program.ByName(name)
	if err != nil {
		return "", err
	}
	return bm.Fingerprint, nil
}

// buildProgram materializes a registered benchmark's program for input.
func buildProgram(name string, input program.InputClass) (*isa.Program, error) {
	bm, err := program.ByName(name)
	if err != nil {
		return nil, err
	}
	return bm.Build(input), nil
}

// ------------------------------------------------------- stage functions --
//
// Each stage is a plain function of its upstream artifacts and its own
// config struct; the table rows wrap them for the content-addressed store,
// and the uncached paths (custom programs, the free Prepare) call them
// directly.

func stageTrace(name string, input program.InputClass) (*trace.Trace, error) {
	prog, err := buildProgram(name, input)
	if err != nil {
		return nil, err
	}
	tr, err := trace.Run(prog)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", name, err)
	}
	return tr, nil
}

func stageProblems(prof *profile.Profile, pc problemsConfig) []*profile.LoadStats {
	return prof.ProblemLoads(pc.Coverage, pc.MinMisses)
}

func stageCurves(ctx context.Context, tr *trace.Trace, prof *profile.Profile,
	problems []*profile.LoadStats, ccfg critpath.Config) (map[int32]critpath.Curve, error) {
	cp := critpath.New(tr, prof, ccfg)
	curves := make(map[int32]critpath.Curve, len(problems))
	for _, ls := range problems {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		curves[ls.PC] = cp.CostCurve(ls.PC)
	}
	return curves, nil
}

func stageBaseline(ctx context.Context, name string, timingCfg cpu.Config, tr *trace.Trace) (*cpu.Result, error) {
	base, err := Simulate(ctx, timingCfg, tr, nil)
	if err != nil {
		return nil, fmt.Errorf("%s baseline: %w", name, err)
	}
	return base, nil
}

// withEnergy returns one configuration's view of a timing Result: a clone
// whose energy breakdown is recomputed from the recorded event counts under
// that configuration's energy parameters. Simulation timing is independent
// of the energy model, so this is bit-identical to re-running the
// simulation under the full configuration — which is what lets sweep
// points that only mutate energy knobs share the cached baseline L0/E0 and
// every target's timing run.
func withEnergy(res *cpu.Result, p energy.Params) *cpu.Result {
	out := res.Clone()
	out.Energy = energy.Compute(p, out.Events)
	return out
}

// assemblePrepared builds the whole-config view from stage artifacts. base
// must already carry the requesting configuration's energy breakdown.
func assemblePrepared(name string, tr *trace.Trace, prof *profile.Profile, trees []*slicer.Tree,
	curves map[int32]critpath.Curve, base *cpu.Result, params pthsel.Params) *Prepared {
	return &Prepared{
		Name:     name,
		Trace:    tr,
		Prof:     prof,
		Trees:    trees,
		Curves:   curves,
		Baseline: base,
		Params:   params,
	}
}

// --------------------------------------------------------- staged runner --

// chain is one (workload, input, config) preparation chain with its stage
// plan: what stagedPrepare walks and the scheduler expands into DAG nodes.
type chain struct {
	name  string
	input program.InputClass
	cfg   Config
	plan  stagePlan
}

func newChain(name string, input program.InputClass, cfg Config) (*chain, error) {
	wfp, err := workloadFingerprint(name)
	if err != nil {
		return nil, err
	}
	plan, err := planFor(cfg, wfp)
	if err != nil {
		return nil, err
	}
	return &chain{name: name, input: input, cfg: cfg, plan: plan}, nil
}

func (c *chain) key(st Stage) artifactKey {
	return artifactKey{name: c.name, input: c.input, stage: st, fp: c.plan.fps[st]}
}

// build runs st's build over its upstream artifacts, read in declared
// order through get.
func (c *chain) build(ctx context.Context, st Stage, get func(Stage) (any, error)) (any, error) {
	i := stageRow(st)
	d := &stageTable[i]
	in := stageIn{name: c.name, input: c.input, conf: c.plan.confs[i], up: make([]any, len(d.up))}
	for k, u := range d.up {
		v, err := get(u)
		if err != nil {
			return nil, err
		}
		in.up[k] = v
	}
	return d.build(ctx, in)
}

// stage requests one stage artifact through the content-addressed store,
// emitting observer events and tallying the stage's outcome counters; the
// assembled view reports as a preparation, every other stage as a stage. A
// cold miss consults the disk spill tier before computing: the disk load
// happens inside the singleflight slot, so concurrent requesters of one
// artifact perform at most one load just as they perform at most one
// build, and a freshly built artifact is spilled back before the slot
// completes. After Close every request fails with ErrClosed.
func (r *Runner) stage(ctx context.Context, key artifactKey, compute func() (any, error)) (any, error) {
	if r.closed.Load() {
		return nil, ErrClosed
	}
	i := stageRow(key.stage)
	codec, sc := stageTable[i].codec, &r.stats[i]
	start, done, cached, label := EventStageStart, EventStageDone, EventStageCached, string(key.stage)
	if key.stage == StagePrepared {
		start, done, cached, label = EventPrepareStart, EventPrepareDone, EventPrepareCached, ""
	}
	event := func(kind EventKind) Event {
		return Event{Kind: kind, Bench: key.name, Input: key.input.String(), Stage: label}
	}
	val, outcome, err := r.store.get(ctx, key, func() (any, error) {
		if v, ok, mapped := r.spillLoad(codec, key); ok {
			sc.spill.Add(1)
			if mapped {
				sc.mapped.Add(1)
			}
			r.emit(ctx, event(EventStageSpill))
			return v, nil
		}
		sc.cold.Add(1)
		r.emit(ctx, event(start))
		t0 := time.Now()
		v, cerr := compute()
		elapsed := time.Since(t0)
		ev := event(done)
		ev.Err, ev.DurationNS = cerr, elapsed.Nanoseconds()
		r.emit(ctx, ev)
		if cerr == nil {
			sc.lat.record(elapsed.Nanoseconds())
			v = r.spillSave(codec, key, v)
		}
		return v, cerr
	})
	if err != nil {
		return nil, err
	}
	switch outcome {
	case storeHit:
		sc.hit.Add(1)
		r.emit(ctx, event(cached))
	case storeShared:
		sc.shared.Add(1)
	}
	return val, nil
}

// stagedPrepare assembles a Prepared from per-stage artifacts, requesting
// each upstream stage of the assembly in order and computing each missing
// one at most once per engine (shared across every sweep point and figure
// benchmark whose configuration agrees on the fields that stage reads).
// The walk and the scheduler's DAG nodes share one implementation, ensure,
// so both orders produce identical store traffic for identical work.
func (r *Runner) stagedPrepare(ctx context.Context, name string, input program.InputClass, cfg Config) (*Prepared, error) {
	c, err := newChain(name, input, cfg)
	if err != nil {
		return nil, err
	}
	// The assembly is not built through the store: we are its compute.
	v, err := c.build(ctx, StagePrepared, func(u Stage) (any, error) { return r.ensure(ctx, c, u) })
	if err != nil {
		return nil, err
	}
	return v.(*Prepared), nil
}

// ensure requests one stage of c through the content-addressed store,
// building it on a cold miss. The build reads its upstream artifacts
// through upstream: when the caller already ordered them — the sequential
// stagedPrepare walk, or the scheduler's dependency edges — that read is a
// free peek; an out-of-order call recursively ensures them, so ensure is
// correct from any call site.
func (r *Runner) ensure(ctx context.Context, c *chain, st Stage) (any, error) {
	if st == StagePrepared {
		return r.Prepare(ctx, c.name, c.input, c.cfg)
	}
	return r.stage(ctx, c.key(st), func() (any, error) {
		return c.build(ctx, st, func(u Stage) (any, error) { return r.upstream(ctx, c, u) })
	})
}

// upstream reads an upstream artifact from inside a build: peek first —
// the value is an input being read, not a new request, so a completed
// entry costs no counter or event traffic — falling back to a full ensure
// when nothing ordered it yet (or a cancellation retired it).
func (r *Runner) upstream(ctx context.Context, c *chain, st Stage) (any, error) {
	if v, err, ok := r.store.peek(c.key(st)); ok {
		return v, err
	}
	return r.ensure(ctx, c, st)
}
