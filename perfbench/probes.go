package main

import (
	"bytes"
	"context"
	"fmt"
	"time"

	preexec "repro"
	"repro/internal/artifactdisk"
	"repro/internal/critpath"
	"repro/internal/experiments"
	"repro/internal/isa"
	"repro/internal/labapi"
	"repro/internal/profile"
	"repro/internal/program"
	"repro/internal/program/gen"
	"repro/internal/pthsel"
	"repro/internal/slicer"
	"repro/internal/trace"
)

// probeSpecs are the generated workloads the layer probes add to the paper
// nine: one per family for the first three families, seeded.
func probeSpecs(seed uint64) []string {
	r := newRNG(seed ^ 0x5eed)
	fams := preexec.WorkloadFamilies()
	var out []string
	for k := 0; k < 3; k++ {
		out = append(out, fmt.Sprintf("%s:%d", fams[k], r.next()%1_000_000_000))
	}
	return out
}

// probeTotals accumulates the layer probes' work and time.
type probeTotals struct {
	insts, traceBytes                int64
	interp, encode, mapOpen, decode  time.Duration
	save, load, collect, slice       time.Duration
	curves, derive, selectT          time.Duration
	baseCycles, targetCycles         int64
	baseT, targetT, genT             time.Duration
	nodes, programs, selects, traces int64
	specs                            int64
}

// runProbes calls each layer's exported functions directly, one program at
// a time, on the paper nine and the seeded generated specs, the way the
// preparation pipeline calls them. Every call is a span under tr.
func runProbes(ctx context.Context, b *bench, tr *tracer) (map[string]metric, error) {
	cfg := experiments.DefaultConfig()
	dir, err := b.scratch("probe-store-")
	if err != nil {
		return nil, err
	}
	store, err := artifactdisk.Open(dir, 0)
	if err != nil {
		return nil, err
	}
	root := tr.begin("layer probes", "", 0)
	defer tr.end(root)

	var t probeTotals
	var progs []*isa.Program
	for _, name := range preexec.PaperBenchmarks() {
		bm, err := program.ByName(name)
		if err != nil {
			return nil, err
		}
		progs = append(progs, bm.Build(program.Train))
	}
	for _, s := range probeSpecs(b.seed) {
		spec, err := gen.Parse(s)
		if err != nil {
			return nil, err
		}
		start := time.Now()
		bm, err := spec.Benchmark()
		end := time.Now()
		if err != nil {
			return nil, err
		}
		tr.add("gen "+s, "gen", root, start, end)
		t.genT += end.Sub(start)
		t.specs++
		progs = append(progs, bm.Build(program.Train))
	}

	timed := func(name, layer string, parent int, f func() error) (time.Duration, error) {
		start := time.Now()
		err := f()
		end := time.Now()
		tr.add(name, layer, parent, start, end)
		return end.Sub(start), err
	}
	for _, prog := range progs {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		p := tr.begin("probe "+prog.Name, "", root)
		var tc *trace.Trace
		d, err := timed("trace.Run", "trace", p, func() (err error) { tc, err = trace.Run(prog); return })
		if err != nil {
			return nil, err
		}
		t.interp += d
		t.insts += int64(tc.Len())
		t.programs++

		var buf bytes.Buffer
		d, err = timed("EncodeBinaryV2", "trace", p, func() error { return tc.EncodeBinaryV2(&buf) })
		if err != nil {
			return nil, err
		}
		t.encode += d
		t.traceBytes += int64(buf.Len())
		key := artifactdisk.Key{Name: prog.Name, Input: "train", Stage: "trace", FP: "probe"}
		d, err = timed("SaveAligned", "artifactdisk", p, func() error { return store.SaveAligned(key, buf.Bytes()) })
		if err != nil {
			return nil, err
		}
		t.save += d
		d, err = timed("LoadMapped+MapBytes", "trace", p, func() error {
			m, ok := store.LoadMapped(key)
			if !ok {
				return fmt.Errorf("probe: %s: mapped load missed", prog.Name)
			}
			defer m.Close()
			_, _, err := trace.MapBytes(m.Payload(), prog)
			return err
		})
		if err != nil {
			return nil, err
		}
		t.mapOpen += d
		var data []byte
		d, err = timed("Load", "artifactdisk", p, func() error {
			var ok bool
			if data, ok = store.Load(key); !ok {
				return fmt.Errorf("probe: %s: load missed", prog.Name)
			}
			return nil
		})
		if err != nil {
			return nil, err
		}
		t.load += d
		d, err = timed("DecodeBinaryV2", "trace", p, func() error { _, err := trace.DecodeBinaryV2(data, prog); return err })
		if err != nil {
			return nil, err
		}
		t.decode += d
		t.traces++

		var prof *profile.Profile
		d, _ = timed("profile.Collect", "profile", p, func() error {
			prof = profile.Collect(tc, profile.ConfigFromHier(cfg.CPU.Hier))
			return nil
		})
		t.collect += d
		problems := prof.ProblemLoads(cfg.ProblemCoverage, cfg.MinMisses)
		var trees []*slicer.Tree
		d, _ = timed("slicer.BuildTrees", "slicer", p, func() error {
			trees = slicer.BuildTrees(tc, prof, problems, cfg.Slicer)
			return nil
		})
		t.slice += d
		for _, tree := range trees {
			t.nodes += int64(tree.NumNodes())
		}
		curves := map[int32]critpath.Curve{}
		d, _ = timed("critpath.New+CostCurve", "critpath", p, func() error {
			cp := critpath.New(tc, prof, critpathConfig(cfg))
			for _, ls := range problems {
				curves[ls.PC] = cp.CostCurve(ls.PC)
			}
			return nil
		})
		t.curves += d
		var base *preexec.Result
		d, err = timed("Simulate baseline", "cpu.baseline", p, func() (err error) {
			base, err = experiments.Simulate(ctx, cfg.CPU, tc, nil)
			return
		})
		if err != nil {
			return nil, err
		}
		t.baseT += d
		t.baseCycles += base.Cycles
		var params pthsel.Params
		d, _ = timed("DeriveConfig.Derive", "pthsel", p, func() error {
			params = deriveConfig(cfg).Derive(float64(base.Cycles), base.Energy.Total(), base.IPC(), curves)
			return nil
		})
		t.derive += d
		for _, target := range []preexec.Target{preexec.TargetL, preexec.TargetE, preexec.TargetP} {
			var sel *pthsel.Selection
			d, _ = timed("pthsel.Select "+target.String(), "pthsel", p, func() error {
				sel = pthsel.Select(tc, prof, trees, params, target)
				return nil
			})
			t.selectT += d
			t.selects++
			if target != preexec.TargetP {
				continue
			}
			var res *preexec.Result
			d, err = timed("Simulate target "+target.String(), "cpu.target", p, func() (err error) {
				res, err = experiments.Simulate(ctx, cfg.CPU, tc, sel.PThreads)
				return
			})
			if err != nil {
				return nil, err
			}
			t.targetT += d
			t.targetCycles += res.Cycles
		}
		tr.end(p)
	}

	ms := func(d time.Duration, n int64) float64 { return d.Seconds() * 1e3 / float64(n) }
	return map[string]metric{
		"trace.interp_minst_s":       {float64(t.insts) / t.interp.Seconds() / 1e6, "Minst/s"},
		"trace.bytes_per_inst":       {float64(t.traceBytes) / float64(t.insts), "B/inst"},
		"trace.encode_mb_s":          {float64(t.traceBytes) / t.encode.Seconds() / 1e6, "MB/s"},
		"trace.map_open_ms":          {ms(t.mapOpen, t.traces), "ms"},
		"trace.decode_mb_s":          {float64(t.traceBytes) / t.decode.Seconds() / 1e6, "MB/s"},
		"profile.collect_minst_s":    {float64(t.insts) / t.collect.Seconds() / 1e6, "Minst/s"},
		"slicer.build_ms":            {ms(t.slice, t.programs), "ms"},
		"slicer.nodes":               {float64(t.nodes), "count"},
		"critpath.curves_s":          {t.curves.Seconds(), "s"},
		"pthsel.select_ms":           {ms(t.selectT, t.selects), "ms"},
		"pthsel.derive_ms":           {ms(t.derive, t.programs), "ms"},
		"cpu.target_mcps":            {float64(t.targetCycles) / t.targetT.Seconds() / 1e6, "Mcycles/s"},
		"cpu.baseline_mcps":          {float64(t.baseCycles) / t.baseT.Seconds() / 1e6, "Mcycles/s"},
		"artifactdisk.save_ms":       {ms(t.save, t.traces), "ms"},
		"artifactdisk.load_ms":       {ms(t.load, t.traces), "ms"},
		"artifactdisk.bytes_written": {float64(store.Stats().Bytes), "B"},
		"gen.build_ms":               {ms(t.genT, t.specs), "ms"},
	}, nil
}

// critpathConfig and deriveConfig project an experiment configuration onto
// the critical-path analyzer's and the parameter derivation's inputs, as
// the preparation pipeline does.
func critpathConfig(cfg experiments.Config) critpath.Config {
	c := critpath.DefaultConfig(cfg.CPU.Hier)
	c.Width = cfg.CPU.DispatchWidth
	c.ROBSize = cfg.CPU.ROBSize
	c.MispredPen = cfg.CPU.FrontEndDepth + cfg.CPU.RedirectPen
	return c
}

func deriveConfig(cfg experiments.Config) pthsel.DeriveConfig {
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

// labdProbe measures the daemon's boundaries on workloads that do not go
// through it: one client-pair pass over the probe specs, cold then warm.
func labdProbe(ctx context.Context, b *bench, tr *tracer) ([]labdTiming, error) {
	dir, err := b.scratch("probe-labd-")
	if err != nil {
		return nil, err
	}
	d, err := startDaemon(dir)
	if err != nil {
		return nil, err
	}
	defer d.close()
	var jobs []job
	for round := 0; round < 2; round++ {
		for _, s := range probeSpecs(b.seed) {
			jobs = append(jobs, job{kind: "probe", req: labapi.SweepRequest{Workloads: []string{s}, Targets: []string{"P"}}})
		}
	}
	root := tr.begin("labd probe", "", 0)
	defer tr.end(root)
	var out []labdTiming
	for _, r := range d.drive(ctx, jobs, tr, root) {
		if r.err != nil {
			return nil, r.err
		}
		out = append(out, r.timing)
	}
	return out, nil
}
