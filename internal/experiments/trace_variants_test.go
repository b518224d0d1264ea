package experiments

import (
	"bytes"
	"context"
	"encoding/json"
	"testing"

	"repro/internal/cpu"
	"repro/internal/program"
	"repro/internal/program/gen"
	"repro/internal/pthsel"
	"repro/internal/trace"
)

// TestTraceVariantEnginesIdentical is the differential identity gate for the
// spill format bump: for every paper benchmark and every generated corpus
// workload, the fresh in-memory trace, its spill-format heap decode and its
// zero-copy mapped view must all drive both engines (event, scan) to
// byte-identical Result JSON. Any representation leak in the
// mapped columns — aliasing, padding, the filled-length trailer — shows up
// here as a diverging simulation.
func TestTraceVariantEnginesIdentical(t *testing.T) {
	ctx := context.Background()
	cfg := DefaultConfig()
	r := NewRunner(cfg, 0, nil)

	type workload struct {
		name string
		tr   *trace.Trace
		pts  []*cpu.PThread
	}
	var workloads []workload
	for _, name := range program.PaperNames() {
		prep, err := r.Prepare(ctx, name, cfg.MeasureInput, cfg)
		if err != nil {
			t.Fatalf("%s: prepare: %v", name, err)
		}
		sel := pthsel.Select(prep.Trace, prep.Prof, prep.Trees, prep.Params, pthsel.TargetL)
		workloads = append(workloads, workload{name, prep.Trace, sel.PThreads})
	}
	corpus := gen.CorpusSpecs()
	if len(corpus) < 20 {
		t.Fatalf("gen corpus has %d specs, want >= 20", len(corpus))
	}
	for _, spec := range corpus {
		bm, err := spec.Benchmark()
		if err != nil {
			t.Fatal(err)
		}
		tr, err := trace.Run(bm.Build(program.Train))
		if err != nil {
			t.Fatal(err)
		}
		workloads = append(workloads, workload{spec.Name(), tr, nil})
	}

	for _, wl := range workloads {
		wl := wl
		t.Run(wl.name, func(t *testing.T) {
			t.Parallel()

			type variant struct {
				name string
				tr   *trace.Trace
			}
			variants := []variant{{"fresh", wl.tr}}
			var v2buf bytes.Buffer
			if err := wl.tr.EncodeBinaryV2(&v2buf); err != nil {
				t.Fatal(err)
			}
			v2, err := trace.DecodeBinaryV2(v2buf.Bytes(), wl.tr.Prog)
			if err != nil {
				t.Fatalf("v2 heap decode: %v", err)
			}
			variants = append(variants, variant{"v2-decode", v2})
			mapped, _, err := trace.MapBytes(v2buf.Bytes(), wl.tr.Prog)
			if err != nil {
				t.Fatalf("v2 mapped view: %v", err)
			}
			variants = append(variants, variant{"mapped", mapped})

			// Reference: the event engine over the fresh trace. Result
			// borrows simulator memory, so marshal before the next run.
			ref, err := Simulate(ctx, cfg.CPU, wl.tr, wl.pts)
			if err != nil {
				t.Fatalf("reference run: %v", err)
			}
			want, err := json.Marshal(ref)
			if err != nil {
				t.Fatal(err)
			}

			for _, v := range variants {
				for _, eng := range []cpu.Engine{cpu.EngineEvent, cpu.EngineScan} {
					c := cfg.CPU
					c.Engine = eng
					res, err := Simulate(ctx, c, v.tr, wl.pts)
					if err != nil {
						t.Fatalf("%s/%s: %v", v.name, eng, err)
					}
					got, err := json.Marshal(res)
					if err != nil {
						t.Fatal(err)
					}
					if !bytes.Equal(got, want) {
						t.Errorf("%s via %q engine diverges from fresh/event", v.name, eng)
					}
				}
			}
		})
	}
}
