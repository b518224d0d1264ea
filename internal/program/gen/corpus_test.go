package gen

import (
	"context"
	"reflect"
	"testing"

	"repro/internal/cpu"
	"repro/internal/program"
	"repro/internal/trace"
)

// corpusSpecs returns the shared differential corpus (see CorpusSpecs).
func corpusSpecs() []Spec { return CorpusSpecs() }

// TestGenCorpusEnginesAgree is the differential corpus harness: every seeded
// spec's Train trace must produce deeply equal (bit-identical once
// marshaled) Results under the event-driven and reference scan engines on
// the default configuration. The corpus here runs without p-threads (pure
// main-thread scheduling); engine agreement with selector-chosen p-threads
// installed is covered by TestGenSelectedPThreadsEnginesAgree in the
// experiments package.
func TestGenCorpusEnginesAgree(t *testing.T) {
	specs := corpusSpecs()
	if len(specs) < 20 {
		t.Fatalf("corpus has %d specs, want >= 20", len(specs))
	}
	for _, s := range specs {
		s := s
		t.Run(s.Name(), func(t *testing.T) {
			bm, err := s.Benchmark()
			if err != nil {
				t.Fatal(err)
			}
			tr, err := trace.Run(bm.Build(program.Train))
			if err != nil {
				t.Fatal(err)
			}
			cfg := cpu.DefaultConfig()
			ev, err1 := cpu.Run(cfg, tr, nil)
			s, err2 := cpu.NewSimulator(cfg, tr, nil)
			var sc *cpu.Result
			if err2 == nil {
				sc, err2 = s.RunReference(context.Background())
			}
			if err1 != nil || err2 != nil {
				t.Fatalf("event err=%v scan err=%v", err1, err2)
			}
			if !reflect.DeepEqual(ev, sc) {
				t.Errorf("engines disagree\nevent: %+v\nscan:  %+v", ev, sc)
			}
		})
	}
}

// TestGenCorpusDeterministicResults: a generated workload's Result must be
// reproducible run to run (the property the artifact store and the golden
// corpus depend on).
func TestGenCorpusDeterministicResults(t *testing.T) {
	for _, f := range Families() {
		s := Spec{Family: f, Seed: 7, WorkingSet: 1 << 13, Depth: 200}
		bm, err := s.Benchmark()
		if err != nil {
			t.Fatal(err)
		}
		tr := trace.MustRun(bm.Build(program.Train))
		a, err := cpu.Run(cpu.DefaultConfig(), tr, nil)
		if err != nil {
			t.Fatal(err)
		}
		b, err := cpu.Run(cpu.DefaultConfig(), tr, nil)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(a, b) {
			t.Errorf("%s: two runs of one generated workload diverge", f)
		}
	}
}

// TestGenNamesUniqueAcrossSeeds guards the canonical-name scheme against
// accidental collisions across a dense seed range (names key the global
// registry).
func TestGenNamesUniqueAcrossSeeds(t *testing.T) {
	seen := map[string]bool{}
	for _, f := range Families() {
		for seed := uint64(0); seed < 50; seed++ {
			n := Spec{Family: f, Seed: seed}.Name()
			if seen[n] {
				t.Fatalf("name collision: %s", n)
			}
			seen[n] = true
		}
	}
}
