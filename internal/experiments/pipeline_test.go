package experiments

import (
	"context"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"repro/internal/program"
)

// fpDiff compares two configs' stage fingerprints and returns the set of
// stages whose artifacts would be invalidated going from a to b.
func fpDiff(t *testing.T, a, b Config) map[Stage]bool {
	t.Helper()
	pa, err := planFor(a, "")
	if err != nil {
		t.Fatal(err)
	}
	pb, err := planFor(b, "")
	if err != nil {
		t.Fatal(err)
	}
	out := map[Stage]bool{}
	for _, st := range Stages() {
		if pa.fps[st] != pb.fps[st] {
			out[st] = true
		}
	}
	return out
}

// TestStageFingerprintSensitivity pins the dependency structure of the
// pipeline: mutating a configuration field must re-fingerprint exactly the
// stages that read it (directly or through an upstream artifact) and no
// others. Every case lists the full invalidation set.
func TestStageFingerprintSensitivity(t *testing.T) {
	base := DefaultConfig()
	cases := []struct {
		name   string
		mutate func(*Config)
		want   map[Stage]bool
	}{
		{
			name:   "energy knob touches only params",
			mutate: func(c *Config) { c.CPU.Energy.IdleFactor = 0.10 },
			want:   map[Stage]bool{StageParams: true, StagePrepared: true},
		},
		{
			name:   "memory latency spares trace/profile/slices",
			mutate: func(c *Config) { c.CPU.Hier.MemLatency = 300 },
			want: map[Stage]bool{StageCurves: true, StageBaseline: true,
				StageParams: true, StagePrepared: true},
		},
		{
			name:   "slicing window touches only slices",
			mutate: func(c *Config) { c.Slicer.Window = 1024 },
			want:   map[Stage]bool{StageSlices: true, StagePrepared: true},
		},
		{
			name:   "problem coverage cascades from problems",
			mutate: func(c *Config) { c.ProblemCoverage = 0.8 },
			want: map[Stage]bool{StageProblems: true, StageSlices: true,
				StageCurves: true, StageParams: true, StagePrepared: true},
		},
		{
			// Params chains on the baseline and curve artifacts, so every
			// mutation that reaches either also re-derives params — that is
			// the point: params must be recomputed whenever the values they
			// are derived from can change.
			name:   "L2 geometry cascades from profile",
			mutate: func(c *Config) { c.CPU.Hier.L2.SizeBytes = 512 << 10 },
			want: map[Stage]bool{StageProfile: true, StageProblems: true,
				StageSlices: true, StageCurves: true, StageBaseline: true,
				StageParams: true, StagePrepared: true},
		},
		{
			name:   "ROB size spares the functional stages",
			mutate: func(c *Config) { c.CPU.ROBSize = 256 },
			want: map[Stage]bool{StageCurves: true, StageBaseline: true,
				StageParams: true, StagePrepared: true},
		},
		{
			name:   "engine selection spares everything but the baseline chain",
			mutate: func(c *Config) { c.CPU.Engine = "scan" },
			want: map[Stage]bool{StageBaseline: true, StageParams: true,
				StagePrepared: true},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := base
			tc.mutate(&cfg)
			got := fpDiff(t, base, cfg)
			if !reflect.DeepEqual(got, tc.want) {
				t.Errorf("invalidated stages = %v, want %v", got, tc.want)
			}
		})
	}
	// And the trace stage never depends on configuration at all.
	for _, tc := range cases {
		cfg := base
		tc.mutate(&cfg)
		if fpDiff(t, base, cfg)[StageTrace] {
			t.Errorf("%s invalidated the trace stage", tc.name)
		}
	}
}

// TestStagedPrepareMatchesDirect: the Runner's store-backed staged
// preparation must be indistinguishable from the free (uncached) Prepare —
// same baseline Result bit for bit, same selection params — including under
// a mutated energy configuration, where the staged path recomputes the
// energy breakdown from cached event counts instead of re-simulating.
func TestStagedPrepareMatchesDirect(t *testing.T) {
	ctx := context.Background()
	for _, mutate := range []func(*Config){
		func(*Config) {},
		func(c *Config) { c.CPU.Energy.IdleFactor = 0.10 },
	} {
		cfg := DefaultConfig()
		mutate(&cfg)
		direct, err := Prepare(ctx, "gap", program.Train, cfg)
		if err != nil {
			t.Fatal(err)
		}
		r := NewRunner(cfg, 0, nil)
		staged, err := r.Prepare(ctx, "gap", program.Train, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(direct.Baseline, staged.Baseline) {
			t.Errorf("baseline diverged between direct and staged preparation")
		}
		if !reflect.DeepEqual(direct.Params, staged.Params) {
			t.Errorf("params diverged: direct %+v vs staged %+v", direct.Params, staged.Params)
		}
		if len(direct.Trees) != len(staged.Trees) || len(direct.Curves) != len(staged.Curves) {
			t.Errorf("artifact shapes diverged")
		}
	}
	// The energy-mutated runner above shares nothing with this one; within
	// one runner, though, the two configs must share the heavy stages.
	r := NewRunner(DefaultConfig(), 0, nil)
	for _, idle := range []float64{0.05, 0.10} {
		cfg := DefaultConfig()
		cfg.CPU.Energy.IdleFactor = idle
		if _, err := r.Prepare(ctx, "gap", program.Train, cfg); err != nil {
			t.Fatal(err)
		}
	}
	if n := r.StagePrepares(StageBaseline); n != 1 {
		t.Errorf("two energy configs ran %d baselines in one engine, want 1", n)
	}
}

// TestGridPointsMutationOrder: axis mutations apply in axis order, so when
// two axes touch the same field the later axis wins — matching how the
// point's labels read left to right.
func TestGridPointsMutationOrder(t *testing.T) {
	memAxis := func(name string, vals ...int) Axis {
		ax := Axis{Name: name}
		for _, v := range vals {
			v := v
			ax.Points = append(ax.Points, AxisPoint{
				Label:  fmt.Sprintf("%d", v),
				Mutate: func(c *Config) { c.CPU.Hier.MemLatency = v },
			})
		}
		return ax
	}
	g := Grid{Axes: []Axis{memAxis("first", 100, 200), memAxis("second", 300, 400)}}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	pts := g.points(DefaultConfig())
	if len(pts) != 4 {
		t.Fatalf("points = %d, want 4", len(pts))
	}
	for _, pt := range pts {
		// The second axis's label must describe the realized config.
		want := 300
		if pt.labels[1] == "400" {
			want = 400
		}
		if pt.cfg.CPU.Hier.MemLatency != want {
			t.Errorf("point %v realized MemLatency %d, want %d (later axis must win)",
				pt.labels, pt.cfg.CPU.Hier.MemLatency, want)
		}
	}
}

// TestGridValidate: a grid with an empty axis or a repeated axis name is
// rejected before anything expands; distinct non-empty axes pass.
func TestGridValidate(t *testing.T) {
	idle, mem := GridAxis(SweepIdleFactor), GridAxis(SweepMemLatency)
	for _, c := range []struct {
		name string
		axes []Axis
		want string // error substring; empty = valid
	}{
		{"no axes", nil, ""},
		{"distinct axes", []Axis{idle, mem}, ""},
		{"empty axis", []Axis{idle, {Name: "empty"}}, "has no points"},
		{"repeated axis", []Axis{idle, mem, idle}, "repeated sweep axis"},
	} {
		err := Grid{Axes: c.axes}.Validate()
		switch {
		case c.want == "" && err != nil:
			t.Errorf("%s: rejected: %v", c.name, err)
		case c.want != "" && (err == nil || !strings.Contains(err.Error(), c.want)):
			t.Errorf("%s: error %v, want one containing %q", c.name, err, c.want)
		}
	}
}

// TestValidateNames covers the shared benchmark-name validator.
func TestValidateNames(t *testing.T) {
	if err := validateNames([]string{"gap", "mcf"}); err != nil {
		t.Errorf("valid names rejected: %v", err)
	}
	if err := validateNames(nil); err == nil {
		t.Error("empty list accepted")
	}
	err := validateNames([]string{"gap", "gap", "nonesuch", "alsonot"})
	if err == nil {
		t.Fatal("bad list accepted")
	}
	for _, want := range []string{"nonesuch", "alsonot", "duplicated", "gap", "vpr.route"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error %q missing %q", err, want)
		}
	}
}
