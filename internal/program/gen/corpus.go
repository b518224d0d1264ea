package gen

// CorpusSpecs returns the seeded differential corpus: every family under a
// matrix of knob settings, ≥20 specs in total, kept small enough that a
// simulation engine covers the whole corpus in seconds. It is the shared
// pinning set for engine differentials — event vs. the reference scan
// (TestGenCorpusEnginesAgree) and every trace representation
// (TestTraceVariantEnginesIdentical) — so every engine variant is held to
// the same corpus.
func CorpusSpecs() []Spec {
	var specs []Spec
	for fi, f := range Families() {
		seed := uint64(100 + fi)
		specs = append(specs,
			Spec{Family: f, Seed: seed, WorkingSet: 1 << 13, Depth: 300},
			Spec{Family: f, Seed: seed + 1, WorkingSet: 1 << 15, Depth: 200, ProblemLoads: 2, BranchMix: 60},
			Spec{Family: f, Seed: seed + 2, WorkingSet: 1 << 14, Depth: 250, ProblemLoads: 4, BranchMix: 10, ILP: 6},
			Spec{Family: f, Seed: seed + 3, WorkingSet: 1 << 12, Depth: 400, BranchMix: 85, ILP: 1},
		)
	}
	return specs
}
