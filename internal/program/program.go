// Package program provides the nine synthetic benchmark workloads standing
// in for the SPEC2000 integer benchmarks the paper evaluates (bzip2, gap,
// gcc, mcf, parser, twolf, vortex, vpr.place, vpr.route — the subset that
// suffers from L2 misses).
//
// Each workload is written in the micro-ISA and engineered to reproduce the
// memory-behaviour class of its namesake: a small number of static "problem"
// loads generating most L2 misses, with backward slices that the selection
// framework can isolate and hoist. Data structures (permutations, linked
// lists, hash tables, grids) are prepared in Go as the program's initialized
// data segment, standing in for a loader; all hot-loop computation happens
// in ISA code so real slices exist and p-threads execute real work.
//
// Workloads are parameterized by an InputClass: Train is the default
// measurement input; Ref is a different input (different seed, size and
// branch mix) used for the paper's realistic-profiling experiment (§5.3).
package program

import (
	"fmt"
	"sort"
	"sync"

	"repro/internal/isa"
)

// InputClass selects a workload input set.
type InputClass int

// Input classes. Train is the input the paper measures on; Ref is the
// alternate input used for realistic profiling.
const (
	Train InputClass = iota
	Ref
)

// String returns "train" or "ref".
func (c InputClass) String() string {
	if c == Ref {
		return "ref"
	}
	return "train"
}

// Benchmark is a named synthetic workload generator.
type Benchmark struct {
	Name string
	// Build constructs the program for the given input class. Builds are
	// deterministic: the same class always yields the same program.
	Build func(InputClass) *isa.Program
	// Description summarizes which SPEC2000 behaviour the workload mimics.
	Description string
	// Fingerprint is an optional content fingerprint of the workload's
	// definition. The built-in corpus leaves it empty (the name alone
	// identifies a fixed program); dynamically registered workloads — the
	// seeded generator — set it so artifact caches key on the workload's
	// content, not just its name, and so re-registering the identical
	// definition is an idempotent no-op.
	Fingerprint string
}

// registry holds every registered benchmark. Registration is public and
// dynamic (generated workloads arrive mid-run, possibly while parallel
// sweep workers resolve others), so every access goes through regMu.
var (
	regMu    sync.RWMutex
	registry = map[string]Benchmark{}
)

// register adds one built-in benchmark at init time, panicking on the
// programming error of two init funcs claiming one name.
func register(b Benchmark) {
	if err := Register(b); err != nil {
		//lab:allow(panicpath: init-time registration; a duplicate benchmark name is a programming error that must fail the build of the binary, not a run)
		panic(err)
	}
}

// Register adds a benchmark to the registry. It is safe for concurrent use
// with ByName, All and Names (a sweep can register generated workloads
// while workers resolve others). A name collision returns an error rather
// than panicking, with one exception: re-registering a benchmark whose
// non-empty Fingerprint matches the already-registered one is a no-op —
// that is what makes seeded-generator registration idempotent across labs
// and sweep runs.
func Register(b Benchmark) error {
	if b.Name == "" {
		return fmt.Errorf("program: benchmark with empty name")
	}
	if b.Build == nil {
		return fmt.Errorf("program: benchmark %q has no Build function", b.Name)
	}
	regMu.Lock()
	defer regMu.Unlock()
	if existing, dup := registry[b.Name]; dup {
		if b.Fingerprint != "" && existing.Fingerprint == b.Fingerprint {
			return nil
		}
		return fmt.Errorf("program: duplicate benchmark %q", b.Name)
	}
	registry[b.Name] = b
	return nil
}

// All returns every registered benchmark sorted by name. (Note: name order,
// not the paper's presentation order — the two coincided only while the
// registry held exactly the nine built-ins; PaperNames is the authoritative
// paper order.)
func All() []Benchmark {
	regMu.RLock()
	defer regMu.RUnlock()
	names := make([]string, 0, len(registry))
	for n := range registry {
		names = append(names, n)
	}
	sort.Strings(names)
	out := make([]Benchmark, 0, len(names))
	for _, n := range names {
		out = append(out, registry[n])
	}
	return out
}

// Names returns the registered benchmark names sorted by name.
func Names() []string {
	all := All()
	names := make([]string, len(all))
	for i, b := range all {
		names[i] = b.Name
	}
	return names
}

// paperOrder is the paper's benchmark presentation order (Table 2), pinned
// explicitly: it must not drift as generated workloads register.
var paperOrder = []string{
	"bzip2", "gap", "gcc", "mcf", "parser", "twolf", "vortex",
	"vpr.place", "vpr.route",
}

// PaperNames returns the paper's nine benchmarks in the paper's order,
// independent of whatever else has been registered.
func PaperNames() []string {
	out := make([]string, len(paperOrder))
	copy(out, paperOrder)
	return out
}

// ByName looks up one benchmark.
func ByName(name string) (Benchmark, error) {
	regMu.RLock()
	b, ok := registry[name]
	regMu.RUnlock()
	if !ok {
		return Benchmark{}, fmt.Errorf("program: unknown benchmark %q (have %v)", name, Names())
	}
	return b, nil
}

// LCG is a deterministic 64-bit linear congruential generator used by the
// workload initializers, built-in and generated alike (a tiny stand-in for
// the inputs' entropy; the module avoids math/rand so the generated images
// are stable across Go releases).
type LCG struct{ s uint64 }

// NewLCG seeds a generator; equal seeds yield identical streams forever.
func NewLCG(seed uint64) *LCG { return &LCG{s: seed*2862933555777941757 + 3037000493} }

// Next returns the next raw value of the stream.
func (l *LCG) Next() uint64 {
	l.s = l.s*6364136223846793005 + 1442695040888963407
	return l.s >> 16
}

// Intn returns a value in [0, n).
func (l *LCG) Intn(n int) int { return int(l.Next() % uint64(n)) }

// Perm returns a random permutation of [0, n).
func (l *LCG) Perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	for i := n - 1; i > 0; i-- {
		j := l.Intn(i + 1)
		p[i], p[j] = p[j], p[i]
	}
	return p
}

// CyclePerm returns a permutation of [0,n) forming a single cycle, used for
// pointer-chase lists that must not close early.
func (l *LCG) CyclePerm(n int) []int {
	order := l.Perm(n)
	next := make([]int, n)
	for i := 0; i < n; i++ {
		next[order[i]] = order[(i+1)%n]
	}
	return next
}
