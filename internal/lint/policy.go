package lint

import "strings"

// Policy locates the repo's invariants in package space: which packages are
// rendering surfaces, which are simulation kernels, which hold persistence
// paths. labvet runs DefaultPolicy; tests aim the analyzers at fixture
// packages with a custom one.
type Policy struct {
	// RenderPackages produce Result/report JSON, fingerprints, or event
	// streams: every function declared in one is a determinism root, and
	// any map iteration reachable from a root must be order-insensitive.
	RenderPackages []string

	// RootMethodNames and RootNamePrefixes mark determinism roots by name
	// anywhere in the module (methods the encoding layer calls implicitly,
	// like MarshalJSON, and the byte-stable encoders).
	RootMethodNames  []string
	RootNamePrefixes []string

	// WalltimePackages are the simulation kernels: results must be pure
	// functions of (config, trace), so time.Now and math/rand are banned.
	WalltimePackages []string

	// PanicPackagePrefixes scope the panic-hygiene analyzer; functions
	// named Must* are the documented exception.
	PanicPackagePrefixes []string

	// PersistPackages hold durable artifact state: Close/Sync/Rename
	// errors there must not be silently discarded.
	PersistPackages []string
}

// DefaultPolicy is the repo's invariant map.
func DefaultPolicy() Policy {
	return Policy{
		RenderPackages: []string{
			"repro",
			"repro/internal/labd",
			"repro/internal/labapi",
			"repro/cmd/labd",
			"repro/cmd/report",
			"repro/cmd/sweep",
		},
		RootMethodNames:  []string{"Render", "Fingerprint", "MarshalJSON"},
		RootNamePrefixes: []string{"Encode"},
		WalltimePackages: []string{
			"repro/internal/cpu",
			"repro/internal/trace",
			"repro/internal/isa",
			"repro/internal/bpred",
			"repro/internal/cache",
		},
		PanicPackagePrefixes: []string{"repro/internal/"},
		PersistPackages:      []string{"repro/internal/artifactdisk"},
	}
}

func (p Policy) isRenderPackage(path string) bool   { return contains(p.RenderPackages, path) }
func (p Policy) isWalltimePackage(path string) bool { return contains(p.WalltimePackages, path) }
func (p Policy) isPersistPackage(path string) bool  { return contains(p.PersistPackages, path) }

func (p Policy) isPanicPackage(path string) bool {
	for _, pre := range p.PanicPackagePrefixes {
		if strings.HasPrefix(path, pre) {
			return true
		}
	}
	return false
}

// isRootName reports whether a function name marks a determinism root on
// its own (independent of package).
func (p Policy) isRootName(name string) bool {
	if contains(p.RootMethodNames, name) {
		return true
	}
	for _, pre := range p.RootNamePrefixes {
		if strings.HasPrefix(name, pre) {
			return true
		}
	}
	return false
}

func contains(xs []string, x string) bool {
	for _, v := range xs {
		if v == x {
			return true
		}
	}
	return false
}
