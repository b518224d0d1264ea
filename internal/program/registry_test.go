package program

import (
	"fmt"
	"sort"
	"sync"
	"testing"

	"repro/internal/isa"
)

// testBenchmark returns a registerable minimal benchmark. The build ignores
// the input class, trivially preserving the Train/Ref structure identity the
// corpus-wide tests assert over All().
func testBenchmark(name, fp string) Benchmark {
	return Benchmark{
		Name: name,
		Build: func(InputClass) *isa.Program {
			b := isa.NewBuilder(name)
			b.MovI(1, 42)
			b.Halt()
			return b.MustBuild()
		},
		Description: "registry test stub",
		Fingerprint: fp,
	}
}

// TestRegisterDuplicate pins the panic-path fix: a name collision is an
// error, not a panic — except for the idempotent case of re-registering a
// definition with the identical non-empty fingerprint.
func TestRegisterDuplicate(t *testing.T) {
	if err := Register(testBenchmark("registry-test/dup", "fp-a")); err != nil {
		t.Fatal(err)
	}
	if err := Register(testBenchmark("registry-test/dup", "fp-a")); err != nil {
		t.Errorf("identical re-registration: %v, want no-op", err)
	}
	if err := Register(testBenchmark("registry-test/dup", "fp-b")); err == nil {
		t.Error("conflicting fingerprint accepted")
	}
	if err := Register(testBenchmark("registry-test/dup", "")); err == nil {
		t.Error("fingerprint-less duplicate accepted")
	}
	// Built-ins have no fingerprint: re-registering one must always error.
	if err := Register(testBenchmark("mcf", "")); err == nil {
		t.Error("built-in name takeover accepted")
	}
	if err := Register(Benchmark{Name: "registry-test/nobuild"}); err == nil {
		t.Error("benchmark without Build accepted")
	}
	if err := Register(testBenchmark("", "x")); err == nil {
		t.Error("empty name accepted")
	}
}

// TestRegisterConcurrent hammers Register against ByName, All and Names from
// parallel goroutines — the sweep-worker interleaving that was a data
// race while the registry was a bare map. Meaningful under -race.
func TestRegisterConcurrent(t *testing.T) {
	const writers, readers, rounds = 4, 4, 50
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				name := fmt.Sprintf("registry-test/conc-%d-%d", w, i)
				if err := Register(testBenchmark(name, "fp")); err != nil {
					t.Errorf("register %s: %v", name, err)
					return
				}
				// Idempotent re-registration from a racing worker.
				if err := Register(testBenchmark(name, "fp")); err != nil {
					t.Errorf("re-register %s: %v", name, err)
					return
				}
			}
		}()
	}
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				_ = Names()
				_ = All()
				if _, err := ByName("mcf"); err != nil {
					t.Errorf("ByName(mcf) during registration: %v", err)
					return
				}
			}
		}()
	}
	wg.Wait()
	for w := 0; w < writers; w++ {
		if _, err := ByName(fmt.Sprintf("registry-test/conc-%d-%d", w, rounds-1)); err != nil {
			t.Error(err)
		}
	}
}

// TestAllNameSorted pins All()'s documented order: sorted by name, with
// dynamically registered benchmarks interleaved — NOT the paper's order,
// which PaperNames carries explicitly.
func TestAllNameSorted(t *testing.T) {
	if err := Register(testBenchmark("aaa-registry-test/first", "fp")); err != nil {
		t.Fatal(err)
	}
	names := Names()
	if !sort.StringsAreSorted(names) {
		t.Errorf("Names() not sorted: %v", names)
	}
	if names[0] != "aaa-registry-test/first" {
		t.Errorf("dynamic registration missing from the front of %v", names)
	}
	// The paper order is pinned independently of the registry's contents.
	want := []string{"bzip2", "gap", "gcc", "mcf", "parser", "twolf", "vortex", "vpr.place", "vpr.route"}
	got := PaperNames()
	if len(got) != len(want) {
		t.Fatalf("PaperNames() = %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("PaperNames()[%d] = %q, want %q", i, got[i], want[i])
		}
	}
	for _, n := range got {
		if _, err := ByName(n); err != nil {
			t.Errorf("paper benchmark %s unregistered: %v", n, err)
		}
	}
}
