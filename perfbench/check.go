package main

import (
	"bytes"
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"strconv"
)

// expect.json holds the committed outputs: per workload, the report digest
// and exact counts every repetition must reproduce. Keys are either plain
// ("digest") and hold for every seed and repetition, or scoped to one seed
// and repetition ("seed1.rep0.digest") where the inputs depend on both.
//
//go:embed expect.json
var expectJSON []byte

var expected = func() map[string]map[string]string {
	var m map[string]map[string]string
	if err := json.Unmarshal(expectJSON, &m); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: expect.json:", err)
		os.Exit(1)
	}
	return m
}()

// check is one output comparison.
type check struct {
	Name string `json:"name"`
	Got  string `json:"got"`
	Want string `json:"want"`
	// Source says what Want came from: "committed" (expect.json) or
	// "rep0" (this run's first repetition, when nothing is committed).
	Source string `json:"source"`
}

func (c check) ok() bool { return c.Got == c.Want }

func failedChecks(cs []check) int {
	n := 0
	for _, c := range cs {
		if !c.ok() {
			n++
		}
	}
	return n
}

// verifier compares one run's outputs against the committed values, or,
// where none are committed, against the run's first repetition.
type verifier struct {
	workload string
	seed     uint64
	first    map[string]string
}

func newVerifier(workload string, seed uint64) *verifier {
	return &verifier{workload: workload, seed: seed, first: map[string]string{}}
}

func (v *verifier) check(rep int, name string, got any) check {
	g := fmt.Sprint(got)
	exp := expected[v.workload]
	if want, ok := exp[fmt.Sprintf("seed%d.rep%d.%s", v.seed, rep, name)]; ok {
		return check{name, g, want, "committed"}
	}
	if want, ok := exp[name]; ok {
		return check{name, g, want, "committed"}
	}
	if want, ok := v.first[name]; ok {
		return check{name, g, want, "rep0"}
	}
	v.first[name] = g
	return check{name, g, g, "rep0"}
}

// committed compares a value against expect.json only, for outputs whose
// inputs change with every repetition; ok is false when nothing is
// committed for this seed and repetition.
func (v *verifier) committed(rep int, name string, got any) (check, bool) {
	want, ok := expected[v.workload][fmt.Sprintf("seed%d.rep%d.%s", v.seed, rep, name)]
	return check{name, fmt.Sprint(got), want, "committed"}, ok
}

// countChecks compares a repetition's exact store counts. Cold builds and
// disk loads are exact; in-memory hits and shared in-flight waits are
// compared as one sum, because which of the two a request becomes depends
// on timing whenever two workers want one artifact.
func (v *verifier) countChecks(rep int, c storeCounts) []check {
	return []check{
		v.check(rep, "stage_cold", c.Cold),
		v.check(rep, "stage_spill", c.Spill),
		v.check(rep, "stage_hit_or_shared", c.Hit+c.Shared),
	}
}

func checkSummary(reps []*repOut) map[string]any {
	var bad []check
	n := 0
	for _, r := range reps {
		n += len(r.checks)
		for _, c := range r.checks {
			if !c.ok() {
				bad = append(bad, c)
			}
		}
	}
	out := map[string]any{"run": n, "failed": len(bad), "last": reps[len(reps)-1].checks}
	if len(bad) > 0 {
		out["mismatches"] = bad
	}
	return out
}

// canonical re-encodes a report as JSON with every SimCyclesPerSec field
// removed — that field is measured simulator throughput and varies from
// run to run by design — and returns it with the simulated cycles of the
// report's measured runs (every object carrying Target, PThreads and
// Cycles is a RunReport).
func canonical(rep any) ([]byte, int64, error) {
	raw, err := json.Marshal(rep)
	if err != nil {
		return nil, 0, err
	}
	return canonicalJSON(raw)
}

func canonicalJSON(raw []byte) ([]byte, int64, error) {
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.UseNumber()
	var v any
	if err := dec.Decode(&v); err != nil {
		return nil, 0, err
	}
	var cycles int64
	var walk func(any) error
	walk = func(x any) error {
		switch t := x.(type) {
		case map[string]any:
			delete(t, "SimCyclesPerSec")
			if c, ok := t["Cycles"].(json.Number); ok && t["Target"] != nil && t["PThreads"] != nil {
				n, err := strconv.ParseInt(c.String(), 10, 64)
				if err != nil {
					return err
				}
				cycles += n
			}
			for _, e := range t {
				if err := walk(e); err != nil {
					return err
				}
			}
		case []any:
			for _, e := range t {
				if err := walk(e); err != nil {
					return err
				}
			}
		}
		return nil
	}
	if err := walk(v); err != nil {
		return nil, 0, err
	}
	out, err := json.Marshal(v)
	return out, cycles, err
}

func digest(parts ...[]byte) string {
	h := sha256.New()
	for _, p := range parts {
		h.Write(p)
		h.Write([]byte{0})
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}
