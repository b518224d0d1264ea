package main

import (
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	preexec "repro"
)

func writeStream(t *testing.T, lines ...string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "stream.ndjson")
	if err := os.WriteFile(path, []byte(strings.Join(lines, "\n")+"\n"), 0o666); err != nil {
		t.Fatal(err)
	}
	return path
}

const sweepArtifactLine = `{"artifact":"sweep","report":{"Axes":["idle-energy-factor"],"Targets":["L"],"Points":[]}}`

func TestRenderStreamSkipsEventLines(t *testing.T) {
	path := writeStream(t,
		`{"kind":"stage-start","bench":"gap","stage":"trace"}`,
		`{"kind":"some-future-event-kind","whatever":1}`,
		`{"kind":"point-done","bench":"gap","done":3,"total":3}`,
		sweepArtifactLine,
		`{"kind":"job-done"}`,
	)
	if err := renderStream(path); err != nil {
		t.Fatalf("renderStream: %v", err)
	}
}

func TestRenderStreamPureArtifacts(t *testing.T) {
	if err := renderStream(writeStream(t, sweepArtifactLine)); err != nil {
		t.Fatalf("renderStream: %v", err)
	}
}

func TestRenderStreamErrors(t *testing.T) {
	cases := map[string][]string{
		"events only, no artifact": {
			`{"kind":"stage-start"}`,
			`{"kind":"job-done"}`,
		},
		"neither kind nor artifact": {`{"bench":"gap"}`},
		"unknown artifact":          {`{"artifact":"nonesuch","report":{}}`},
		"malformed json":            {`{"artifact":`},
	}
	for name, lines := range cases {
		if err := renderStream(writeStream(t, lines...)); err == nil {
			t.Errorf("%s: renderStream succeeded, want error", name)
		}
	}
}

// TestArtifactsRoundTrip pins emit's text path: every artifact main emits
// resolves in decoderFor, and its report renders identically after the
// JSON round trip. The reports cover gap alone to keep the test quick.
func TestArtifactsRoundTrip(t *testing.T) {
	for _, a := range artifacts(context.Background(), preexec.New(), []string{"gap"}) {
		decode := decoderFor(a.name)
		if decode == nil {
			t.Errorf("%s: no decoder", a.name)
			continue
		}
		rep, err := a.run()
		if err != nil {
			t.Fatalf("%s: %v", a.name, err)
		}
		raw, err := json.Marshal(rep)
		if err != nil {
			t.Fatal(err)
		}
		decoded, err := decode(raw)
		if err != nil {
			t.Fatalf("%s: decode: %v", a.name, err)
		}
		if got, want := decoded.Render(), rep.Render(); got != want {
			t.Errorf("%s: rendering changed across the JSON round trip\ngot:\n%s\nwant:\n%s", a.name, got, want)
		}
	}
}
