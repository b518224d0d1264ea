// Command report regenerates the paper's evaluation artifacts: Figure 2,
// Figure 3, Table 3, Figure 4, Figure 5 (all three axes) and the ED² study.
//
// Every artifact is computed once as a structured report, serialized to
// JSON, and — in the default text mode — decoded back from that JSON before
// rendering, so the printed tables provably contain nothing the JSON
// doesn't. One Lab engine serves all figures: each benchmark is prepared
// exactly once no matter how many artifacts are requested. The artifacts
// run inside one Lab.Suite, so a timing run that several of them measure
// (same trace, timing configuration and p-thread list) simulates once; a
// target that selects no p-threads takes the baseline without simulating.
// A shared run reports no simulator throughput; every other field is what
// the artifact's standalone call reports.
//
// Usage:
//
//	report                 # everything, rendered (several minutes)
//	report -fig 3          # one figure
//	report -table 3        # the validation table
//	report -json           # machine-readable JSON stream, one object per artifact
//	report -render f.json  # render a saved artifact stream ("-" = stdin)
//	report -v              # engine progress on stderr
//
// The -render mode closes the round trip: any artifact stream this command
// (or cmd/sweep -json) emitted renders back to the exact tables a live run
// would print, without recomputing anything:
//
//	sweep -axis idle,mem -json | report -render -
//
// Daemon event streams work too: lines carrying a "kind" (progress events,
// including kinds this build doesn't know) are skipped, and the embedded
// artifact line renders as usual:
//
//	curl -sN localhost:8080/v1/jobs/j1/events | report -render -
package main

import (
	"bufio"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"strings"

	preexec "repro"
)

func main() {
	fig := flag.Int("fig", 0, "regenerate one figure (2, 3, 4 or 5); 0 = all")
	table := flag.Int("table", 0, "regenerate one table (3); 0 = all")
	asJSON := flag.Bool("json", false, "emit JSON artifacts instead of rendered tables")
	renderPath := flag.String("render", "", "render a saved JSON artifact stream instead of recomputing (\"-\" = stdin)")
	verbose := flag.Bool("v", false, "log engine progress events to stderr")
	flag.Parse()

	if *renderPath != "" {
		if err := renderStream(*renderPath, os.Stdout); err != nil {
			fmt.Fprintln(os.Stderr, "report:", err)
			os.Exit(1)
		}
		return
	}

	opts := []preexec.Option{}
	if *verbose {
		opts = append(opts, preexec.WithObserver(func(ev preexec.Event) {
			fmt.Fprintf(os.Stderr, "report: %-15s %-10s %-6s %s\n", ev.Kind, ev.Bench, ev.Input, ev.Target)
		}))
	}
	lab := preexec.New(opts...)

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	all := *fig == 0 && *table == 0
	err := lab.Suite(ctx, func(ctx context.Context) error {
		for _, a := range artifacts(ctx, lab, nil) {
			if all || (a.fig != 0 && a.fig == *fig) || (a.table != 0 && a.table == *table) {
				rep, err := a.run()
				if err != nil {
					return err
				}
				emit(a.name, rep, *asJSON)
			}
		}
		return nil
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "report:", err)
		os.Exit(1)
	}
}

// artifact is one report this command emits: its stream name, the -fig or
// -table value that selects it (both 0: emitted only in a full run) and its
// computation.
type artifact struct {
	name       string
	fig, table int
	run        func() (preexec.Report, error)
}

// artifacts lists every report in emission order, each over its paper
// benchmark set, or over only when only is non-nil.
func artifacts(ctx context.Context, lab *preexec.Lab, only []string) []artifact {
	bench := func(defaults []string) []string {
		if only != nil {
			return only
		}
		return defaults
	}
	names := bench(preexec.PaperBenchmarks())
	arts := []artifact{
		{"figure2", 2, 0, func() (preexec.Report, error) { return lab.Figure2(ctx, names) }},
		{"figure3", 3, 0, func() (preexec.Report, error) { return lab.Figure3(ctx, names) }},
		{"table3", 0, 3, func() (preexec.Report, error) { return lab.Table3(ctx, bench(preexec.Table3Benchmarks())) }},
		{"figure4", 4, 0, func() (preexec.Report, error) { return lab.Figure4(ctx, names) }},
	}
	for _, axis := range []preexec.SweepAxis{preexec.SweepIdleFactor, preexec.SweepMemLatency, preexec.SweepL2Size} {
		arts = append(arts, artifact{"figure5/" + axis.String(), 5, 0, func() (preexec.Report, error) {
			return lab.Figure5(ctx, axis, bench(preexec.Figure5Benchmarks(axis)))
		}})
	}
	return append(arts, artifact{"ed2", 0, 0, func() (preexec.Report, error) { return lab.ED2Study(ctx, names) }})
}

// decoderFor maps an artifact name from the stream to its report type.
func decoderFor(name string) func([]byte) (preexec.Report, error) {
	decode := func(r preexec.Report) func([]byte) (preexec.Report, error) {
		return func(raw []byte) (preexec.Report, error) { return r, json.Unmarshal(raw, r) }
	}
	switch {
	case name == "figure2":
		return decode(&preexec.Figure2Report{})
	case name == "figure3":
		return decode(&preexec.Figure3Report{})
	case name == "table3":
		return decode(&preexec.Table3Report{})
	case name == "figure4":
		return decode(&preexec.Figure4Report{})
	case strings.HasPrefix(name, "figure5"):
		return decode(&preexec.Figure5Report{})
	case name == "ed2":
		return decode(&preexec.ED2Report{})
	case name == "sweep":
		return decode(&preexec.SweepReport{})
	}
	return nil
}

// renderStream decodes a JSON artifact stream (one {"artifact","report"}
// object per line, as emitted by -json or by cmd/sweep -json) and renders
// each artifact to out. Progress-event lines — objects carrying a "kind" and no
// "artifact", as in a daemon job's NDJSON event stream — are skipped
// without inspection of the kind, so streams from newer daemons with event
// kinds this build has never heard of still render.
func renderStream(path string, out io.Writer) error {
	var in io.Reader = os.Stdin
	if path != "-" {
		f, err := os.Open(path)
		if err != nil {
			return err
		}
		defer f.Close()
		in = f
	}
	sc := bufio.NewScanner(in)
	sc.Buffer(make([]byte, 1<<20), 64<<20) // reports can be large
	n := 0
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		var env struct {
			Artifact string          `json:"artifact"`
			Report   json.RawMessage `json:"report"`
			Kind     string          `json:"kind"`
		}
		if err := json.Unmarshal([]byte(line), &env); err != nil {
			return fmt.Errorf("artifact stream line %d: %w", n+1, err)
		}
		if env.Artifact == "" && env.Kind != "" {
			continue // progress event from a job stream; any kind, even unknown
		}
		decode := decoderFor(env.Artifact)
		if decode == nil {
			return fmt.Errorf("artifact stream line %d: unknown artifact %q", n+1, env.Artifact)
		}
		rep, err := decode(env.Report)
		if err != nil {
			return fmt.Errorf("artifact %q: %w", env.Artifact, err)
		}
		fmt.Fprintln(out, rep.Render())
		n++
	}
	if err := sc.Err(); err != nil {
		return err
	}
	if n == 0 {
		return fmt.Errorf("no artifacts in %s", path)
	}
	return nil
}

// emit serializes one artifact to JSON. In JSON mode the artifact streams
// out as {"artifact": name, "report": ...}; in text mode the JSON is
// decoded back into a fresh report of name's type (decoderFor) and
// rendered from the decoded copy.
func emit(name string, rep preexec.Report, asJSON bool) {
	raw, err := json.Marshal(rep)
	if err != nil {
		fmt.Fprintln(os.Stderr, "report: marshal:", err)
		os.Exit(1)
	}
	if asJSON {
		out, err := json.Marshal(struct {
			Artifact string          `json:"artifact"`
			Report   json.RawMessage `json:"report"`
		}{name, raw})
		if err != nil {
			fmt.Fprintln(os.Stderr, "report: marshal:", err)
			os.Exit(1)
		}
		fmt.Println(string(out))
		return
	}
	decoded, err := decoderFor(name)(raw)
	if err != nil {
		fmt.Fprintln(os.Stderr, "report: decode:", err)
		os.Exit(1)
	}
	fmt.Println(decoded.Render())
}
