package main

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"sync"
	"time"

	preexec "repro"
	"repro/internal/labapi"
)

// span is one timed interval at a layer boundary. Parent is the span that
// caused it (0: none). A span with an empty layer is a root or an API call:
// its self time is the residual no layer accounts for.
type span struct {
	ID, Parent int
	Name       string
	Layer      string
	Start, End time.Duration // since the tracer's epoch
}

// tracer keeps spans in memory until the run ends. A nil *tracer is
// tracing off: every method is a no-op.
type tracer struct {
	mu    sync.Mutex
	epoch time.Time
	spans []span
	// open holds, per event key, the spans begun by a start event and not
	// yet closed by the matching done event, oldest first.
	open map[string][]int
	// parents maps an event tag to the span its events belong under; the
	// empty tag maps to the current API call.
	parents map[string]int
	// instants counts events that carry no duration (cache hits, disk
	// loads, progress).
	instants map[string]int
}

func newTracer() *tracer {
	return &tracer{epoch: time.Now(), open: map[string][]int{}, parents: map[string]int{}, instants: map[string]int{}}
}

func (t *tracer) begin(name, layer string, parent int) int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.beginAt(name, layer, parent, time.Now())
}

func (t *tracer) beginAt(name, layer string, parent int, at time.Time) int {
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Name: name, Layer: layer,
		Start: at.Sub(t.epoch), End: -1})
	return len(t.spans)
}

func (t *tracer) end(id int) {
	if t == nil || id == 0 {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[id-1].End = time.Since(t.epoch)
}

// add records a span whose bounds were measured by the caller.
func (t *tracer) add(name, layer string, parent int, start, end time.Time) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	id := t.beginAt(name, layer, parent, start)
	t.spans[id-1].End = end.Sub(t.epoch)
}

// setParent routes events carrying tag ("" for untagged events) under
// span id.
func (t *tracer) setParent(tag string, id int) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.parents[tag] = id
}

// stageLayer names the module that does a pipeline stage's work.
func stageLayer(stage string) string {
	switch stage {
	case "trace":
		return "trace"
	case "profile", "problems":
		return "profile"
	case "slices":
		return "slicer"
	case "curves":
		return "critpath"
	case "baseline":
		return "cpu.baseline"
	case "params":
		return "pthsel"
	}
	return "experiments"
}

// event turns one engine event into span bounds: start/done pairs open and
// close spans, everything else is counted. Prepare spans parent the
// stage spans of their benchmark; the rest hang under the tag's parent.
func (t *tracer) event(kind, tag, bench, input, stage, target string, durNS int64, at time.Time) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	prepKey := "prepare|" + tag + "|" + bench + "|" + input
	parent := t.parents[tag]
	if open := t.open[prepKey]; len(open) > 0 {
		parent = open[0]
	}
	switch preexec.EventKind(kind) {
	case preexec.EventPrepareStart:
		t.push(prepKey, t.beginAt("prepare "+bench, "experiments", t.parents[tag], at))
	case preexec.EventPrepareDone:
		t.pop(prepKey, at, durNS)
	case preexec.EventStageStart:
		key := "stage|" + tag + "|" + bench + "|" + input + "|" + stage
		t.push(key, t.beginAt(stage+" "+bench, stageLayer(stage), parent, at))
	case preexec.EventStageDone:
		t.pop("stage|"+tag+"|"+bench+"|"+input+"|"+stage, at, durNS)
	case preexec.EventRunStart:
		t.push("run|"+tag+"|"+bench+"|"+target, t.beginAt("run "+bench+" "+target, "cpu.target", t.parents[tag], at))
	case preexec.EventRunDone:
		t.pop("run|"+tag+"|"+bench+"|"+target, at, 0)
	default:
		t.instants[kind]++
	}
}

func (t *tracer) push(key string, id int) { t.open[key] = append(t.open[key], id) }

// pop closes the oldest open span under key at time at. A known build
// duration places the start exactly; otherwise the start event's arrival
// time stands.
func (t *tracer) pop(key string, at time.Time, durNS int64) {
	open := t.open[key]
	if len(open) == 0 {
		return
	}
	s := &t.spans[open[0]-1]
	s.End = at.Sub(t.epoch)
	if durNS > 0 && s.End-time.Duration(durNS) >= s.Start {
		s.Start = s.End - time.Duration(durNS)
	}
	if len(open) == 1 {
		delete(t.open, key)
	} else {
		t.open[key] = open[1:]
	}
}

// observe is a Lab observer recording engine events as spans.
func (t *tracer) observe(ev preexec.Event) {
	t.event(string(ev.Kind), ev.Tag, ev.Bench, ev.Input, ev.Stage, ev.Target, ev.DurationNS, time.Now())
}

// streamLine records one line of a daemon job's event stream, received at
// time at; the job's ID is the line's tag.
func (t *tracer) streamLine(job string, l labapi.StreamLine, at time.Time) {
	if l.Kind == "" {
		return
	}
	t.event(l.Kind, job, l.Bench, l.Input, l.Stage, l.Target, l.DurationNS, at)
}

// ----------------------------------------------------------- analysis --

// layerTime is one layer's share of a traced repetition.
type layerTime struct {
	Spans int
	Self  time.Duration
}

// selfTimes sums, per layer, each span's duration minus the part of it
// its child spans cover.
func (t *tracer) selfTimes() map[string]layerTime {
	kids := map[int][]span{}
	for _, s := range t.spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	out := map[string]layerTime{}
	for _, s := range t.spans {
		if s.Layer == "" || s.End < s.Start {
			continue
		}
		lt := out[s.Layer]
		lt.Spans++
		lt.Self += s.End - s.Start - covered(s, kids[s.ID])
		out[s.Layer] = lt
	}
	return out
}

// covered is the length of the union of the children's intervals clipped
// to the parent's.
func covered(p span, kids []span) time.Duration {
	type iv struct{ a, b time.Duration }
	var ivs []iv
	for _, k := range kids {
		a, b := max(k.Start, p.Start), min(k.End, p.End)
		if b > a {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	var total, curA, curB time.Duration
	started := false
	for _, x := range ivs {
		if !started || x.a > curB {
			if started {
				total += curB - curA
			}
			curA, curB, started = x.a, x.b, true
		} else if x.b > curB {
			curB = x.b
		}
	}
	if started {
		total += curB - curA
	}
	return total
}

// attribution is a traced workload's per-layer table.
type attribution struct {
	layers       map[string]layerTime // summed over traced repetitions
	reps         int
	workerS      float64 // per repetition: wall_s × workers
	unattributed float64 // per repetition
	tracedWall   float64
	untracedWall float64
	instants     map[string]int // summed over traced repetitions
}

func (a *attribution) print(workload string, workers int) {
	names := make([]string, 0, len(a.layers))
	for n := range a.layers {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Printf("%s: per-layer self time per traced repetition (worker-seconds = wall_s %.3f × %d workers = %.3f s)\n",
		workload, a.tracedWall, workers, a.workerS)
	fmt.Printf("  %-14s %8s %10s %8s\n", "layer", "spans", "self_s", "share")
	for _, n := range names {
		lt := a.layers[n]
		self := lt.Self.Seconds() / float64(a.reps)
		fmt.Printf("  %-14s %8d %10.4f %7.2f%%\n", n, lt.Spans/a.reps, self, 100*self/a.workerS)
	}
	fmt.Printf("  %-14s %8s %10.4f %7.2f%%\n", "unattributed", "", a.unattributed, 100*a.unattributed/a.workerS)
	if a.unattributed < 0 {
		fmt.Println("  (negative: more spans were open at once than there are workers, so self times include waits for a CPU)")
	}
	kinds := make([]string, 0, len(a.instants))
	for k := range a.instants {
		kinds = append(kinds, k)
	}
	sort.Strings(kinds)
	fmt.Print("  events without a span, per traced repetition:")
	for _, k := range kinds {
		fmt.Printf(" %s %d", k, a.instants[k]/a.reps)
	}
	fmt.Println()
	fmt.Printf("  tracing overhead: traced wall_s %.4f - untraced wall_s %.4f = %.4f s (%.2f%%)\n",
		a.tracedWall, a.untracedWall, a.tracedWall-a.untracedWall, 100*(a.tracedWall-a.untracedWall)/a.untracedWall)
}

// writeChrome writes the tracers' spans as Chrome trace-event JSON, one
// process per tracer, with each span's parent in its args. Spans are laid
// on lanes (threads) so that every lane nests properly.
func writeChrome(path string, procs map[string]*tracer) error {
	type ev struct {
		Name string         `json:"name"`
		Cat  string         `json:"cat,omitempty"`
		Ph   string         `json:"ph"`
		Ts   float64        `json:"ts"`
		Dur  float64        `json:"dur,omitempty"`
		Pid  int            `json:"pid"`
		Tid  int            `json:"tid"`
		Args map[string]any `json:"args,omitempty"`
	}
	var events []ev
	names := make([]string, 0, len(procs))
	for n := range procs {
		names = append(names, n)
	}
	sort.Strings(names)
	for pid, pname := range names {
		t := procs[pname]
		events = append(events, ev{Name: "process_name", Ph: "M", Pid: pid + 1, Args: map[string]any{"name": pname}})
		spans := append([]span(nil), t.spans...)
		sort.SliceStable(spans, func(i, j int) bool {
			if spans[i].Start != spans[j].Start {
				return spans[i].Start < spans[j].Start
			}
			return spans[i].End > spans[j].End
		})
		var lanes [][]span // per lane, the stack of open spans
		for _, s := range spans {
			if s.End < s.Start {
				continue
			}
			lane := -1
			for i := range lanes {
				st := lanes[i]
				for len(st) > 0 && st[len(st)-1].End <= s.Start {
					st = st[:len(st)-1]
				}
				lanes[i] = st
				if lane < 0 && (len(st) == 0 || st[len(st)-1].End >= s.End) {
					lane = i
				}
			}
			if lane < 0 {
				lanes = append(lanes, nil)
				lane = len(lanes) - 1
			}
			lanes[lane] = append(lanes[lane], s)
			layer := s.Layer
			if layer == "" {
				layer = "call"
			}
			events = append(events, ev{Name: s.Name, Cat: layer, Ph: "X",
				Ts: float64(s.Start.Nanoseconds()) / 1e3, Dur: float64((s.End - s.Start).Nanoseconds()) / 1e3,
				Pid: pid + 1, Tid: lane + 1, Args: map[string]any{"id": s.ID, "parent": s.Parent}})
		}
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	if err := enc.Encode(map[string]any{"traceEvents": events}); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
