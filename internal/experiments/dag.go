package experiments

// DAG export: the scheduled stage DAG as a structured report plus a
// Graphviz DOT rendering, served by `report -dag` and the daemon's
// GET /v1/jobs/{id}/dag. The export is a plan — it annotates each node with
// its projected cost, remaining critical-path cost and cold/cached/spill
// status at planning time — and never executes anything.

import (
	"fmt"
	"strings"
)

// DAGNode is one node of an exported schedule DAG: a stage build for one
// workload, or a measurement sink for one grid point.
type DAGNode struct {
	Bench string `json:"bench"`
	Input string `json:"input,omitempty"`
	Stage string `json:"stage"`
	// Point carries the grid-point label on measurement sinks.
	Point string `json:"point,omitempty"`
	// Status is cold, cached, spill or measure (see the sched* constants).
	Status string `json:"status"`
	// Cost is the node's own projected cost (a stageCost proxy, not
	// seconds); Critical adds the costliest chain of dependents below it —
	// the scheduling priority.
	Cost     float64 `json:"cost"`
	Critical float64 `json:"critical"`
}

// DAGEdge is one dependency edge, by node index (From must complete before
// To can start).
type DAGEdge struct {
	From int `json:"from"`
	To   int `json:"to"`
}

// DAGReport is the scheduled stage DAG of one sweep grid, nodes in
// insertion (topological) order.
type DAGReport struct {
	Axes  []string  `json:"axes,omitempty"`
	Nodes []DAGNode `json:"nodes"`
	Edges []DAGEdge `json:"edges"`
	// CriticalPath is the longest projected root-to-sink chain under the
	// stageCost table: the grid's makespan floor, in the same proxy units.
	CriticalPath float64 `json:"critical_path"`
}

// dagFill maps node statuses to DOT fill colors.
var dagFill = map[string]string{
	schedCold:    "lightblue",
	schedCached:  "palegreen",
	schedSpill:   "khaki",
	schedMeasure: "lightgrey",
}

// DOT renders the DAG in Graphviz dot syntax, one box per node annotated
// with projected cost, critical-path cost and status.
func (d *DAGReport) DOT() string {
	var sb strings.Builder
	sb.WriteString("digraph stages {\n")
	sb.WriteString("  rankdir=LR;\n")
	sb.WriteString("  node [shape=box, style=filled, fontname=\"monospace\"];\n")
	for i, n := range d.Nodes {
		head := n.Bench
		if n.Input != "" {
			head += "/" + n.Input
		}
		line2 := n.Stage
		if n.Point != "" {
			line2 += " @ " + n.Point
		}
		label := fmt.Sprintf("%s\\n%s\\n%.3f cp %.3f [%s]",
			head, line2, n.Cost, n.Critical, n.Status)
		fill := dagFill[n.Status]
		if fill == "" {
			fill = "white"
		}
		fmt.Fprintf(&sb, "  n%d [label=\"%s\", fillcolor=\"%s\"];\n", i, label, fill)
	}
	for _, e := range d.Edges {
		fmt.Fprintf(&sb, "  n%d -> n%d;\n", e.From, e.To)
	}
	sb.WriteString("}\n")
	return sb.String()
}

// report converts the builder's DAG (critical costs already computed) into
// the exported form. Node indices equal seq: order is insertion order.
func (b *dagBuilder) report(axes []string) *DAGReport {
	d := &DAGReport{Axes: axes, Nodes: make([]DAGNode, len(b.order))}
	for i, n := range b.order {
		d.Nodes[i] = DAGNode{
			Bench:    n.bench,
			Stage:    string(n.stage),
			Point:    n.label,
			Status:   n.status,
			Cost:     n.cost,
			Critical: n.crit,
		}
		if n.stage != stageMeasure {
			d.Nodes[i].Input = n.input.String()
		}
		if n.crit > d.CriticalPath {
			d.CriticalPath = n.crit
		}
		for _, c := range n.children {
			d.Edges = append(d.Edges, DAGEdge{From: n.seq, To: c.seq})
		}
	}
	return d
}

// SweepDAG plans a grid without executing it: the schedule DAG Sweep would
// run — the same sinks, chains always expanded — annotated with projected
// costs and store status at planning time. Workload specs in the grid are
// registered exactly as Sweep registers them; the artifact store is only
// peeked, never populated. Its error is the grid's: unknown, duplicated or
// missing benchmarks, a bad workload spec, or a chain that cannot be planned.
func (r *Runner) SweepDAG(g Grid) (*DAGReport, error) {
	rep, sinks, err := r.sweepSinks(g)
	if err != nil {
		return nil, err
	}
	b, err := r.plan(sinks, true)
	if err != nil {
		return nil, err
	}
	b.computeCritical()
	return b.report(rep.Axes), nil
}
