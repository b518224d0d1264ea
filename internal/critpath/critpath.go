// Package critpath implements the Fields-style critical-path model the
// paper's first PTHSEL extension is built on (§4.1): a dependence-graph
// model of execution over the dynamic trace with edges for in-order
// dispatch bandwidth, branch mispredictions, the finite ROB, dataflow, and
// in-order commit bandwidth.
//
// The analyzer provides three services:
//
//  1. an estimated unoptimized execution time (the L0 the composite model
//     needs), computed by New,
//  2. a five-category breakdown of that time (the paper's Figure 2 stack),
//     computed by Breakdown when it is called,
//  3. per-problem-load cost curves: the latency-reduction to execution-time-
//     reduction function sampled at 25/50/75/100% tolerated latency, computed
//     as the average of a pessimistic pass (only this load's misses
//     shortened) and an optimistic pass (all other loads' L2 misses resolved)
//     to approximate interaction costs — the paper's §4.1 worked example.
//
// Each service is one forward scan of the trace in integer quarter-cycles.
// The scan keeps node times in a ring bounded by the ROB, so the baseline
// and a cost curve allocate per window row, not per trace entry; only
// Breakdown records every node, for its backward walk (see scan).
package critpath

import (
	"encoding/json"
	"errors"
	"math"

	"repro/internal/cache"
	"repro/internal/fingerprint"
	"repro/internal/isa"
	"repro/internal/profile"
	"repro/internal/trace"
)

// Config parameterizes the model. Latencies are end-to-end load-use times
// per hierarchy level.
type Config struct {
	Width      int // dispatch/commit bandwidth per cycle
	ROBSize    int
	MispredPen int // cycles from branch execute to useful re-dispatch
	LatL1      int // load-to-use, L1 hit
	LatL2      int // load-to-use, L2 hit
	LatMem     int // load-to-use, memory
	BusOcc     int // memory-bus occupancy per block transfer (bandwidth edges)
}

// DefaultConfig derives the model from the simulator's default processor
// and hierarchy configuration.
func DefaultConfig(h cache.HierConfig) Config {
	return Config{
		Width:      6,
		ROBSize:    128,
		MispredPen: 10,
		LatL1:      h.L1D.HitLatency,
		LatL2:      h.L1D.HitLatency + h.L2.HitLatency,
		LatMem:     h.L1D.HitLatency + h.L2.HitLatency + h.MemLatency,
		BusOcc:     (h.L2.BlockBytes / h.BusBytes) * h.BusFreqDiv,
	}
}

// Fingerprint returns the content fingerprint of the criticality stage
// config — the complete set of knobs the analyzer reads beyond its input
// artifacts, so curve caches are invalidated by exactly these fields.
func (c Config) Fingerprint() (string, error) { return fingerprint.JSON(c) }

// Curve is the latency-reduction → execution-time-reduction function for one
// static problem load, sampled at 25%, 50%, 75% and 100% of the full miss
// latency and linearly interpolated between samples (the paper computes only
// these four points for tractability).
type Curve struct {
	MissLat float64    // full per-miss latency being tolerated (cycles)
	Gain    [4]float64 // per-miss execution-time gain at 25/50/75/100%
}

// UnmarshalJSON decodes a curve and rejects `null`, which encoding/json
// would otherwise turn into a zero curve: a spilled curve set holding one
// must fail to load, not read as a load that gains nothing.
func (c *Curve) UnmarshalJSON(data []byte) error {
	if string(data) == "null" {
		return errors.New("critpath: null curve")
	}
	type plain Curve // no methods: decodes field by field
	return json.Unmarshal(data, (*plain)(c))
}

// GainAt returns the per-miss execution-time reduction for tolerating the
// given number of cycles of the load's latency, interpolating the sampled
// curve. Tolerated latencies beyond the full miss latency saturate; a NaN
// tolerated latency and a NaN or non-positive MissLat gain nothing.
func (c Curve) GainAt(tolerated float64) float64 {
	// Written so that NaN, which fails every comparison, takes the early
	// returns: the segment index below needs 0 ≤ f < 1.
	if !(tolerated > 0) || !(c.MissLat > 0) {
		return 0
	}
	f := tolerated / c.MissLat
	if !(f < 1) {
		return c.Gain[3]
	}
	// Piecewise-linear through (0,0), (.25,G0), (.5,G1), (.75,G2), (1,G3).
	seg := int(f / 0.25)
	lo := 0.0
	if seg > 0 {
		lo = c.Gain[seg-1]
	}
	hi := c.Gain[seg]
	frac := (f - 0.25*float64(seg)) / 0.25
	return lo + (hi-lo)*frac
}

// FlatCurve returns the original PTHSEL cost model: one cycle of tolerated
// latency is one cycle of execution-time reduction (the identity, saturating
// at the full miss latency).
func FlatCurve(missLat float64) Curve {
	return Curve{MissLat: missLat, Gain: [4]float64{0.25 * missLat, 0.5 * missLat, 0.75 * missLat, missLat}}
}

// Analyzer owns the model state for one trace. It is read-only after New,
// so CostCurve and Breakdown may be called concurrently.
type Analyzer struct {
	cfg     Config
	tr      *trace.Trace
	prof    *profile.Profile
	levels  []uint8 // per dynamic instruction: load service level
	mispred []bool  // per dynamic instruction: branch mispredicted in model
	// Per static instruction: the isa.Flags bits and a non-load's execute
	// latency in cycles, so the scan reads two bytes per entry instead of
	// copying an isa.Inst.
	pcFlags []uint8
	pcLats  []uint8

	baseline int64
}

// New builds an analyzer. The profile must have been collected from the same
// trace (it supplies per-load service levels); mispredictions are modelled
// with a simple 2-bit/gshare hybrid like the simulator's. New computes only
// the baseline; Breakdown rescans the trace when called.
func New(tr *trace.Trace, prof *profile.Profile, cfg Config) *Analyzer {
	a := &Analyzer{cfg: cfg, tr: tr, prof: prof}
	a.levels = prof.Levels
	a.mispred = modelMispredicts(tr)
	insts := tr.Prog.Insts
	a.pcFlags = make([]uint8, len(insts))
	a.pcLats = make([]uint8, len(insts))
	for pc, in := range insts {
		a.pcFlags[pc] = in.Flags()
		a.pcLats[pc] = 1
		if in.IsALU() {
			a.pcLats[pc] = uint8(in.ExecLatency())
		}
	}
	if tr.Len() > 0 {
		a.baseline = cycles(scan(a, baselinePlan(cfg), nil)[0])
	}
	return a
}

// Baseline returns the model-estimated unoptimized execution time.
func (a *Analyzer) Baseline() int64 { return a.baseline }

// Breakdown returns estimated cycles per category: mem, L2, exec, commit,
// fetch — the paper's Figure 2 stack order. Each call runs the baseline
// scan again, recording every node's times and last-arriving edges (27 B
// per trace entry) for the backward critical-path walk.
func (a *Analyzer) Breakdown() [5]int64 {
	n := a.tr.Len()
	if n == 0 {
		return [5]int64{}
	}
	rec := &attribution{
		D: make([]int64, n), E: make([]int64, n), C: make([]int64, n),
		dFrom: make([]uint8, n), eFrom: make([]uint8, n), cFrom: make([]uint8, n),
	}
	scan(a, baselinePlan(a.cfg), rec)
	return a.attribute(rec)
}

// Node times are int64 quarter-cycles. Every latency is a whole number of
// cycles except a partly tolerated target miss, LatL1 + miss·(1−f) with f a
// multiple of ¼, so every node time is a multiple of ¼ cycle and the
// integer scan is exact: it computes the float longest-path DP's values
// without rounding.
const quarter = 4

// never is the time of an edge that does not exist: earlier than any node
// time, with room to add a latency without overflowing.
const never = math.MinInt64 / 4

// cycles converts a quarter-cycle time to cycles, rounding half up exactly
// as int64(t/4 + 0.5) does for the float time t.
func cycles(q int64) int64 { return (q + 2) / quarter }

// lanes is the per-node time vector of one scan: each lane is an
// independent longest-path computation over the same trace. The baseline
// runs one lane, a cost curve nine.
type lanes interface{ [1]int64 | [9]int64 }

// lanePlan fixes, per lane, the modelled load-to-use latency of a
// memory-level load and whether the access is still a demand memory access
// (bus-bound at use time): one pair for the target load's misses, one for
// every other load's. Covered/resolved misses are served from the L2 at use
// time — their prefetch consumed bus bandwidth earlier — so they are not
// demand-bound. Loads served by the L1 or L2, and non-loads, take the same
// latency in every lane.
type lanePlan[V lanes] struct {
	target              int32 // static load whose misses are shortened; -1 for none
	targetLat, otherLat V
	// Bit k set: lane k's access is demand-bound.
	targetDemand, otherDemand uint16
}

// setLane configures lane k: the target load's misses are shortened by
// reduce quarters of the miss latency (0 to 4), and resolveOthers treats
// every other load's misses as L2 hits (the optimistic interaction-cost
// estimate).
func (p *lanePlan[V]) setLane(cfg Config, k, reduce int, resolveOthers bool) {
	miss := int64(cfg.LatMem - cfg.LatL1)
	// A partially-covered miss still completes through memory.
	p.targetLat[k] = quarter*int64(cfg.LatL1) + miss*int64(quarter-reduce)
	if reduce < quarter {
		p.targetDemand |= 1 << k
	}
	if resolveOthers {
		p.otherLat[k] = quarter * int64(cfg.LatL2) // resolved: found in the L2
	} else {
		p.otherLat[k] = quarter * int64(cfg.LatMem)
		p.otherDemand |= 1 << k
	}
}

// baselinePlan is one lane with no target load and no misses resolved.
func baselinePlan(cfg Config) *lanePlan[[1]int64] {
	p := &lanePlan[[1]int64]{target: -1}
	p.setLane(cfg, 0, 0, false)
	return p
}

// Last-arriving edge codes, recorded by the attributing scan.
const (
	fromDOrder = iota // D[i-1] / bandwidth
	fromMispred
	fromROB
	fromDSelf // E determined by own dispatch
	fromProd1
	fromProd2
	fromE // C determined by own execute
	fromCOrder
)

// attribution is what the backward critical-path walk needs: every node's
// times (the scan itself keeps only a ring of them) and its last-arriving
// edge.
type attribution struct {
	D, E, C             []int64
	dFrom, eFrom, cFrom []uint8
}

// record stores entry i's node times and last-arriving edges, given the
// arrival time along each edge (dBand: D[i-Width]+1; cOrd: the later of
// C[i-1] and C[i-Width]+1). The last-arriving edge is the first, in edge
// order, to reach the node's time.
func (r *attribution) record(i int, d, e, c, dPrev, dBand, dMis, dROB, e1, e2, cOrd int64) {
	r.D[i], r.E[i], r.C[i] = d, e, c
	r.dFrom[i] = fromDOrder
	if dOrd := max(0, dPrev, dBand); dROB > max(dOrd, dMis) {
		r.dFrom[i] = fromROB
	} else if dMis > dOrd {
		r.dFrom[i] = fromMispred
	}
	r.eFrom[i] = fromDSelf
	if e2 > max(d, e1) {
		r.eFrom[i] = fromProd2
	} else if e1 > d {
		r.eFrom[i] = fromProd1
	}
	r.cFrom[i] = fromE
	if cOrd > e+quarter {
		r.cFrom[i] = fromCOrder
	}
}

// times is one ring row: an entry's dispatch, execute and commit times.
type times[V lanes] struct{ D, E, C V }

// scan runs the longest-path DP over the trace once for every lane of p
// and returns each lane's last commit time. rec, when non-nil, receives
// every node's times and last-arriving edges (single-lane scans only).
// Width and ROBSize must be at least 1.
//
// Every edge that can bind reaches back at most max(ROBSize, Width)
// entries, so all node times live in one ring of more rows than that (a
// power of two):
//   - A producer p at ROBSize or more entries back cannot bind: C is
//     monotone through its C[i-1] edge and D[i] takes the ROB edge, so
//     E[p] < C[p] ≤ C[i-ROBSize] ≤ D[i]. The scan treats it as absent.
//   - The mispredict edge of a branch m can bind only at m+1: D is
//     monotone through its D[i-1] edge, so D[i] ≥ D[m+1] ≥ E[m]+pen for
//     every later i.
//
// A skipped producer arrives strictly before D[i], and a skipped
// mispredict edge no later than D[i-1], so neither skip changes a node
// time or a last-arriving edge.
func scan[V lanes](a *Analyzer, p *lanePlan[V], rec *attribution) V {
	cfg := a.cfg
	ringLen := 1
	for ringLen <= max(cfg.ROBSize, cfg.Width) {
		ringLen <<= 1
	}
	mask := ringLen - 1
	// Ring rows not yet written read as zero, which is what the first
	// entry's D[i-1] and C[i-1] edges need. An edge that does not exist
	// reads the absent row, never in every lane.
	ring := make([]times[V], ringLen)
	var absent, busFree, l1Lat, l2Lat V
	fill(&absent, never)
	fill(&l1Lat, quarter*int64(cfg.LatL1))
	fill(&l2Lat, quarter*int64(cfg.LatL2))
	misPrev := false // entry i-1 is a mispredicted branch
	busOcc := quarter * int64(cfg.BusOcc)
	pen := quarter * int64(cfg.MispredPen)
	rob := int64(cfg.ROBSize)
	// The longest-path DP is a pure forward scan; the cursor streams the PC
	// and producer columns chunk by chunk.
	for cu := a.tr.Cursor(); cu.Next(); {
		i := cu.Index()
		pc := cu.PC()
		flags := a.pcFlags[pc]
		lvl := a.levels[i]

		var lat V
		var demand uint16
		switch {
		case flags&isa.FlagLoad == 0:
			fill(&lat, quarter*int64(a.pcLats[pc]))
		case lvl == profile.LvlMem && pc == p.target:
			lat, demand = p.targetLat, p.targetDemand
		case lvl == profile.LvlMem:
			lat, demand = p.otherLat, p.otherDemand
		case lvl == profile.LvlL2:
			lat = l2Lat
		default:
			lat = l1Lat
		}
		// Memory-bus bandwidth: every original L2 miss occupies a bus slot
		// (covered misses via their earlier prefetch), and a demand miss
		// cannot complete before its slot plus the memory latency.
		bus := lvl == profile.LvlMem && busOcc > 0

		prev := &ring[(i-1)&mask]
		dW, cW, cROB, eMis, e1, e2 := &absent, &absent, &absent, &absent, &absent, &absent
		if i >= cfg.Width {
			w := &ring[(i-cfg.Width)&mask]
			dW, cW = &w.D, &w.C
		}
		if i >= cfg.ROBSize {
			cROB = &ring[(i-cfg.ROBSize)&mask].C
		}
		if misPrev {
			eMis = &prev.E
		}
		if p1 := cu.Prod1(); p1 != trace.NoProducer && int64(i)-p1 < rob {
			e1 = &ring[int(p1)&mask].E
		}
		if p2 := cu.Prod2(); p2 != trace.NoProducer && int64(i)-p2 < rob {
			e2 = &ring[int(p2)&mask].E
		}
		cur := &ring[i&mask]

		// Dispatch: in-order bandwidth, ROB, mispredict refill. D[i-1] is
		// never negative (the zero row stands in before the first entry).
		for k := 0; k < len(lat); k++ {
			cur.D[k] = max(prev.D[k], (*dW)[k]+quarter, (*cROB)[k])
		}
		if misPrev {
			for k := 0; k < len(lat); k++ {
				cur.D[k] = max(cur.D[k], (*eMis)[k]+pen)
			}
		}
		// Execute.
		for k := 0; k < len(lat); k++ {
			base := max(cur.D[k], (*e1)[k], (*e2)[k])
			e := base + lat[k]
			if bus {
				slot := max(busFree[k], base)
				busFree[k] = slot + busOcc
				if demand>>k&1 != 0 {
					e = max(e, slot+lat[k])
				}
			}
			cur.E[k] = e
		}
		// Commit.
		for k := 0; k < len(lat); k++ {
			cur.C[k] = max(cur.E[k]+quarter, prev.C[k], (*cW)[k]+quarter)
		}
		if rec != nil {
			rec.record(i, cur.D[0], cur.E[0], cur.C[0], prev.D[0], (*dW)[0]+quarter,
				(*eMis)[0]+pen, (*cROB)[0], (*e1)[0], (*e2)[0], max(prev.C[0], (*cW)[0]+quarter))
		}

		misPrev = flags&isa.FlagBranch != 0 && a.mispred[i]
	}
	return ring[(a.tr.Len()-1)&mask].C
}

// fill sets every lane of v to x.
func fill[V lanes](v *V, x int64) {
	for k := 0; k < len(*v); k++ {
		(*v)[k] = x
	}
}

// attribute walks the critical path backward from the last commit,
// assigning each edge's time to a category: 0=mem, 1=L2, 2=exec, 3=commit,
// 4=fetch (matching the simulator's StallCategory order).
func (a *Analyzer) attribute(rec *attribution) [5]int64 {
	var bd [5]int64 // quarter-cycles
	D, E, C := rec.D, rec.E, rec.C
	type node struct {
		kind uint8 // 0=D,1=E,2=C
		i    int
	}
	cur := node{2, a.tr.Len() - 1}
	curT := C[cur.i]
	for {
		var next node
		var nextT int64
		var cat int
		switch cur.kind {
		case 2: // commit node
			if rec.cFrom[cur.i] == fromCOrder {
				if cur.i == 0 {
					bd[3] += curT
					goto done
				}
				next = node{2, cur.i - 1}
				nextT = C[cur.i-1]
				cat = 3 // commit
			} else {
				next = node{1, cur.i}
				nextT = E[cur.i]
				cat = 3 // the E->C edge is commit overhead (1 cycle)
			}
		case 1: // execute node
			load := a.pcFlags[a.tr.PC(cur.i)]&isa.FlagLoad != 0
			switch {
			case load && a.levels[cur.i] == profile.LvlMem:
				cat = 0
			case load && a.levels[cur.i] == profile.LvlL2:
				cat = 1
			default:
				cat = 2
			}
			switch rec.eFrom[cur.i] {
			case fromProd1:
				next = node{1, int(a.tr.Prod1(cur.i))}
				nextT = E[next.i]
			case fromProd2:
				next = node{1, int(a.tr.Prod2(cur.i))}
				nextT = E[next.i]
			default:
				next = node{0, cur.i}
				nextT = D[cur.i]
			}
		default: // dispatch node
			// Fetch bandwidth, mispredict refill, and the finite window all
			// fold into the fetch bar, as in the paper.
			cat = 4
			if cur.i == 0 {
				bd[4] += curT
				goto done
			}
			switch rec.dFrom[cur.i] {
			case fromROB:
				next = node{2, cur.i - a.cfg.ROBSize}
				nextT = C[next.i]
			default:
				next = node{0, cur.i - 1}
				nextT = D[next.i]
			}
		}
		bd[cat] += curT - nextT
		cur, curT = next, nextT
		if cur.kind == 0 && cur.i == 0 {
			bd[4] += curT
			break
		}
		if curT <= 0 {
			break
		}
	}
done:
	var out [5]int64
	for i, q := range bd {
		out[i] = cycles(q)
	}
	return out
}

// CostCurve computes the per-miss cost curve for the given static problem
// load: the average of the pessimistic estimate (only this load shortened)
// and the optimistic one (all other misses resolved), per §4.1. All nine
// estimates come from one nine-lane scan: lane 0 is the optimistic baseline
// (all *other* loads' misses resolved, this load's untouched), lanes 1–4
// the pessimistic and lanes 5–8 the optimistic estimates at 25/50/75/100%.
func (a *Analyzer) CostCurve(pc int32) Curve {
	ls := a.prof.Loads[pc]
	missLat := float64(a.cfg.LatMem - a.cfg.LatL1)
	curve := Curve{MissLat: missLat}
	if ls == nil || ls.L2Misses == 0 {
		return curve
	}
	nMiss := float64(ls.L2Misses)

	p := lanePlan[[9]int64]{target: pc}
	p.setLane(a.cfg, 0, 0, true)
	for k := 0; k < 4; k++ {
		p.setLane(a.cfg, 1+k, 1+k, false)
		p.setLane(a.cfg, 5+k, 1+k, true)
	}
	end := scan(a, &p, nil)

	pessBase := a.baseline
	optBase := cycles(end[0])
	for k := 0; k < 4; k++ {
		pess := cycles(end[1+k])
		opt := cycles(end[5+k])
		pessGain := float64(pessBase-pess) / nMiss
		optGain := float64(optBase-opt) / nMiss
		if pessGain < 0 {
			pessGain = 0
		}
		if optGain < 0 {
			optGain = 0
		}
		curve.Gain[k] = (pessGain + optGain) / 2
	}
	// Enforce monotonicity (numerical noise can produce tiny inversions).
	for k := 1; k < 4; k++ {
		if curve.Gain[k] < curve.Gain[k-1] {
			curve.Gain[k] = curve.Gain[k-1]
		}
	}
	return curve
}

// modelMispredicts replays a hybrid predictor over the trace (same structure
// as the simulator's) and marks mispredicted conditional branches.
func modelMispredicts(tr *trace.Trace) []bool {
	const entries = 8192
	const hbits = 12
	bim := make([]uint8, entries)
	gsh := make([]uint8, entries)
	cho := make([]uint8, entries)
	for i := range bim {
		bim[i], gsh[i], cho[i] = 1, 1, 1
	}
	var hist uint64
	out := make([]bool, tr.Len())
	for cu := tr.Cursor(); cu.Next(); {
		pc := cu.PC()
		in := tr.Prog.Insts[pc]
		if !in.IsBranch() {
			continue
		}
		taken := cu.Taken()
		bi := int(uint64(pc) % entries)
		gi := int((uint64(pc) ^ (hist & ((1 << hbits) - 1))) % entries)
		bPred := bim[bi] >= 2
		gPred := gsh[gi] >= 2
		pred := bPred
		if cho[bi] >= 2 {
			pred = gPred
		}
		out[cu.Index()] = pred != taken
		if bPred != gPred {
			if gPred == taken {
				satInc(&cho[bi])
			} else {
				satDec(&cho[bi])
			}
		}
		if taken {
			satInc(&bim[bi])
			satInc(&gsh[gi])
			hist = hist<<1 | 1
		} else {
			satDec(&bim[bi])
			satDec(&gsh[gi])
			hist = hist << 1
		}
	}
	return out
}

func satInc(c *uint8) {
	if *c < 3 {
		*c++
	}
}

func satDec(c *uint8) {
	if *c > 0 {
		*c--
	}
}
