// Package critpath implements the Fields-style critical-path model the
// paper's first PTHSEL extension is built on (§4.1): a dependence-graph
// model of execution over the dynamic trace with edges for in-order
// dispatch bandwidth, branch mispredictions, the finite ROB, dataflow, and
// in-order commit bandwidth.
//
// The analyzer provides three services:
//
//  1. an estimated unoptimized execution time (the L0 the composite model
//     needs),
//  2. a five-category breakdown of that time (the paper's Figure 2 stack),
//  3. per-problem-load cost curves: the latency-reduction to execution-time-
//     reduction function sampled at 25/50/75/100% tolerated latency, computed
//     as the average of a pessimistic pass (only this load's misses
//     shortened) and an optimistic pass (all other loads' L2 misses resolved)
//     to approximate interaction costs — the paper's §4.1 worked example.
package critpath

import (
	"encoding/json"
	"errors"
	"math"

	"repro/internal/cache"
	"repro/internal/fingerprint"
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
// so CostCurve may be called concurrently.
type Analyzer struct {
	cfg     Config
	tr      *trace.Trace
	prof    *profile.Profile
	levels  []uint8 // per dynamic instruction: load service level
	mispred []bool  // per dynamic instruction: branch mispredicted in model

	baseline  int64
	breakdown [5]int64 // indexed by cpu.StallCategory order: mem,L2,exec,commit,fetch
}

// New builds an analyzer. The profile must have been collected from the same
// trace (it supplies per-load service levels); mispredictions are modelled
// with a simple 2-bit/gshare hybrid like the simulator's.
func New(tr *trace.Trace, prof *profile.Profile, cfg Config) *Analyzer {
	a := &Analyzer{cfg: cfg, tr: tr, prof: prof}
	a.levels = prof.Levels
	a.mispred = modelMispredicts(tr)
	n := tr.Len()
	if n == 0 {
		return a
	}
	// The baseline is one lane with no target load and no misses resolved.
	p := lanePlan[[1]float64]{target: -1}
	p.setLane(cfg, 0, 0, false)
	E := make([][1]float64, n)
	rec := &attribution{
		D: make([]float64, n), C: make([]float64, n),
		dFrom: make([]uint8, n), eFrom: make([]uint8, n), cFrom: make([]uint8, n),
	}
	end := scan(a, &p, E, rec)
	a.baseline = int64(end[0] + 0.5)
	a.breakdown = a.attribute(E, rec)
	return a
}

// Baseline returns the model-estimated unoptimized execution time.
func (a *Analyzer) Baseline() int64 { return a.baseline }

// Breakdown returns estimated cycles per category: mem, L2, exec, commit,
// fetch — the paper's Figure 2 stack order.
func (a *Analyzer) Breakdown() [5]int64 { return a.breakdown }

// lanes is the per-node time vector of one scan: each lane is an
// independent longest-path computation over the same trace. The baseline
// runs one lane, a cost curve nine.
type lanes interface{ [1]float64 | [9]float64 }

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
// reduceFrac of the miss latency, and resolveOthers treats every other
// load's misses as L2 hits (the optimistic interaction-cost estimate).
func (p *lanePlan[V]) setLane(cfg Config, k int, reduceFrac float64, resolveOthers bool) {
	miss := float64(cfg.LatMem) - float64(cfg.LatL1)
	// A partially-covered miss still completes through memory.
	p.targetLat[k] = float64(cfg.LatL1) + miss*(1-reduceFrac)
	if reduceFrac < 1 {
		p.targetDemand |= 1 << k
	}
	if resolveOthers {
		p.otherLat[k] = float64(cfg.LatL2) // resolved: found in the L2
	} else {
		p.otherLat[k] = float64(cfg.LatMem)
		p.otherDemand |= 1 << k
	}
}

// Last-arriving edge codes, recorded by the baseline scan for attribute.
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

// attribution is what the backward critical-path walk needs beyond E: the
// full dispatch and commit times (the scan itself keeps only rings of them)
// and each node's last-arriving edge.
type attribution struct {
	D, C                []float64
	dFrom, eFrom, cFrom []uint8
}

// record stores entry i's node times and last-arriving edges, given the
// arrival time along each edge (dBand: D[i-Width]+1; cOrd: the later of
// C[i-1] and C[i-Width]+1). The last-arriving edge is the first, in edge
// order, to reach the node's time.
func (r *attribution) record(i int, d, e, c, dPrev, dBand, dMis, dROB, e1, e2, cOrd float64) {
	r.D[i], r.C[i] = d, c
	r.dFrom[i] = fromDOrder
	if dOrd := later(later(0, dPrev), dBand); dROB > later(dOrd, dMis) {
		r.dFrom[i] = fromROB
	} else if dMis > dOrd {
		r.dFrom[i] = fromMispred
	}
	r.eFrom[i] = fromDSelf
	if e2 > later(d, e1) {
		r.eFrom[i] = fromProd2
	} else if e1 > d {
		r.eFrom[i] = fromProd1
	}
	r.cFrom[i] = fromE
	if cOrd > e+1 {
		r.cFrom[i] = fromCOrder
	}
}

// scan runs the longest-path DP over the trace once for every lane of p,
// fills E (one row per dynamic instruction) and returns each lane's last
// commit time. Dispatch and commit reach back at most max(ROBSize, Width)
// entries, so they live in rings; producers and the last mispredicted
// branch can sit arbitrarily far back, so E is n-long. rec, when non-nil,
// receives the full D and C and the edge codes (single-lane scans only).
// Width and ROBSize must be at least 1.
func scan[V lanes](a *Analyzer, p *lanePlan[V], E []V, rec *attribution) V {
	cfg := a.cfg
	ringLen := 1
	for ringLen <= max(cfg.ROBSize, cfg.Width) {
		ringLen <<= 1
	}
	mask := ringLen - 1
	// Ring rows not yet written read as zero, which is what the first
	// entry's D[i-1] and C[i-1] edges need. An edge that does not exist
	// reads the absent row, -Inf in every lane, which is never later.
	Dr := make([]V, ringLen)
	Cr := make([]V, ringLen)
	var absent, busFree V
	fill(&absent, math.Inf(-1))
	lastMispred := -1
	busOcc := float64(cfg.BusOcc)
	pen := float64(cfg.MispredPen)
	insts := a.tr.Prog.Insts
	// The longest-path DP is a pure forward scan; the cursor streams the PC
	// and producer columns chunk by chunk.
	for cu := a.tr.Cursor(); cu.Next(); {
		i := cu.Index()
		pc := cu.PC()
		in := insts[pc]
		lvl := a.levels[i]

		var lat V
		var demand uint16
		switch {
		case !in.IsLoad():
			l := 1.0
			if in.IsALU() {
				l = float64(in.ExecLatency())
			}
			fill(&lat, l)
		case lvl == profile.LvlMem && pc == p.target:
			lat, demand = p.targetLat, p.targetDemand
		case lvl == profile.LvlMem:
			lat, demand = p.otherLat, p.otherDemand
		case lvl == profile.LvlL2:
			fill(&lat, float64(cfg.LatL2))
		default:
			fill(&lat, float64(cfg.LatL1))
		}
		// Memory-bus bandwidth: every original L2 miss occupies a bus slot
		// (covered misses via their earlier prefetch), and a demand miss
		// cannot complete before its slot plus the memory latency.
		bus := lvl == profile.LvlMem && busOcc > 0

		dPrev, cPrev := &Dr[(i-1)&mask], &Cr[(i-1)&mask]
		dW, cW, cROB, eMis, e1, e2 := &absent, &absent, &absent, &absent, &absent, &absent
		if i >= cfg.Width {
			dW, cW = &Dr[(i-cfg.Width)&mask], &Cr[(i-cfg.Width)&mask]
		}
		if i >= cfg.ROBSize {
			cROB = &Cr[(i-cfg.ROBSize)&mask]
		}
		if lastMispred >= 0 {
			eMis = &E[lastMispred]
		}
		if p1 := cu.Prod1(); p1 != trace.NoProducer {
			e1 = &E[p1]
		}
		if p2 := cu.Prod2(); p2 != trace.NoProducer {
			e2 = &E[p2]
		}
		dRow, eRow, cRow := &Dr[i&mask], &E[i], &Cr[i&mask]

		// Dispatch: in-order bandwidth, mispredict refill, ROB.
		for k := 0; k < len(lat); k++ {
			(*dRow)[k] = later(later(later(later(0, (*dPrev)[k]), (*dW)[k]+1), (*eMis)[k]+pen), (*cROB)[k])
		}
		// Execute.
		for k := 0; k < len(lat); k++ {
			base := later(later((*dRow)[k], (*e1)[k]), (*e2)[k])
			e := base + lat[k]
			if bus {
				slot := later(busFree[k], base)
				busFree[k] = slot + busOcc
				if demand>>k&1 != 0 {
					e = later(e, slot+lat[k])
				}
			}
			(*eRow)[k] = e
		}
		// Commit.
		for k := 0; k < len(lat); k++ {
			(*cRow)[k] = later(later((*eRow)[k]+1, (*cPrev)[k]), (*cW)[k]+1)
		}
		if rec != nil {
			rec.record(i, (*dRow)[0], (*eRow)[0], (*cRow)[0], (*dPrev)[0], (*dW)[0]+1,
				(*eMis)[0]+pen, (*cROB)[0], (*e1)[0], (*e2)[0], later((*cPrev)[0], (*cW)[0]+1))
		}

		if in.IsBranch() && a.mispred[i] {
			lastMispred = i
		}
	}
	return Cr[(a.tr.Len()-1)&mask]
}

// later returns the later of two node times: b only if strictly later,
// the tie-break the longest-path DP's edge order relies on.
func later(a, b float64) float64 {
	if b > a {
		return b
	}
	return a
}

// fill sets every lane of v to x.
func fill[V lanes](v *V, x float64) {
	for k := 0; k < len(*v); k++ {
		(*v)[k] = x
	}
}

// attribute walks the critical path backward from the last commit,
// assigning each edge's time to a category: 0=mem, 1=L2, 2=exec, 3=commit,
// 4=fetch (matching the simulator's StallCategory order).
func (a *Analyzer) attribute(E [][1]float64, rec *attribution) [5]int64 {
	var bd [5]float64
	D, C := rec.D, rec.C
	type node struct {
		kind uint8 // 0=D,1=E,2=C
		i    int
	}
	cur := node{2, a.tr.Len() - 1}
	curT := C[cur.i]
	for {
		var next node
		var nextT float64
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
				nextT = E[cur.i][0]
				cat = 3 // the E->C edge is commit overhead (1 cycle)
			}
		case 1: // execute node
			in := a.tr.Prog.Insts[a.tr.PC(cur.i)]
			switch {
			case in.IsLoad() && a.levels[cur.i] == profile.LvlMem:
				cat = 0
			case in.IsLoad() && a.levels[cur.i] == profile.LvlL2:
				cat = 1
			default:
				cat = 2
			}
			switch rec.eFrom[cur.i] {
			case fromProd1:
				next = node{1, int(a.tr.Prod1(cur.i))}
				nextT = E[next.i][0]
			case fromProd2:
				next = node{1, int(a.tr.Prod2(cur.i))}
				nextT = E[next.i][0]
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
	for i := range bd {
		out[i] = int64(bd[i] + 0.5)
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

	fracs := [4]float64{0.25, 0.5, 0.75, 1.0}
	p := lanePlan[[9]float64]{target: pc}
	p.setLane(a.cfg, 0, 0, true)
	for k, f := range fracs {
		p.setLane(a.cfg, 1+k, f, false)
		p.setLane(a.cfg, 5+k, f, true)
	}
	end := scan(a, &p, make([][9]float64, a.tr.Len()), nil)

	pessBase := a.baseline
	optBase := int64(end[0] + 0.5)
	for k := range fracs {
		pess := int64(end[1+k] + 0.5)
		opt := int64(end[5+k] + 0.5)
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
