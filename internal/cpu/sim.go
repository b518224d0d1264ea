package cpu

import (
	"context"
	"fmt"

	"repro/internal/bpred"
	"repro/internal/cache"
	"repro/internal/energy"
	"repro/internal/isa"
	"repro/internal/trace"
)

// Per-dynamic-instruction state flags.
const (
	fDispatched uint8 = 1 << iota
	fIssued
	fRSFreed
	fMispred
	fFwd // load served by store forwarding
)

// Served-level encoding stored alongside flags (2 bits).
const (
	lvlNone uint8 = iota
	lvlL1
	lvlL2
	lvlMem
)

type fetchEnt struct {
	dyn     int32
	availAt int64
}

// Simulator runs one program execution (a dynamic trace) through the timing
// model, optionally with a set of selected p-threads installed in the
// trigger table.
//
// A Simulator is reusable: Reset reinitializes it for a new (config, trace,
// p-thread) triple while retaining every internal pool — ROB, per-entry
// state columns, wakeup-node pool, calendar buckets, cache arrays, p-thread
// contexts — so steady-state reuse performs no allocation. A Result
// returned by Run/RunContext borrows simulator-owned memory and is valid
// only until the next Reset; callers that outlive the reuse cycle must
// Clone it.
//
// Two engines share the pipeline stages: the default event-driven engine
// (wakeup lists, a ready queue and a calendar queue of completion events,
// with bulk skipping of quiescent cycles) and the reference scan engine
// that rescans the window every cycle. They produce bit-identical Results;
// see Config.Engine.
type Simulator struct {
	cfg  Config
	tr   *trace.Trace
	prog *isa.Program
	hier *cache.Hierarchy
	bp   *bpred.Predictor
	// bpCfg remembers the raw requested predictor configuration so Reset can
	// tell whether the existing predictor (possibly built from a defaulted
	// config) still matches.
	bpCfg bpred.Config

	now int64
	n   int

	// Main-thread front end.
	fetchIdx        int
	fetchResumeAt   int64
	stalledOnBranch int32 // dyn index of unresolved mispredicted branch, -1 none
	fetchQ          []fetchEnt
	fqHead, fqLen   int

	// Back end.
	rob             []int32
	robHead, robLen int
	state           []uint8
	level           []uint8
	completeAt      []int64
	rsUsed          int
	physUsed        int

	// Dispatch-time architectural state (correct path).
	specRegs   [isa.NumRegs]int64
	lastWriter [isa.NumRegs]int64
	mem        []int64
	inflightSt []int32 // per memory word: dispatched, uncommitted stores

	// Pre-execution. Triggers are a per-PC intrusive list over the installed
	// p-threads (trigHead[pc] -> first index, trigNext chains in install
	// order); statOf deduplicates stats for p-threads sharing an ID.
	pthreads    []*PThread
	trigHead    []int32
	trigNext    []int32
	statOf      []int32
	pthStats    []PThreadStats
	ctxs        []pctx
	liveCtxs    int // count of active contexts (fast-path gate for the pctx scans)
	rrCtx       int // round-robin fetch arbitration pointer
	spawnUseful []bool
	spawnStatic []int32 // spawnID -> stat index

	// Per-PC static summaries, rebuilt on Reset (the program is tens of
	// instructions): predicate bytes and functional-unit latencies, so hot
	// stages test flag bits instead of re-running isa.Inst's Op switches.
	pcFlags []uint8
	pcLats  []uint8

	// Event engine state; ev is nil under the reference scan engine, evMem
	// keeps the allocated structures alive across engine switches.
	ev    *evState
	evMem *evState

	// Statistics.
	res          Result
	perPBuf      []PThreadStats // reused backing for res.PerPThread
	memMainAcc   int64          // d-cache/LSQ accesses by the main thread
	memPthAcc    int64
	aluMain      int64
	aluPth       int64
	instsMain    int64
	instsPth     int64
	branchesMain int64
}

// NewSimulator prepares a run of tr on the configured processor with the
// given p-threads installed (nil for an unoptimized baseline run).
func NewSimulator(cfg Config, tr *trace.Trace, pthreads []*PThread) (*Simulator, error) {
	s := &Simulator{}
	if err := s.Reset(cfg, tr, pthreads); err != nil {
		return nil, err
	}
	return s, nil
}

// grow returns a slice of length n, reusing s's storage when possible.
// Contents are unspecified; callers that need a known initial state fill it.
func grow[T any](s []T, n int) []T {
	if cap(s) >= n {
		return s[:n]
	}
	return make([]T, n)
}

// Reset reinitializes the simulator for a run of tr under cfg with the
// given p-threads installed, reusing every internal pool sized on previous
// runs. After one warm-up run per (program size, configuration) shape,
// Reset and the subsequent run allocate nothing. Any Result previously
// returned by this simulator is invalidated (see Simulator doc).
func (s *Simulator) Reset(cfg Config, tr *trace.Trace, pthreads []*PThread) error {
	if cfg.Engine != EngineEvent && cfg.Engine != EngineScan {
		return fmt.Errorf("cpu: unknown engine %q (valid engines: event, scan)", cfg.Engine)
	}
	for _, pt := range pthreads {
		if err := pt.Validate(); err != nil {
			return err
		}
		// Validate can't see the program; check here that the trigger exists
		// (the trigger table is indexed by PC).
		if pt.TriggerPC < 0 || int(pt.TriggerPC) >= len(tr.Prog.Insts) {
			return fmt.Errorf("cpu: p-thread %d trigger PC %d out of program range (%d instructions)",
				pt.ID, pt.TriggerPC, len(tr.Prog.Insts))
		}
	}
	n := tr.Len()
	s.cfg = cfg
	s.tr = tr
	s.prog = tr.Prog
	s.n = n
	s.pcFlags = grow(s.pcFlags, len(s.prog.Insts))
	s.pcLats = grow(s.pcLats, len(s.prog.Insts))
	for i, in := range s.prog.Insts {
		s.pcFlags[i] = in.Flags()
		s.pcLats[i] = uint8(in.ExecLatency())
	}

	if s.hier == nil || s.hier.Config() != cfg.Hier {
		s.hier = cache.NewHierarchy(cfg.Hier)
	} else {
		s.hier.Reset()
	}
	if s.bp == nil || s.bpCfg != cfg.Bpred {
		s.bp = bpred.New(cfg.Bpred)
		s.bpCfg = cfg.Bpred
	} else {
		s.bp.Reset()
	}

	s.now = 0
	s.fetchIdx = 0
	s.fetchResumeAt = 0
	s.stalledOnBranch = -1
	if cap(s.fetchQ) >= cfg.FetchQCap {
		s.fetchQ = s.fetchQ[:cfg.FetchQCap]
	} else {
		s.fetchQ = make([]fetchEnt, cfg.FetchQCap)
	}
	s.fqHead, s.fqLen = 0, 0

	s.rob = grow(s.rob, cfg.ROBSize)
	s.robHead, s.robLen = 0, 0
	// One canonical clear loop per slice so each compiles to a memclr.
	s.state = grow(s.state, n)
	for i := range s.state {
		s.state[i] = 0
	}
	s.level = grow(s.level, n)
	for i := range s.level {
		s.level[i] = 0
	}
	s.completeAt = grow(s.completeAt, n)
	for i := range s.completeAt {
		s.completeAt[i] = 0
	}
	s.rsUsed, s.physUsed = 0, 0

	s.specRegs = [isa.NumRegs]int64{}
	for r := range s.lastWriter {
		s.lastWriter[r] = -1
	}
	memWords := len(tr.Prog.InitMem)
	s.mem = grow(s.mem, memWords)
	copy(s.mem, tr.Prog.InitMem)
	s.inflightSt = grow(s.inflightSt, memWords)
	for i := range s.inflightSt {
		s.inflightSt[i] = 0
	}

	s.installPThreads(pthreads)

	nctx := cfg.Contexts - 1
	if cap(s.ctxs) >= nctx {
		s.ctxs = s.ctxs[:nctx]
	} else {
		s.ctxs = make([]pctx, nctx)
	}
	// Preallocate every p-thread context's working arrays to the largest
	// installed body once, so spawn never allocates.
	maxBody := MaxBodyLen(pthreads)
	for c := range s.ctxs {
		s.ctxs[c].active = false
		s.ctxs[c].grow(maxBody)
	}
	s.liveCtxs = 0
	s.rrCtx = 0
	s.spawnUseful = s.spawnUseful[:0]
	s.spawnStatic = s.spawnStatic[:0]
	if s.spawnUseful == nil {
		s.spawnUseful = make([]bool, 0, 1024)
		s.spawnStatic = make([]int32, 0, 1024)
	}

	if cfg.Engine == EngineEvent {
		if s.evMem == nil {
			s.evMem = &evState{}
		}
		s.evMem.reset(n, cfg.ROBSize)
		s.ev = s.evMem
	} else {
		s.ev = nil
	}

	s.res = Result{}
	s.memMainAcc, s.memPthAcc = 0, 0
	s.aluMain, s.aluPth = 0, 0
	s.instsMain, s.instsPth = 0, 0
	s.branchesMain = 0
	return nil
}

// installPThreads rebuilds the trigger table and per-p-thread stat slots.
// Per-PC dispatch order is the argument order (trigNext chains preserve
// it), and p-threads sharing an ID share one stat slot, both matching the
// previous map-based behaviour bit for bit.
func (s *Simulator) installPThreads(pthreads []*PThread) {
	s.pthreads = pthreads
	nInsts := len(s.prog.Insts)
	s.trigHead = grow(s.trigHead, nInsts)
	for i := range s.trigHead {
		s.trigHead[i] = -1
	}
	s.trigNext = grow(s.trigNext, len(pthreads))
	s.statOf = grow(s.statOf, len(pthreads))
	s.pthStats = s.pthStats[:0]
	for k, pt := range pthreads {
		s.trigNext[k] = -1
		// Append to the trigger PC's chain tail to preserve install order.
		if head := s.trigHead[pt.TriggerPC]; head < 0 {
			s.trigHead[pt.TriggerPC] = int32(k)
		} else {
			tail := head
			for s.trigNext[tail] >= 0 {
				tail = s.trigNext[tail]
			}
			s.trigNext[tail] = int32(k)
		}
		si := int32(-1)
		for j := range s.pthStats {
			if s.pthStats[j].ID == pt.ID {
				si = int32(j)
				break
			}
		}
		if si < 0 {
			si = int32(len(s.pthStats))
			s.pthStats = append(s.pthStats, PThreadStats{ID: pt.ID})
		}
		s.statOf[k] = si
	}
}

// Run simulates to completion and returns the result.
//
//lab:hotpath
func (s *Simulator) Run() (*Result, error) {
	return s.RunContext(context.Background())
}

// ctxCheckMask throttles context polling to every 4096 simulated cycles:
// cheap enough to be invisible in profiles, frequent enough that a cancelled
// long run returns within microseconds of wall-clock time.
const ctxCheckMask = 1<<12 - 1

// RunContext simulates to completion, aborting with ctx.Err() if ctx is
// cancelled mid-simulation. The returned Result borrows simulator-owned
// memory; it is valid until the simulator's next Reset (Clone it to keep
// it longer).
//
//lab:hotpath
func (s *Simulator) RunContext(ctx context.Context) (*Result, error) {
	if s.ev == nil {
		return s.runScan(ctx)
	}
	return s.runEvent(ctx)
}

// noCommitLimit aborts a run with no forward progress (deadlock guard).
const noCommitLimit = 1_000_000

//lab:hotpath
func (s *Simulator) done() bool {
	return s.fetchIdx >= s.n && s.fqLen == 0 && s.robLen == 0
}

func (s *Simulator) maxCycles() int64 {
	if s.cfg.MaxCycles > 0 {
		return s.cfg.MaxCycles
	}
	return defaultMaxCycles
}

//lab:hotpath
func (s *Simulator) inst(d int32) isa.Inst { return s.prog.Insts[s.tr.PC(int(d))] }

// ---------------------------------------------------------------- commit --

//lab:hotpath
func (s *Simulator) commitStage() int {
	committed := 0
	for s.robLen > 0 && committed < s.cfg.CommitWidth {
		d := s.rob[s.robHead]
		if s.state[d]&fIssued == 0 || s.completeAt[d] > s.now {
			break
		}
		fl := s.pcFlags[s.tr.PC(int(d))]
		if s.state[d]&fRSFreed == 0 {
			s.rsUsed--
			s.state[d] |= fRSFreed
		}
		if fl&isa.FlagStore != 0 {
			addr := s.tr.Addr(int(d))
			s.hier.StoreCommit(addr, s.now)
			s.memMainAcc++
			s.inflightSt[addr>>3]--
		}
		if fl&isa.FlagHasDst != 0 {
			s.physUsed--
		}
		s.robHead = (s.robHead + 1) % s.cfg.ROBSize
		s.robLen--
		s.res.Committed++
		committed++
	}
	return committed
}

// attributeCycle classifies this cycle for the CPI-stack breakdown and
// returns the category (the event engine attributes whole quiescent spans
// to the same category in one step).
//
//lab:hotpath
func (s *Simulator) attributeCycle(committed int) StallCategory {
	var cat StallCategory
	switch {
	case committed > 0:
		cat = CatCommit
	case s.robLen == 0:
		cat = CatFetch
	default:
		d := s.rob[s.robHead]
		if s.state[d]&fIssued != 0 {
			switch s.level[d] {
			case lvlMem:
				cat = CatMem
			case lvlL2:
				cat = CatL2
			default:
				cat = CatExec
			}
		} else {
			cat = CatExec
		}
	}
	s.res.TimeBreakdown[cat]++
	return cat
}

// ----------------------------------------------------------------- issue --

//lab:hotpath
func (s *Simulator) ready(prod int64) bool {
	if prod == trace.NoProducer {
		return true
	}
	return s.state[prod]&fIssued != 0 && s.completeAt[prod] <= s.now
}

// issueMain issues one ready main-thread instruction, charging the load or
// store port budgets. It returns false (without consuming anything) when the
// required port budget is exhausted or the MSHR file rejected the access;
// the caller keeps the instruction in the ready set and retries next cycle.
// mshrFull reports the rejection case.
//
//lab:hotpath
func (s *Simulator) issueMain(d int32, loadBudget, storeBudget *int) (issued, mshrFull bool) {
	pc := s.tr.PC(int(d))
	fl := s.pcFlags[pc]
	switch {
	case fl&isa.FlagLoad != 0:
		if *loadBudget == 0 {
			return false, false
		}
		addr := s.tr.Addr(int(d))
		if s.inflightSt[addr>>3] > 0 {
			// Store-to-load forwarding through the LSQ.
			s.completeAt[d] = s.now + int64(s.cfg.Hier.L1D.HitLatency)
			s.level[d] = lvlL1
			s.state[d] |= fFwd
			s.memMainAcc++
		} else {
			info, ok := s.hier.Load(addr, s.now, false, int64(pc))
			if !ok {
				return false, true // MSHR full; retry next cycle
			}
			s.memMainAcc++
			s.completeAt[d] = info.DoneAt
			switch info.Level {
			case cache.LvlMem:
				s.level[d] = lvlMem
			case cache.LvlL2:
				s.level[d] = lvlL2
			default:
				s.level[d] = lvlL1
			}
			if info.PrefHit != cache.NoPrefetcher {
				s.creditPrefetch(info.PrefHit, info.PrefInFlit)
			}
		}
		*loadBudget--
	case fl&isa.FlagStore != 0:
		if *storeBudget == 0 {
			return false, false
		}
		s.completeAt[d] = s.now + 1 // address generation
		*storeBudget--
	default:
		lat := int64(s.pcLats[pc])
		s.completeAt[d] = s.now + lat
		if fl&isa.FlagALU != 0 {
			s.aluMain++
		}
	}
	s.state[d] |= fIssued
	return true, false
}

// issuePctx runs the in-order p-thread issue pass with the bandwidth left
// over from the main thread, returning whether anything issued or freed and
// whether an MSHR rejection forces a cycle-by-cycle retry.
//
//lab:hotpath
func (s *Simulator) issuePctx(issueBudget, loadBudget *int) (active, mshrFull bool) {
	if s.liveCtxs == 0 {
		return false, false
	}
	for c := range s.ctxs {
		ctx := &s.ctxs[c]
		if !ctx.active {
			continue
		}
		if s.freePctxRS(ctx) {
			active = true
		}
	ctxIssue:
		for *issueBudget > 0 && ctx.issued < ctx.dispatched && ctx.issued < ctx.limit() {
			j := ctx.issued
			if !s.pdepReady(ctx, ctx.dep1[j]) || !s.pdepReady(ctx, ctx.dep2[j]) {
				break
			}
			in := ctx.pt.Body[j]
			if in.IsLoad() {
				if *loadBudget == 0 {
					break ctxIssue
				}
				if ctx.isTarget(j) {
					if _, ok := s.hier.PrefetchL2(ctx.addrs[j], s.now, ctx.spawnID); !ok {
						mshrFull = true
						break ctxIssue // MSHR full; retry next cycle
					}
					// The p-thread is finished with a target load once the
					// prefetch is launched.
					ctx.completeAt[j] = s.now + 1
				} else {
					info, ok := s.hier.Load(ctx.addrs[j], s.now, true, -1)
					if !ok {
						mshrFull = true
						break ctxIssue
					}
					ctx.completeAt[j] = info.DoneAt
				}
				s.memPthAcc++
				*loadBudget--
			} else {
				ctx.completeAt[j] = s.now + int64(in.ExecLatency())
				if in.IsALU() {
					s.aluPth++
				}
			}
			if s.ev != nil {
				s.ev.cal.push(ctx.completeAt[j], s.now, pctxMarker)
			}
			ctx.issued++
			*issueBudget--
			active = true
			s.res.PInstsExec++
			s.pthStats[ctx.statIdx].InstsExecuted++
		}
		s.maybeRelease(ctx)
	}
	return active, mshrFull
}

//lab:hotpath
func (s *Simulator) pdepReady(ctx *pctx, d depRef) bool {
	switch d.kind {
	case depNone:
		return true
	case depMain:
		return s.state[d.idx]&fIssued != 0 && s.completeAt[d.idx] <= s.now
	default: // depBody
		return ctx.completeAt[d.idx] > 0 && ctx.completeAt[d.idx] <= s.now
	}
}

//lab:hotpath
func (s *Simulator) freePctxRS(ctx *pctx) bool {
	freed := false
	for j := ctx.freed; j < ctx.issued; j++ {
		if ctx.completeAt[j] > s.now {
			break
		}
		s.rsUsed--
		if ctx.pt.Body[j].HasDst() {
			s.physUsed--
		}
		ctx.freed++
		freed = true
	}
	return freed
}

//lab:hotpath
func (s *Simulator) maybeRelease(ctx *pctx) {
	// All issuable body instructions (everything before an abort point) have
	// issued, completed and returned their resources: the context retires.
	// Instructions past the abort point never allocated resources (dispatch
	// skips them), so nothing further needs freeing.
	if ctx.issued == ctx.limit() && ctx.freed == ctx.issued {
		ctx.active = false
		s.liveCtxs--
	}
}

//lab:hotpath
func (s *Simulator) creditPrefetch(spawnID int32, partial bool) {
	stat := &s.pthStats[s.spawnStatic[spawnID]]
	if partial {
		s.res.PartCovered++
		stat.PartCovered++
	} else {
		s.res.FullCovered++
		stat.FullCovered++
	}
	if !s.spawnUseful[spawnID] {
		s.spawnUseful[spawnID] = true
		s.res.UsefulSpawns++
		stat.UsefulSpawns++
	}
}

// -------------------------------------------------------------- dispatch --

//lab:hotpath
func (s *Simulator) dispatchStage() bool {
	active := false
	budget := s.cfg.DispatchWidth
	for budget > 0 && s.fqLen > 0 {
		fe := s.fetchQ[s.fqHead]
		if fe.availAt > s.now {
			break
		}
		d := fe.dyn
		pc := s.tr.PC(int(d))
		fl := s.pcFlags[pc]
		if s.robLen >= s.cfg.ROBSize || s.rsUsed >= s.cfg.RSSize {
			break
		}
		if fl&isa.FlagHasDst != 0 && s.physUsed >= s.cfg.PhysRegs {
			break
		}
		// Spawn p-threads before the trigger's own register update: the
		// body re-executes the trigger computation from pre-trigger state.
		for ti := s.trigHead[pc]; ti >= 0; ti = s.trigNext[ti] {
			s.spawn(ti)
		}
		s.fqHead = (s.fqHead + 1) % s.cfg.FetchQCap
		s.fqLen--
		s.rob[(s.robHead+s.robLen)%s.cfg.ROBSize] = d
		s.robLen++
		s.state[d] |= fDispatched
		s.rsUsed++
		if fl&isa.FlagHasDst != 0 {
			s.physUsed++
			dst := s.prog.Insts[pc].Dst
			s.specRegs[dst] = s.tr.Val(int(d))
			s.lastWriter[dst] = int64(d)
		}
		if fl&isa.FlagStore != 0 {
			addr := s.tr.Addr(int(d))
			s.mem[addr>>3] = s.tr.Val(int(d))
			s.inflightSt[addr>>3]++
		}
		s.instsMain++
		if fl&isa.FlagBranch != 0 {
			s.branchesMain++
		}
		if s.ev != nil {
			// Subscribe to incomplete producers; an instruction with none
			// enters the ready queue directly (it has the largest dynamic
			// index in flight, so appending keeps the queue sorted).
			w1 := s.watch(s.tr.Prod1(int(d)), d)
			w2 := s.watch(s.tr.Prod2(int(d)), d)
			if !w1 && !w2 {
				s.ev.readyQ = append(s.ev.readyQ, d)
			}
		}
		budget--
		active = true
	}

	// P-thread dispatch with leftover rename bandwidth.
	if s.liveCtxs == 0 {
		return active
	}
	for c := range s.ctxs {
		ctx := &s.ctxs[c]
		if !ctx.active || budget == 0 {
			continue
		}
		for budget > 0 && ctx.dispatched < ctx.fetched && ctx.blockReadyAt <= s.now {
			j := ctx.dispatched
			if j >= ctx.limit() {
				// Aborted tail: consume without occupying resources.
				ctx.dispatched++
				active = true
				continue
			}
			if s.rsUsed >= s.cfg.RSSize {
				break
			}
			in := ctx.pt.Body[j]
			if in.HasDst() && s.physUsed >= s.cfg.PhysRegs {
				break
			}
			s.rsUsed++
			if in.HasDst() {
				s.physUsed++
			}
			ctx.dispatched++
			s.instsPth++
			budget--
			active = true
		}
	}
	return active
}

// spawn starts an instance of installed p-thread ti on a free context, if
// any.
//
//lab:hotpath
func (s *Simulator) spawn(ti int32) {
	pt := s.pthreads[ti]
	si := s.statOf[ti]
	stat := &s.pthStats[si]
	var ctx *pctx
	for c := range s.ctxs {
		if !s.ctxs[c].active {
			ctx = &s.ctxs[c]
			break
		}
	}
	if ctx == nil {
		s.res.DroppedSpawns++
		stat.Dropped++
		return
	}
	spawnID := int32(len(s.spawnUseful))
	s.spawnUseful = append(s.spawnUseful, false)
	s.spawnStatic = append(s.spawnStatic, si)
	ctx.init(pt, spawnID, si, s)
	s.liveCtxs++
	s.res.Spawns++
	stat.Spawns++
}

// ----------------------------------------------------------------- fetch --

//lab:hotpath
func (s *Simulator) fetchStage() bool {
	// Single i-cache port: an eligible p-thread block fetch displaces the
	// main thread this cycle (DDMT gives latency-critical p-threads fetch
	// priority; this contention is the overhead LOH models).
	if s.pthFetch() {
		return true
	}
	if s.fetchIdx >= s.n {
		return false
	}
	// A mispredicted branch blocks fetch until it resolves.
	resolved := false
	if s.stalledOnBranch >= 0 {
		d := s.stalledOnBranch
		if s.state[d]&fIssued != 0 && s.completeAt[d] <= s.now {
			s.fetchResumeAt = s.completeAt[d] + int64(s.cfg.RedirectPen)
			s.stalledOnBranch = -1
			resolved = true
		} else {
			return false
		}
	}
	if s.now < s.fetchResumeAt || s.fqLen >= s.cfg.FetchQCap {
		return resolved
	}
	// I-cache access for the block containing the next PC. Instruction
	// addresses live in their own space at 8 bytes per instruction.
	iaddr := int64(s.tr.PC(s.fetchIdx)) * 8
	done := s.hier.FetchBlock(iaddr, s.now, false)
	if done > s.now+int64(s.cfg.Hier.L1I.HitLatency) {
		s.fetchResumeAt = done // i-cache miss: stall until fill
		return true
	}
	width := s.cfg.FetchWidth
	if space := s.cfg.FetchQCap - s.fqLen; space < width {
		width = space
	}
	for w := 0; w < width && s.fetchIdx < s.n; w++ {
		d := int32(s.fetchIdx)
		pc := s.tr.PC(s.fetchIdx)
		fl := s.pcFlags[pc]
		s.fetchQ[(s.fqHead+s.fqLen)%s.cfg.FetchQCap] = fetchEnt{dyn: d, availAt: s.now + int64(s.cfg.FrontEndDepth)}
		s.fqLen++
		s.fetchIdx++
		if fl&isa.FlagBranch != 0 {
			taken := s.tr.Taken(int(d))
			pred, btbHit := s.bp.PredictAndUpdate(int64(pc), taken, int64(s.prog.Insts[pc].Target))
			if pred != taken {
				s.state[d] |= fMispred
				s.stalledOnBranch = d
				break
			}
			if taken {
				if !btbHit {
					s.fetchResumeAt = s.now + 2 // BTB miss bubble
				}
				break // redirect: stop fetching this cycle
			}
		} else if fl&isa.FlagJump != 0 {
			if !s.bp.PredictJump(int64(pc), int64(s.prog.Insts[pc].Target)) {
				s.fetchResumeAt = s.now + 2
			}
			break
		}
	}
	return true
}

// pthFetch performs at most one p-thread block fetch, returning whether the
// i-cache port was consumed.
//
//lab:hotpath
func (s *Simulator) pthFetch() bool {
	nctx := len(s.ctxs)
	if nctx == 0 || s.liveCtxs == 0 {
		return false
	}
	for off := 0; off < nctx; off++ {
		c := (s.rrCtx + off) % nctx
		ctx := &s.ctxs[c]
		if !ctx.active || ctx.fetched >= len(ctx.pt.Body) || ctx.nextBlockAt > s.now {
			continue
		}
		k := len(ctx.pt.Body) - ctx.fetched
		if k > s.cfg.FetchWidth {
			k = s.cfg.FetchWidth
		}
		iaddr := int64(ctx.pt.TriggerPC)*8 + int64(ctx.fetched)*8
		done := s.hier.FetchBlock(iaddr, s.now, true)
		ctx.fetched += k
		ctx.blockReadyAt = done + int64(s.cfg.PthFrontEnd)
		// Pacing: one instruction per cycle overall.
		ctx.nextBlockAt = s.now + int64(k)
		s.res.PInstsFetched += int64(k)
		s.rrCtx = (c + 1) % nctx
		return true
	}
	return false
}

// -------------------------------------------------------------- finalize --

func (s *Simulator) finalize() {
	s.res.Cycles = s.now
	s.res.DemandL2Misses = s.hier.DemandL2Misses
	s.res.CacheCounts = s.hier.Counts
	s.res.Bpred = s.bp.Stats
	s.res.Events = energy.Events{
		Cycles:          s.now,
		FetchBlocksMain: s.hier.Counts.L1IMain,
		FetchBlocksPth:  s.hier.Counts.L1IPth,
		InstsMain:       s.instsMain,
		InstsPth:        s.instsPth,
		ALUMain:         s.aluMain,
		ALUPth:          s.aluPth,
		MemMain:         s.memMainAcc,
		MemPth:          s.memPthAcc,
		L2Main:          s.hier.Counts.L2Main,
		L2Pth:           s.hier.Counts.L2Pth,
		BranchesMain:    s.branchesMain,
	}
	s.res.Energy = energy.Compute(s.cfg.Energy, s.res.Events)
	// Result must be byte-stable (the JSON reports and the determinism
	// guarantee depend on it): emit PerPThread in ascending ID order via an
	// allocation-free insertion sort (the set is tiny). With no p-threads
	// installed the field stays nil, exactly like a freshly built simulator.
	if len(s.pthStats) > 0 {
		out := append(s.perPBuf[:0], s.pthStats...)
		for i := 1; i < len(out); i++ {
			for j := i; j > 0 && out[j].ID < out[j-1].ID; j-- {
				out[j], out[j-1] = out[j-1], out[j]
			}
		}
		s.perPBuf = out
		s.res.PerPThread = out
	}
}

// Run is a convenience that builds and runs a simulator in one call.
func Run(cfg Config, tr *trace.Trace, pthreads []*PThread) (*Result, error) {
	return RunContext(context.Background(), cfg, tr, pthreads)
}

// RunContext is Run with cancellation: the simulation aborts with ctx.Err()
// as soon as ctx is done, even deep inside a long run.
func RunContext(ctx context.Context, cfg Config, tr *trace.Trace, pthreads []*PThread) (*Result, error) {
	s, err := NewSimulator(cfg, tr, pthreads)
	if err != nil {
		return nil, err
	}
	return s.RunContext(ctx)
}
