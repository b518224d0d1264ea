package cpu

import (
	"context"
	"fmt"
	"math"
	"math/bits"

	"repro/internal/bpred"
	"repro/internal/cache"
	"repro/internal/energy"
	"repro/internal/isa"
	"repro/internal/trace"
)

// In-flight instruction state flags (slot.state).
const (
	fIssued uint8 = 1 << iota
	fRSFreed
)

// Served-level encoding (slot.level).
const (
	lvlNone uint8 = iota
	lvlL1
	lvlL2
	lvlMem
)

// slot is one in-flight main-thread instruction. Fetch decodes dynamic
// instruction d once into ring entry d&slotMask, reading its trace row in
// one pass; dispatch, issue, commit, cycle attribution and the event
// engine's wakeups then read the slot, not the trace's chunked columns or
// the per-PC tables.
type slot struct {
	availAt    int64 // cycle the fetched instruction reaches rename
	completeAt int64 // completion cycle, once issued
	addr       int64 // effective address of a load or store
	val        int64 // value written, or stored by a store
	pc         int32
	prod1      int32 // source producers' dynamic indices (-1 none)
	prod2      int32
	wakeHead   int32 // event engine: consumers' wake list (index+1, 0 = empty)
	flags      uint8 // isa.Flag* predicates of the static instruction
	lat        uint8 // functional-unit latency
	state      uint8 // fIssued, fRSFreed
	level      uint8 // lvl*: the level that served a load
	waitCnt    uint8 // event engine: incomplete producers still awaited
}

// Simulator runs one program execution (a dynamic trace) through the timing
// model, optionally with a set of selected p-threads installed in the
// trigger table.
//
// The main thread's in-flight instructions live in one ring of slots, sized
// to the next power of two at or above ROBSize+FetchQCap. Fetch, dispatch
// and commit are in order, so three indices describe the whole window: the
// ROB holds [Result.Committed, dispIdx) and the fetch queue [dispIdx,
// fetchIdx). No per-trace-entry column exists: a dynamic index older than
// the commit point names a completed instruction whose slot may already
// hold a younger one, so every reader of a possibly committed index (a
// producer, a done-queue entry, a p-thread's main-thread operand) tests it
// against the commit point first.
//
// A Simulator is reusable: Reset reinitializes it for a new (config, trace,
// p-thread) triple while retaining every internal pool — the slot ring,
// in-flight store table, wakeup-node pool, calendar nodes, cache arrays,
// p-thread contexts — so steady-state reuse performs no allocation, and no
// part of Reset grows with the trace's length. A Result returned by
// Run/RunContext borrows simulator-owned memory and is valid only until the
// next Reset; callers that outlive the reuse cycle must Clone it.
//
// RunContext drives the pipeline stages with the event-driven engine:
// wakeup lists, ready and done queues and a calendar queue of completion
// events, with bulk skipping of quiescent cycles; a p-thread context joins
// an issue pass only when a completion, a wakeup or its own dispatch lets
// it act. RunReference drives the same stages with the per-cycle window
// rescan and all-context p-thread walk the event engine replaced; the two
// produce bit-identical Results.
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

	// In-flight window: slot ring and the fetch and dispatch points (the
	// commit point is res.Committed). fetchRow reads the trace at fetchIdx.
	slots           []slot
	slotMask        int32
	fetchIdx        int
	fetchRow        trace.Cursor
	dispIdx         int
	fetchResumeAt   int64
	stalledOnBranch int32 // dyn index of unresolved mispredicted branch, -1 none

	// Back end.
	rsUsed   int
	physUsed int

	// Dispatch-time architectural state (correct path).
	specRegs   [isa.NumRegs]int64
	lastWriter [isa.NumRegs]int64
	mem        []int64    // current only while p-threads are installed
	stores     storeTable // words of dispatched, uncommitted stores

	// Pre-execution. Triggers are a per-PC intrusive list over the installed
	// p-threads (trigHead[pc] -> first index, trigNext chains in install
	// order); statOf deduplicates stats for p-threads sharing an ID.
	pthreads []*PThread
	trigHead []int32
	trigNext []int32
	statOf   []int32
	pthStats []PThreadStats
	// Static per-body-instruction summaries of every installed p-thread,
	// back to back (p-thread k's start at bodyOff[k]).
	bodyOff []int32
	body    []bodyInst
	// P-thread contexts and the sets the per-cycle walks visit: live holds
	// the contexts running an instance; fetching and pending, subsets of
	// live, those with body instructions left to fetch and fetched ones
	// left to dispatch.
	ctxs     []pctx
	live     ctxSet
	fetching ctxSet
	pending  ctxSet
	rrCtx    int // round-robin fetch arbitration pointer
	// fetchAt bounds the earliest nextBlockAt in fetching from below;
	// before it every fetching context is pacing, so pthFetch has nothing
	// to do.
	fetchAt     int64
	spawnUseful []bool
	spawnStatic []int32 // spawnID -> stat index

	// Per-PC static summaries, rebuilt on Reset (the program is tens of
	// instructions): predicate bytes and functional-unit latencies, which
	// fetch copies into each slot.
	pcFlags []uint8
	pcLats  []uint8

	// Event engine state, set up by every Reset. RunReference clears ev so
	// the scan loop keeps no event bookkeeping; evMem keeps the allocated
	// structures for the next Reset.
	ev    *evState
	evMem *evState

	// Statistics.
	stats        SimStats
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

// slot returns dynamic instruction d's ring entry. d must be in flight:
// fetched and not yet committed.
//
//lab:hotpath
func (s *Simulator) slot(d int32) *slot { return &s.slots[d&s.slotMask] }

// committed reports whether dynamic instruction d has committed: it is
// complete, its reservation station is free, and its slot may hold a
// younger instruction.
//
//lab:hotpath
func (s *Simulator) committed(d int64) bool { return d < s.res.Committed }

// SimStats counts the simulator's own work in its latest run: the numbers
// that explain its throughput. They live outside Result, so Results stay
// byte-identical across engines; only the event engine delivers events,
// wakes contexts and keeps a ready queue, so those counters read 0 after
// RunReference.
type SimStats struct {
	VisitedCycles int64 // cycles simulated one by one (one issue pass each)
	SkippedCycles int64 // quiescent cycles jumped over in bulk
	Events        int64 // completion events delivered from the calendar
	CtxVisits     int64 // p-thread contexts visited by issue passes
	CtxWakeups    int64 // idle p-thread contexts made due for the next issue pass
	Spawns        int64 // p-thread instances started
	ReadyQMax     int64 // most main-thread instructions ready to issue at once
}

// Stats returns the work counters of the latest run (zero after Reset).
// VisitedCycles + SkippedCycles equals the run's Result.Cycles.
func (s *Simulator) Stats() SimStats { return s.stats }

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
// runs. Its work grows with the configuration's window, the program and its
// memory image, never with the trace's length. After one warm-up run per
// (program size, configuration) shape, Reset and the subsequent run
// allocate nothing. Any Result previously returned by this simulator is
// invalidated (see Simulator doc).
func (s *Simulator) Reset(cfg Config, tr *trace.Trace, pthreads []*PThread) error {
	if err := cfg.Validate(); err != nil {
		return err
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
	s.fetchRow = tr.Cursor()
	s.fetchRow.Next()
	s.dispIdx = 0
	s.fetchResumeAt = 0
	s.stalledOnBranch = -1
	// Fetch fills a slot completely, so the ring needs no clearing.
	ring := 1 << bits.Len(uint(cfg.ROBSize+cfg.FetchQCap-1))
	s.slots = grow(s.slots, ring)
	s.slotMask = int32(ring - 1)
	s.rsUsed, s.physUsed = 0, 0

	s.specRegs = [isa.NumRegs]int64{}
	for r := range s.lastWriter {
		s.lastWriter[r] = -1
	}
	// Only p-thread bodies read the memory image, so a run without
	// p-threads neither restores nor updates it.
	if len(pthreads) > 0 {
		s.mem = grow(s.mem, len(tr.Prog.InitMem))
		copy(s.mem, tr.Prog.InitMem)
	}
	s.stores.reset(cfg.ROBSize)

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
		s.ctxs[c].grow(maxBody)
	}
	s.live = s.live.reset(nctx)
	s.fetching = s.fetching.reset(nctx)
	s.pending = s.pending.reset(nctx)
	s.rrCtx = 0
	s.fetchAt = math.MaxInt64
	s.spawnUseful = s.spawnUseful[:0]
	s.spawnStatic = s.spawnStatic[:0]
	if s.spawnUseful == nil {
		s.spawnUseful = make([]bool, 0, 1024)
		s.spawnStatic = make([]int32, 0, 1024)
	}

	if s.evMem == nil {
		s.evMem = &evState{}
	}
	s.evMem.reset(cfg.ROBSize, nctx)
	s.ev = s.evMem

	s.stats = SimStats{}
	s.res = Result{}
	s.memMainAcc, s.memPthAcc = 0, 0
	s.aluMain, s.aluPth = 0, 0
	s.instsMain, s.instsPth = 0, 0
	s.branchesMain = 0
	return nil
}

// installPThreads rebuilds the trigger table, per-p-thread stat slots and
// the static body summaries every spawn shares. Per-PC dispatch order is the
// argument order (trigNext chains preserve it), and p-threads sharing an ID
// share one stat slot, both matching the previous map-based behaviour bit
// for bit.
func (s *Simulator) installPThreads(pthreads []*PThread) {
	s.pthreads = pthreads
	nInsts := len(s.prog.Insts)
	s.trigHead = grow(s.trigHead, nInsts)
	for i := range s.trigHead {
		s.trigHead[i] = -1
	}
	s.trigNext = grow(s.trigNext, len(pthreads))
	s.statOf = grow(s.statOf, len(pthreads))
	s.bodyOff = grow(s.bodyOff, len(pthreads))
	total := 0
	for k, pt := range pthreads {
		s.bodyOff[k] = int32(total)
		total += len(pt.Body)
	}
	s.body = grow(s.body, total)
	s.pthStats = s.pthStats[:0]
	for k, pt := range pthreads {
		body := s.body[s.bodyOff[k]:][:len(pt.Body)]
		var writer [isa.NumRegs]int32 // body index + 1 of the last writer, 0 = none
		for j, in := range pt.Body {
			body[j] = bodyInst{
				flags: in.Flags(),
				lat:   uint8(in.ExecLatency()),
				src1:  bodySrc(in.ReadsSrc1(), in.Src1, &writer),
				src2:  bodySrc(in.ReadsSrc2(), in.Src2, &writer),
			}
			if in.HasDst() {
				writer[in.Dst] = int32(j) + 1
			}
		}
		for _, j := range pt.Targets {
			body[j].flags |= flagTarget
		}
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
	return s.runEvent(ctx)
}

// noCommitLimit aborts a run with no forward progress (deadlock guard).
const noCommitLimit = 1_000_000

// done reports whether every instruction has committed (and so was
// fetched and dispatched).
//
//lab:hotpath
func (s *Simulator) done() bool { return s.res.Committed == int64(s.n) }

func (s *Simulator) maxCycles() int64 {
	if s.cfg.MaxCycles > 0 {
		return s.cfg.MaxCycles
	}
	return defaultMaxCycles
}

// ---------------------------------------------------------------- commit --

//lab:hotpath
func (s *Simulator) commitStage() int {
	committed := 0
	for s.res.Committed < int64(s.dispIdx) && committed < s.cfg.CommitWidth {
		sl := s.slot(int32(s.res.Committed))
		if sl.state&fIssued == 0 || sl.completeAt > s.now {
			break
		}
		if sl.state&fRSFreed == 0 {
			s.rsUsed--
		}
		if sl.flags&isa.FlagStore != 0 {
			s.hier.StoreCommit(sl.addr, s.now)
			s.memMainAcc++
			s.stores.remove(sl.addr >> 3)
		}
		if sl.flags&isa.FlagHasDst != 0 {
			s.physUsed--
		}
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
	case s.res.Committed == int64(s.dispIdx):
		cat = CatFetch
	default:
		if sl := s.slot(int32(s.res.Committed)); sl.state&fIssued != 0 {
			switch sl.level {
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

// ready reports whether a main-thread producer's value is available: no
// producer, a committed one, or an in-flight one that has issued and
// completed.
//
//lab:hotpath
func (s *Simulator) ready(prod int64) bool {
	return prod == trace.NoProducer || s.committed(prod) || s.complete(int32(prod))
}

// complete reports whether in-flight instruction d has issued and
// completed.
//
//lab:hotpath
func (s *Simulator) complete(d int32) bool {
	sl := s.slot(d)
	return sl.state&fIssued != 0 && sl.completeAt <= s.now
}

// issueMain issues one ready main-thread instruction, charging the load or
// store port budgets. It returns false (without consuming anything) when the
// required port budget is exhausted or the MSHR file rejected the access;
// the caller keeps the instruction in the ready set and retries next cycle.
// mshrFull reports the rejection case.
//
//lab:hotpath
func (s *Simulator) issueMain(sl *slot, loadBudget, storeBudget *int) (issued, mshrFull bool) {
	switch {
	case sl.flags&isa.FlagLoad != 0:
		if *loadBudget == 0 {
			return false, false
		}
		if s.stores.has(sl.addr >> 3) {
			// Store-to-load forwarding through the LSQ.
			sl.completeAt = s.now + int64(s.cfg.Hier.L1D.HitLatency)
			sl.level = lvlL1
			s.memMainAcc++
		} else {
			info, ok := s.hier.Load(sl.addr, s.now, false, int64(sl.pc))
			if !ok {
				return false, true // MSHR full; retry next cycle
			}
			s.memMainAcc++
			sl.completeAt = info.DoneAt
			switch info.Level {
			case cache.LvlMem:
				sl.level = lvlMem
			case cache.LvlL2:
				sl.level = lvlL2
			default:
				sl.level = lvlL1
			}
			if info.PrefHit != cache.NoPrefetcher {
				s.creditPrefetch(info.PrefHit, info.PrefInFlit)
			}
		}
		*loadBudget--
	case sl.flags&isa.FlagStore != 0:
		if *storeBudget == 0 {
			return false, false
		}
		sl.completeAt = s.now + 1 // address generation
		*storeBudget--
	default:
		sl.completeAt = s.now + int64(sl.lat)
		if sl.flags&isa.FlagALU != 0 {
			s.aluMain++
		}
	}
	sl.state |= fIssued
	return true, false
}

// issuePInst issues the in-order head of ctx, whose operands are ready,
// charging the load-port budget. Like issueMain it returns false, consuming
// nothing, when the load ports are exhausted or the MSHR file rejected the
// access (mshrFull); the head then retries next cycle.
//
//lab:hotpath
func (s *Simulator) issuePInst(ctx *pctx, loadBudget *int) (issued, mshrFull bool) {
	j := ctx.issued
	bi, p := ctx.body[j], &ctx.insts[j]
	if bi.flags&isa.FlagLoad != 0 {
		if *loadBudget == 0 {
			return false, false
		}
		if bi.flags&flagTarget != 0 {
			if _, ok := s.hier.PrefetchL2(p.addr, s.now, ctx.spawnID); !ok {
				return false, true
			}
			// The p-thread is finished with a target load once the
			// prefetch is launched.
			p.completeAt = s.now + 1
		} else {
			info, ok := s.hier.Load(p.addr, s.now, true, -1)
			if !ok {
				return false, true
			}
			p.completeAt = info.DoneAt
		}
		s.memPthAcc++
		*loadBudget--
	} else {
		p.completeAt = s.now + int64(bi.lat)
		if bi.flags&isa.FlagALU != 0 {
			s.aluPth++
		}
	}
	ctx.issued++
	s.res.PInstsExec++
	s.pthStats[ctx.statIdx].InstsExecuted++
	return true, false
}

//lab:hotpath
func (s *Simulator) pdepReady(ctx *pctx, d depRef) bool {
	if d.kind == depBody {
		at := ctx.insts[d.idx].completeAt
		return at > 0 && at <= s.now
	}
	return d.kind == depNone || s.committed(int64(d.idx)) || s.complete(d.idx)
}

// freePctxRS returns the reservation stations and physical registers of
// ctx's completed instructions, in order, reporting whether any were freed.
//
//lab:hotpath
func (s *Simulator) freePctxRS(ctx *pctx) bool {
	freed := false
	for j := ctx.freed; j < ctx.issued; j++ {
		if ctx.insts[j].completeAt > s.now {
			break
		}
		s.rsUsed--
		if ctx.body[j].flags&isa.FlagHasDst != 0 {
			s.physUsed--
		}
		ctx.freed++
		freed = true
	}
	return freed
}

//lab:hotpath
func (s *Simulator) maybeRelease(c int, ctx *pctx) {
	// All issuable body instructions (everything before an abort point) have
	// issued, completed and returned their resources: the context retires.
	// Instructions past the abort point never allocated resources (dispatch
	// skips them), so nothing further needs freeing.
	if ctx.issued == ctx.limit() && ctx.freed == ctx.issued {
		s.live.del(c)
		s.fetching.del(c)
		s.pending.del(c)
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
	for budget > 0 && s.dispIdx < s.fetchIdx {
		d := int32(s.dispIdx)
		sl := s.slot(d)
		if sl.availAt > s.now {
			break
		}
		fl := sl.flags
		if int64(s.dispIdx)-s.res.Committed >= int64(s.cfg.ROBSize) || s.rsUsed >= s.cfg.RSSize {
			break
		}
		if fl&isa.FlagHasDst != 0 && s.physUsed >= s.cfg.PhysRegs {
			break
		}
		// Spawn p-threads before the trigger's own register update: the
		// body re-executes the trigger computation from pre-trigger state.
		for ti := s.trigHead[sl.pc]; ti >= 0; ti = s.trigNext[ti] {
			s.spawn(ti)
		}
		s.dispIdx++
		s.rsUsed++
		if fl&isa.FlagHasDst != 0 {
			s.physUsed++
			dst := s.prog.Insts[sl.pc].Dst
			s.specRegs[dst] = sl.val
			s.lastWriter[dst] = int64(d)
		}
		if fl&isa.FlagStore != 0 {
			if len(s.pthreads) > 0 {
				s.mem[sl.addr>>3] = sl.val
			}
			s.stores.add(sl.addr >> 3)
		}
		s.instsMain++
		if fl&isa.FlagBranch != 0 {
			s.branchesMain++
		}
		if s.ev != nil {
			// Subscribe to incomplete producers; an instruction with none
			// enters the ready queue directly (it has the largest dynamic
			// index in flight, so appending keeps the queue sorted).
			s.watch(sl.prod1, d, sl)
			s.watch(sl.prod2, d, sl)
			if sl.waitCnt == 0 {
				s.ev.readyQ = append(s.ev.readyQ, d)
			}
		}
		budget--
		active = true
	}

	// P-thread dispatch with leftover rename bandwidth, in context order.
	for w, word := range s.pending {
		for ; word != 0 && budget > 0; word &= word - 1 {
			if s.dispatchCtx(w<<6|bits.TrailingZeros64(word), &budget) {
				active = true
			}
		}
	}
	return active
}

// dispatchCtx renames pending context c's fetched instructions, in order,
// while its block has arrived and budget and resources last, returning
// whether it consumed any.
//
//lab:hotpath
func (s *Simulator) dispatchCtx(c int, budget *int) bool {
	ctx := &s.ctxs[c]
	if ctx.blockReadyAt > s.now {
		return false
	}
	active := false
	for *budget > 0 && ctx.dispatched < ctx.fetched {
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
		hasDst := ctx.body[j].flags&isa.FlagHasDst != 0
		if hasDst && s.physUsed >= s.cfg.PhysRegs {
			break
		}
		s.rsUsed++
		if hasDst {
			s.physUsed++
		}
		ctx.dispatched++
		if j == ctx.issued && s.ev != nil {
			s.wakeCtx(c) // the in-order head arrived: it can issue next cycle
		}
		s.instsPth++
		*budget--
		active = true
	}
	if ctx.dispatched == ctx.fetched {
		s.pending.del(c)
	}
	return active
}

// spawn starts an instance of installed p-thread ti on a free context, if
// any.
//
//lab:hotpath
func (s *Simulator) spawn(ti int32) {
	si := s.statOf[ti]
	stat := &s.pthStats[si]
	c := s.live.free(len(s.ctxs))
	if c < 0 { // every context is busy
		s.res.DroppedSpawns++
		stat.Dropped++
		return
	}
	spawnID := int32(len(s.spawnUseful))
	s.spawnUseful = append(s.spawnUseful, false)
	s.spawnStatic = append(s.spawnStatic, si)
	s.ctxs[c].init(ti, spawnID, s)
	s.live.add(c)
	s.fetching.add(c)
	s.fetchAt = s.now // its first block is due at once
	if s.ev != nil && s.ctxs[c].limit() == 0 {
		s.wakeCtx(c) // aborted at its first instruction: releases next cycle
	}
	s.stats.Spawns++
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
		// The branch is the last instruction fetched, so while fetch waits
		// on it its slot is never refilled, committed or not.
		if sl := s.slot(s.stalledOnBranch); sl.state&fIssued != 0 && sl.completeAt <= s.now {
			s.fetchResumeAt = sl.completeAt + int64(s.cfg.RedirectPen)
			s.stalledOnBranch = -1
			resolved = true
		} else {
			return false
		}
	}
	space := s.cfg.FetchQCap - (s.fetchIdx - s.dispIdx)
	if s.now < s.fetchResumeAt || space <= 0 {
		return resolved
	}
	// I-cache access for the block containing the next PC. Instruction
	// addresses live in their own space at 8 bytes per instruction.
	row := &s.fetchRow
	iaddr := int64(row.PC()) * 8
	done := s.hier.FetchBlock(iaddr, s.now, false)
	if done > s.now+int64(s.cfg.Hier.L1I.HitLatency) {
		s.fetchResumeAt = done // i-cache miss: stall until fill
		return true
	}
	width := min(s.cfg.FetchWidth, space)
	availAt := s.now + int64(s.cfg.FrontEndDepth)
	for w := 0; w < width && s.fetchIdx < s.n; w++ {
		// Decode once: the slot carries everything the later stages read.
		d := int32(s.fetchIdx)
		pc := row.PC()
		fl := s.pcFlags[pc]
		*s.slot(d) = slot{
			availAt: availAt,
			addr:    row.Addr(),
			val:     row.Val(),
			pc:      pc,
			prod1:   int32(row.Prod1()),
			prod2:   int32(row.Prod2()),
			flags:   fl,
			lat:     s.pcLats[pc],
		}
		taken := row.Taken()
		row.Next()
		s.fetchIdx++
		if fl&isa.FlagBranch != 0 {
			pred, btbHit := s.bp.PredictAndUpdate(int64(pc), taken, int64(s.prog.Insts[pc].Target))
			if pred != taken {
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
	if s.now < s.fetchAt {
		return false
	}
	// Round robin over the contexts still fetching: [rrCtx, end), then
	// [0, rrCtx). When none is due, the earliest pacing deadline becomes
	// fetchAt.
	next := int64(math.MaxInt64)
	for pass, from, to := 0, s.rrCtx, len(s.ctxs); pass < 2; pass, from, to = pass+1, 0, s.rrCtx {
		for c := s.fetching.next(from); c >= 0 && c < to; c = s.fetching.next(c + 1) {
			if t := s.ctxs[c].nextBlockAt; t > s.now {
				next = min(next, t)
				continue
			}
			s.pthFetchCtx(c)
			return true
		}
	}
	s.fetchAt = next
	return false
}

// pthFetchCtx fetches context c's next body block, which is due.
//
//lab:hotpath
func (s *Simulator) pthFetchCtx(c int) {
	ctx := &s.ctxs[c]
	k := len(ctx.pt.Body) - ctx.fetched
	if k > s.cfg.FetchWidth {
		k = s.cfg.FetchWidth
	}
	iaddr := int64(ctx.pt.TriggerPC)*8 + int64(ctx.fetched)*8
	done := s.hier.FetchBlock(iaddr, s.now, true)
	ctx.fetched += k
	if ctx.fetched == len(ctx.pt.Body) {
		s.fetching.del(c)
	}
	s.pending.add(c)
	ctx.blockReadyAt = done + int64(s.cfg.PthFrontEnd)
	// Pacing: one instruction per cycle overall.
	ctx.nextBlockAt = s.now + int64(k)
	s.res.PInstsFetched += int64(k)
	s.rrCtx = (c + 1) % len(s.ctxs)
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
