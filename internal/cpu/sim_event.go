package cpu

import (
	"context"
	"fmt"
	"math"
	"math/bits"
)

// wakeNode is one entry in a producer's wakeup list: a consumer waiting for
// the producer's completion, a main-thread dynamic index or a p-thread
// context encoded by ctxEvent. Nodes live in a preallocated pool and are
// chained through index+1 links (0 terminates), so registering and waking
// consumers never allocates in steady state.
type wakeNode struct {
	consumer int32
	next     int32 // index+1 into the pool, 0 = end of list
}

// ctxEvent encodes p-thread context c as a negative calendar payload or
// wakeup-list consumer; main-thread dynamic indices are >= 0.
func ctxEvent(c int) int32 { return -int32(c) - 1 }

// evState is the event-driven engine's working state. The scheduler replaces
// the per-cycle window rescan with three structures:
//
//   - wakeup lists: every in-flight producer keeps the consumers waiting on
//     it, headed in its slot; its completion event walks the list and drops
//     each consumer's pending-operand count (also in the slot), or wakes a
//     waiting p-thread context,
//   - ready and done queues: consumers with no pending operands, kept in ROB
//     (dynamic-index) order so issue priority matches the reference scan,
//     and completed instructions whose reservation station the issue pass
//     returns,
//   - a calendar queue: every issued instruction schedules its completion,
//     so the engine knows the next cycle anything can happen and skips
//     quiescent spans in one step. A p-thread completion names its context
//     (ctxEvent), which it wakes.
type evState struct {
	cal    calendar
	popBuf []int32

	nodes    []wakeNode
	freeNode int32 // free-list head (index+1, 0 = empty)

	readyQ []int32 // dispatched, operands complete, not yet issued; ascending dyn
	doneQ  []int32 // completed, reservation station maybe not yet freed

	// due holds the p-thread contexts the next issue pass visits: those
	// with a completion to free or an in-order head that may issue. The
	// rest wait on an event that will wake them (see wakeCtx).
	due ctxSet

	nextPoll int64 // next context-cancellation poll cycle
}

// reset prepares the engine state for a run, keeping every queue's and the
// node pool's storage, so steady-state simulator reuse never allocates.
func (ev *evState) reset(robSize, nctx int) {
	if ev.popBuf == nil {
		ev.popBuf = make([]int32, 0, 64)
		ev.nodes = make([]wakeNode, 0, 2*robSize)
		ev.readyQ = make([]int32, 0, robSize)
		ev.doneQ = make([]int32, 0, robSize)
	}
	ev.cal.reset()
	ev.popBuf = ev.popBuf[:0]
	ev.nodes = ev.nodes[:0]
	ev.freeNode = 0
	ev.readyQ = ev.readyQ[:0]
	ev.doneQ = ev.doneQ[:0]
	ev.due = ev.due.reset(nctx)
	ev.nextPoll = 0
}

// runEvent is the event-driven engine loop. Cycle-for-cycle it performs the
// same stage sequence as RunReference; additionally, when a cycle turns out
// to be completely inert it consults the calendar and every time-based
// wakeup condition for the earliest cycle anything can happen and jumps
// there, attributing the skipped span to the same CPI-stack category in
// bulk.
//
//lab:hotpath
func (s *Simulator) runEvent(ctx context.Context) (*Result, error) {
	maxCycles := s.maxCycles()
	lastCommit := int64(0)
	ev := s.ev
	for !s.done() {
		if s.now >= ev.nextPoll {
			select {
			case <-ctx.Done():
				return nil, ctx.Err()
			default:
			}
			ev.nextPoll = s.now + ctxCheckMask + 1
		}
		if s.now >= maxCycles {
			return nil, fmt.Errorf("cpu: exceeded %d cycles (deadlock?)", maxCycles)
		}
		if s.now-lastCommit > noCommitLimit {
			return nil, fmt.Errorf("cpu: no commit in 1M cycles at cycle %d (deadlock): %s", s.now, s.debugState())
		}
		s.stats.VisitedCycles++
		s.processEvents()
		committed := s.commitStage()
		if committed > 0 {
			lastCommit = s.now
		}
		cat := s.attributeCycle(committed)
		issued := s.issueStageEvent()
		dispatched := s.dispatchStage()
		fetched := s.fetchStage()
		if committed == 0 && !issued && !dispatched && !fetched {
			// Inert cycle: nothing can happen until the next completion
			// event or time-based wakeup. Jump there, attributing the
			// skipped cycles to the same stall category (the machine state
			// the attribution reads is frozen across the span).
			next := s.nextWakeAt()
			if lim := lastCommit + noCommitLimit + 1; next > lim {
				next = lim
			}
			if next > maxCycles {
				next = maxCycles
			}
			if next > s.now+1 {
				s.res.TimeBreakdown[cat] += next - s.now - 1
				s.stats.SkippedCycles += next - s.now - 1
				s.now = next
				continue
			}
		}
		s.now++
	}
	s.finalize()
	return &s.res, nil
}

// processEvents delivers every completion due this cycle: main-thread
// completions enter the done queue and walk their wakeup lists, moving
// now-ready consumers into the ready queue and waking waiting p-thread
// contexts; a p-thread completion wakes its own context, whose issue pass
// frees the instruction and re-examines its head. A cycle where the events
// produce no pipeline activity is still skippable: every consequence of a
// completion (station free, commit, wakeup issue) registers as activity in
// the stage that performs it.
//
//lab:hotpath
func (s *Simulator) processEvents() {
	ev := s.ev
	ev.popBuf = ev.cal.pop(s.now, ev.popBuf[:0])
	if len(ev.popBuf) == 0 {
		return
	}
	s.stats.Events += int64(len(ev.popBuf))
	for _, d := range ev.popBuf {
		if d < 0 {
			s.wakeCtx(int(-d - 1))
			continue
		}
		ev.doneQ = append(ev.doneQ, d)
		sl := s.slot(d)
		n := sl.wakeHead
		sl.wakeHead = 0
		for n != 0 {
			node := &ev.nodes[n-1]
			c, nx := node.consumer, node.next
			node.next = ev.freeNode
			ev.freeNode = n
			if c < 0 {
				s.wakeCtx(int(-c - 1))
			} else {
				cs := s.slot(c)
				if cs.waitCnt--; cs.waitCnt == 0 {
					s.insertReady(c)
				}
			}
			n = nx
		}
	}
}

// wakeCtx makes p-thread context c due for the next issue pass.
//
//lab:hotpath
func (s *Simulator) wakeCtx(c int) {
	if due := s.ev.due; !due.has(c) {
		due.add(c)
		s.stats.CtxWakeups++
	}
}

// watch subscribes consumer d, whose slot is sl, to producer prod's
// completion unless the operand is already available (see ready).
//
//lab:hotpath
func (s *Simulator) watch(prod int32, d int32, sl *slot) {
	if !s.ready(int64(prod)) {
		s.subscribe(prod, d)
		sl.waitCnt++
	}
}

// subscribe adds consumer to in-flight, incomplete main-thread producer
// prod's wakeup list.
//
//lab:hotpath
func (s *Simulator) subscribe(prod, consumer int32) {
	ev := s.ev
	var idx int32
	if ev.freeNode != 0 {
		idx = ev.freeNode
		ev.freeNode = ev.nodes[idx-1].next
	} else {
		ev.nodes = append(ev.nodes, wakeNode{})
		idx = int32(len(ev.nodes))
	}
	sl := s.slot(prod)
	ev.nodes[idx-1] = wakeNode{consumer: consumer, next: sl.wakeHead}
	sl.wakeHead = idx
}

// insertReady places d into the ready queue, kept in ascending dynamic
// order (issue priority = ROB order, matching the reference scan). A woken
// consumer is usually among the youngest in flight, so the insertion point
// is searched from the tail.
//
//lab:hotpath
func (s *Simulator) insertReady(d int32) {
	q := append(s.ev.readyQ, d)
	i := len(q) - 1
	for ; i > 0 && q[i-1] > d; i-- {
		q[i] = q[i-1]
	}
	q[i] = d
	s.ev.readyQ = q
}

// issueStageEvent performs one cycle of issue under the event engine,
// equivalent to the reference scan's oldest-first ROB walk but touching
// only instructions that can make progress: an instruction still executing
// is in neither queue. The ready queue issues oldest first until the issue
// budget runs out. The reference walk frees each completed instruction's
// station as it passes it and stops where the budget ran out, so the done
// queue returns the stations of the entries older than the last issued
// instruction, or of all of them when the budget lasted; the rest wait for
// a later pass. Returns whether anything issued, freed, or hit an MSHR
// rejection (a rejection forces cycle-by-cycle retry, because every retry
// re-probes the stateful hierarchy exactly as the reference engine does).
//
//lab:hotpath
func (s *Simulator) issueStageEvent() bool {
	ev := s.ev
	active := false
	issueBudget := s.cfg.IssueWidth
	loadBudget := s.cfg.LoadPorts
	storeBudget := s.cfg.StorePorts

	mshrFull := false
	rq := ev.readyQ
	s.stats.ReadyQMax = max(s.stats.ReadyQMax, int64(len(rq)))
	cutoff := int32(math.MaxInt32)
	ri, rw := 0, 0
	for ; ri < len(rq) && issueBudget > 0; ri++ {
		d := rq[ri]
		sl := s.slot(d)
		issued, full := s.issueMain(sl, &loadBudget, &storeBudget)
		if !issued {
			// Port-starved or MSHR-rejected: retried next cycle.
			mshrFull = mshrFull || full
			rq[rw] = d
			rw++
			continue
		}
		active = true
		ev.cal.push(sl.completeAt, s.now, d)
		if issueBudget--; issueBudget == 0 {
			cutoff = d
		}
	}
	if rw < ri {
		ev.readyQ = rq[:rw+copy(rq[rw:], rq[ri:])]
	}

	dq, kept := ev.doneQ, 0
	for _, d := range dq {
		switch {
		case d > cutoff:
			dq[kept] = d
			kept++
		case !s.committed(int64(d)): // else it returned its station at commit
			s.rsUsed--
			s.slot(d).state |= fRSFreed
			active = true
		}
	}
	ev.doneQ = dq[:kept]

	pctxActive, pctxFull := s.issuePctxEvent(&issueBudget, &loadBudget)
	return active || pctxActive || mshrFull || pctxFull
}

// issuePctxEvent is the event engine's p-thread issue pass: issuePctx's
// in-order issue from each context's head with the leftover bandwidth, but
// visiting only the due contexts, in index order, so bandwidth is shared
// exactly as in the all-context walk. A visited context leaves the due set
// unless its head stalled on the issue budget, a load port or the MSHR file
// (it retries next cycle, like the ready queue); a head stalled on an
// operand waits for the producer's completion to wake it — a body
// producer's own completion event, or a main-thread producer's wakeup list
// — and a head not yet dispatched waits for dispatch to wake it. Returns
// whether anything issued or freed and whether an MSHR rejection forces a
// cycle-by-cycle retry.
//
//lab:hotpath
func (s *Simulator) issuePctxEvent(issueBudget, loadBudget *int) (active, mshrFull bool) {
	for w, word := range s.ev.due {
		for ; word != 0; word &= word - 1 {
			a, full := s.issueDueCtx(w<<6|bits.TrailingZeros64(word), issueBudget, loadBudget)
			active = active || a
			mshrFull = mshrFull || full
		}
	}
	return active, mshrFull
}

// issueDueCtx is issuePctxEvent's visit of due context c.
//
//lab:hotpath
func (s *Simulator) issueDueCtx(c int, issueBudget, loadBudget *int) (active, mshrFull bool) {
	ev := s.ev
	ctx := &s.ctxs[c]
	s.stats.CtxVisits++
	active = s.freePctxRS(ctx)
	retry := false
	for ctx.issued < ctx.dispatched && ctx.issued < ctx.limit() {
		if *issueBudget == 0 {
			retry = true
			break
		}
		p := &ctx.insts[ctx.issued]
		if !s.pdepReady(ctx, p.dep1) {
			s.waitFor(c, ctx, p.dep1)
			break
		}
		if !s.pdepReady(ctx, p.dep2) {
			s.waitFor(c, ctx, p.dep2)
			break
		}
		issued, full := s.issuePInst(ctx, loadBudget)
		if !issued {
			retry = true
			mshrFull = full
			break
		}
		ev.cal.push(p.completeAt, s.now, ctxEvent(c))
		*issueBudget--
		active = true
	}
	if !retry {
		ev.due.del(c)
	}
	s.maybeRelease(c, ctx)
	return active, mshrFull
}

// waitFor parks context c, whose head waits on operand d. When d is an
// in-flight main-thread producer, c joins its wakeup list (once per
// producer); a body producer's completion event wakes c on its own.
//
//lab:hotpath
func (s *Simulator) waitFor(c int, ctx *pctx, d depRef) {
	if d.kind == depMain && ctx.waitMain != d.idx {
		s.subscribe(d.idx, ctxEvent(c))
		ctx.waitMain = d.idx
	}
}

// nextWakeAt returns the earliest future cycle at which any pipeline agent
// can act: the next completion event, the fetch queue head becoming
// dispatchable, fetch resuming after a redirect or i-cache miss, or a
// p-thread block becoming fetchable/dispatchable. Resource-blocked agents
// (ROB/RS/registers full, MSHR-rejected loads) are unblocked only by one of
// these events, so the minimum is exact. No p-thread context is due after
// an inert cycle: a context stays due only when its head stalled on issue
// bandwidth, a port or the MSHR file, and dispatch wakes one only while
// renaming, all of which make the cycle active.
//
//lab:hotpath
func (s *Simulator) nextWakeAt() int64 {
	next := s.ev.cal.nextAt(s.now)
	if s.dispIdx < s.fetchIdx {
		if t := s.slot(int32(s.dispIdx)).availAt; t > s.now && t < next {
			next = t
		}
	}
	if s.fetchIdx < s.n && s.stalledOnBranch < 0 && s.fetchResumeAt > s.now && s.fetchResumeAt < next {
		next = s.fetchResumeAt
	}
	// An inert cycle's pthFetch found no block due, leaving fetchAt at the
	// earliest pacing deadline.
	if s.fetchAt < next {
		next = s.fetchAt
	}
	for w, word := range s.pending {
		for ; word != 0; word &= word - 1 {
			if t := s.ctxs[w<<6|bits.TrailingZeros64(word)].blockReadyAt; t > s.now && t < next {
				next = t
			}
		}
	}
	return next
}
