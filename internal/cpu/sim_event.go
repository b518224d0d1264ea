package cpu

import (
	"context"
	"fmt"

	"repro/internal/trace"
)

// wakeNode is one entry in a producer's wakeup list: a consumer waiting for
// the producer's completion. Nodes live in a preallocated pool and are
// chained through index+1 links (0 terminates), so registering and waking
// consumers never allocates in steady state.
type wakeNode struct {
	consumer int32
	next     int32 // index+1 into the pool, 0 = end of list
}

// evState is the event-driven engine's working state. The scheduler replaces
// the per-cycle window rescan with three structures:
//
//   - wakeup lists: every in-flight producer keeps the consumers waiting on
//     it; its completion event walks the list and drops each consumer's
//     pending-operand count,
//   - a ready queue: consumers with no pending operands, kept in ROB
//     (dynamic-index) order so issue priority matches the reference scan,
//   - a calendar queue: every issued instruction schedules its completion,
//     so the engine knows the next cycle anything can happen and skips
//     quiescent spans in one step.
type evState struct {
	cal    calendar
	popBuf []int32

	wakeHead []int32 // per dyn index: producer's wake-list head (index+1, 0 = empty)
	waitCnt  []uint8 // per dyn index: incomplete producers the consumer waits on
	nodes    []wakeNode
	freeNode int32 // free-list head (index+1, 0 = empty)

	readyQ    []int32 // dispatched, operands complete, not yet issued; ascending dyn
	unfreedQ  []int32 // issued, reservation station not yet freed; ascending dyn
	unfreedNx []int32 // scratch for the next cycle's unfreedQ
	freeable  int     // unfreedQ entries whose completion event has fired

	nextPoll int64 // next context-cancellation poll cycle
}

// reset prepares the engine state for a run over n dynamic instructions,
// reusing (and zeroing) the per-entry columns and keeping every queue's and
// the node pool's storage, so steady-state simulator reuse never allocates.
func (ev *evState) reset(n, robSize int) {
	if ev.popBuf == nil {
		ev.popBuf = make([]int32, 0, 64)
		ev.nodes = make([]wakeNode, 0, 2*robSize)
		ev.readyQ = make([]int32, 0, robSize)
		ev.unfreedQ = make([]int32, 0, robSize)
		ev.unfreedNx = make([]int32, 0, robSize)
	}
	ev.cal.reset()
	ev.popBuf = ev.popBuf[:0]
	ev.wakeHead = grow(ev.wakeHead, n)
	for i := range ev.wakeHead {
		ev.wakeHead[i] = 0
	}
	ev.waitCnt = grow(ev.waitCnt, n)
	for i := range ev.waitCnt {
		ev.waitCnt[i] = 0
	}
	ev.nodes = ev.nodes[:0]
	ev.freeNode = 0
	ev.readyQ = ev.readyQ[:0]
	ev.unfreedQ = ev.unfreedQ[:0]
	ev.unfreedNx = ev.unfreedNx[:0]
	ev.freeable = 0
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
// completions mark their reservation station freeable and walk their wakeup
// lists, moving now-ready consumers into the ready queue; p-thread markers
// only assert that the per-context scan has work. A cycle where the events
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
	for _, d := range ev.popBuf {
		if d < 0 {
			continue // p-thread body completion: issuePctx picks it up
		}
		ev.freeable++
		n := ev.wakeHead[d]
		ev.wakeHead[d] = 0
		for n != 0 {
			node := &ev.nodes[n-1]
			c, nx := node.consumer, node.next
			node.next = ev.freeNode
			ev.freeNode = n
			if ev.waitCnt[c]--; ev.waitCnt[c] == 0 {
				s.insertReady(c)
			}
			n = nx
		}
	}
}

// watch subscribes consumer d to producer prod's completion. It returns
// false without subscribing when the operand is already available (no
// producer, or the producer has issued and completed).
//
//lab:hotpath
func (s *Simulator) watch(prod int64, d int32) bool {
	if prod == trace.NoProducer {
		return false
	}
	if s.state[prod]&fIssued != 0 && s.completeAt[prod] <= s.now {
		return false
	}
	ev := s.ev
	var idx int32
	if ev.freeNode != 0 {
		idx = ev.freeNode
		ev.freeNode = ev.nodes[idx-1].next
	} else {
		ev.nodes = append(ev.nodes, wakeNode{})
		idx = int32(len(ev.nodes))
	}
	ev.nodes[idx-1] = wakeNode{consumer: d, next: ev.wakeHead[prod]}
	ev.wakeHead[prod] = idx
	ev.waitCnt[d]++
	return true
}

// insertSorted places d into a queue kept in ascending dynamic order (issue
// priority = ROB order, matching the reference scan).
//
//lab:hotpath
func insertSorted(q []int32, d int32) []int32 {
	lo, hi := 0, len(q)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if q[mid] < d {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	q = append(q, 0)
	copy(q[lo+1:], q[lo:])
	q[lo] = d
	return q
}

//lab:hotpath
func (s *Simulator) insertReady(d int32) { s.ev.readyQ = insertSorted(s.ev.readyQ, d) }

//lab:hotpath
func (s *Simulator) insertUnfreed(d int32) { s.ev.unfreedQ = insertSorted(s.ev.unfreedQ, d) }

// issueStageEvent performs one cycle of issue under the event engine: a
// merged in-order walk of the unfreed (issued, station not yet returned) and
// ready queues, equivalent to the reference scan's oldest-first ROB walk but
// touching only instructions that can actually make progress. Returns
// whether anything issued, freed, or hit an MSHR rejection (a rejection
// forces cycle-by-cycle retry, because every retry re-probes the stateful
// hierarchy exactly as the reference engine does).
//
//lab:hotpath
func (s *Simulator) issueStageEvent() bool {
	ev := s.ev
	active := false
	issueBudget := s.cfg.IssueWidth
	loadBudget := s.cfg.LoadPorts
	storeBudget := s.cfg.StorePorts

	mshrFull := false
	switch {
	case ev.freeable == 0 && len(ev.readyQ) == 0:
		// Nothing to free, nothing to issue: the whole main-thread walk is
		// a no-op (the reference scan would visit only incomplete or
		// waiting entries, touching none of them).
	case ev.freeable == 0:
		// No station can free this cycle, so the unfreed queue keeps its
		// order untouched; walk only the ready queue, oldest first.
		rq := ev.readyQ
		ri, rw := 0, 0
		for issueBudget > 0 && ri < len(rq) {
			d := rq[ri]
			issued, full := s.issueMain(d, &loadBudget, &storeBudget)
			if !issued {
				// Port-starved or MSHR-rejected: retried next cycle.
				mshrFull = mshrFull || full
				rq[rw] = d
				rw++
				ri++
				continue
			}
			issueBudget--
			active = true
			ev.cal.push(s.completeAt[d], s.now, d)
			s.insertUnfreed(d)
			ri++
		}
		rw += copy(rq[rw:], rq[ri:])
		ev.readyQ = rq[:rw]
	default:
		// Stations can free: merge the unfreed and ready walks in ROB
		// (dynamic-index) order, exactly like the reference scan's single
		// oldest-first pass over the window.
		uq, rq := ev.unfreedQ, ev.readyQ
		nx := ev.unfreedNx[:0]
		ui, ri, rw := 0, 0, 0
		for issueBudget > 0 && (ui < len(uq) || ri < len(rq)) {
			if ui < len(uq) && (ri >= len(rq) || uq[ui] < rq[ri]) {
				d := uq[ui]
				ui++
				st := s.state[d]
				if st&fRSFreed != 0 {
					ev.freeable-- // station already freed at commit; drop
					continue
				}
				if s.completeAt[d] <= s.now {
					s.rsUsed--
					s.state[d] |= fRSFreed
					ev.freeable--
					active = true
					continue
				}
				nx = append(nx, d) // still executing; keep
				continue
			}
			d := rq[ri]
			issued, full := s.issueMain(d, &loadBudget, &storeBudget)
			if !issued {
				// Port-starved or MSHR-rejected: retried next cycle.
				mshrFull = mshrFull || full
				rq[rw] = d
				rw++
				ri++
				continue
			}
			issueBudget--
			active = true
			ev.cal.push(s.completeAt[d], s.now, d)
			nx = append(nx, d)
			ri++
		}
		// Issue bandwidth exhausted: everything older keeps its place.
		nx = append(nx, uq[ui:]...)
		rw += copy(rq[rw:], rq[ri:])
		ev.readyQ = rq[:rw]
		ev.unfreedQ, ev.unfreedNx = nx, uq[:0]
	}

	pctxActive, pctxFull := s.issuePctx(&issueBudget, &loadBudget)
	_ = storeBudget
	return active || pctxActive || mshrFull || pctxFull
}

// nextWakeAt returns the earliest future cycle at which any pipeline agent
// can act: the next completion event, the fetch queue head becoming
// dispatchable, fetch resuming after a redirect or i-cache miss, or a
// p-thread block becoming fetchable/dispatchable. Resource-blocked agents
// (ROB/RS/registers full, MSHR-rejected loads) are unblocked only by one of
// these events, so the minimum is exact.
//
//lab:hotpath
func (s *Simulator) nextWakeAt() int64 {
	next := s.ev.cal.nextAt(s.now)
	if s.fqLen > 0 {
		if t := s.fetchQ[s.fqHead].availAt; t > s.now && t < next {
			next = t
		}
	}
	if s.fetchIdx < s.n && s.stalledOnBranch < 0 && s.fetchResumeAt > s.now && s.fetchResumeAt < next {
		next = s.fetchResumeAt
	}
	if s.liveCtxs == 0 {
		return next
	}
	for c := range s.ctxs {
		ctx := &s.ctxs[c]
		if !ctx.active {
			continue
		}
		if ctx.fetched < len(ctx.pt.Body) && ctx.nextBlockAt > s.now && ctx.nextBlockAt < next {
			next = ctx.nextBlockAt
		}
		if ctx.dispatched < ctx.fetched && ctx.blockReadyAt > s.now && ctx.blockReadyAt < next {
			next = ctx.blockReadyAt
		}
	}
	return next
}
