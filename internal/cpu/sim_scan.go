package cpu

import (
	"context"
	"fmt"
)

// RunReference simulates to completion with the reference engine: the
// pre-refactor per-cycle loop that rescans the whole reservation-station
// window every cycle. It returns the Result RunContext would, bit for bit,
// and is retained as the event engine's behavioural specification (the
// engine differentials) and as BenchmarkSimHotLoop's comparison point. Like
// RunContext it runs once per Reset, and its Result borrows simulator-owned
// memory the same way.
func (s *Simulator) RunReference(ctx context.Context) (*Result, error) {
	s.ev = nil
	maxCycles := s.maxCycles()
	lastCommit := int64(0)
	for !s.done() {
		if s.now&ctxCheckMask == 0 {
			select {
			case <-ctx.Done():
				return nil, ctx.Err()
			default:
			}
		}
		if s.now >= maxCycles {
			return nil, fmt.Errorf("cpu: exceeded %d cycles (deadlock?)", maxCycles)
		}
		if s.now-lastCommit > noCommitLimit {
			return nil, fmt.Errorf("cpu: no commit in 1M cycles at cycle %d (deadlock): %s", s.now, s.debugState())
		}
		s.stats.VisitedCycles++
		committed := s.commitStage()
		if committed > 0 {
			lastCommit = s.now
		}
		s.attributeCycle(committed)
		s.issueStageScan()
		s.dispatchStage()
		s.fetchStage()
		s.now++
	}
	s.finalize()
	return &s.res, nil
}

// issueStageScan walks the ROB oldest-first every cycle, freeing completed
// reservation stations and issuing whatever is ready, then gives p-threads
// the leftover bandwidth (issuePctx).
func (s *Simulator) issueStageScan() {
	issueBudget := s.cfg.IssueWidth
	loadBudget := s.cfg.LoadPorts
	storeBudget := s.cfg.StorePorts

	for d := int32(s.res.Committed); d < int32(s.dispIdx) && issueBudget > 0; d++ {
		sl := s.slot(d)
		if sl.state&fIssued != 0 {
			if sl.state&fRSFreed == 0 && sl.completeAt <= s.now {
				s.rsUsed--
				sl.state |= fRSFreed
			}
			continue
		}
		if !s.ready(s.tr.Prod1(int(d))) || !s.ready(s.tr.Prod2(int(d))) {
			continue
		}
		if issued, _ := s.issueMain(sl, &loadBudget, &storeBudget); issued {
			issueBudget--
		}
	}
	s.issuePctx(&issueBudget, &loadBudget)
}

// issuePctx runs the reference in-order p-thread issue pass with the
// bandwidth left over from the main thread: every cycle it walks every live
// context in index order, frees its completed instructions and issues from
// its head until an operand, a port or the MSHR file stalls it. The event
// engine's issuePctxEvent visits only the contexts that can act.
func (s *Simulator) issuePctx(issueBudget, loadBudget *int) {
	for c := range s.ctxs {
		if !s.live.has(c) {
			continue
		}
		ctx := &s.ctxs[c]
		s.stats.CtxVisits++
		s.freePctxRS(ctx)
		for *issueBudget > 0 && ctx.issued < ctx.dispatched && ctx.issued < ctx.limit() {
			p := &ctx.insts[ctx.issued]
			if !s.pdepReady(ctx, p.dep1) || !s.pdepReady(ctx, p.dep2) {
				break
			}
			if issued, _ := s.issuePInst(ctx, loadBudget); !issued {
				break
			}
			*issueBudget--
		}
		s.maybeRelease(c, ctx)
	}
}
