package cpu

import "fmt"

// debugState renders a one-line summary of the machine state for deadlock
// diagnostics.
func (s *Simulator) debugState() string {
	head := "empty"
	robLen := int(int64(s.dispIdx) - s.res.Committed)
	if robLen > 0 {
		sl := s.slot(int32(s.res.Committed))
		head = fmt.Sprintf("dyn=%d pc=%d op=%s st=%b done=%d",
			s.res.Committed, sl.pc, s.prog.Insts[sl.pc].Op, sl.state, sl.completeAt)
	}
	ctxs := ""
	for i := range s.ctxs {
		if !s.live.has(i) {
			continue
		}
		c := &s.ctxs[i]
		dep := ""
		if c.issued < c.dispatched && c.issued < c.limit() {
			j := c.issued
			d1, d2 := c.insts[j].dep1, c.insts[j].dep2
			dep = fmt.Sprintf(" next=%s dep1{k=%d i=%d rdy=%v} dep2{k=%d i=%d rdy=%v}",
				c.pt.Body[j].Op, d1.kind, d1.idx, s.pdepReady(c, d1),
				d2.kind, d2.idx, s.pdepReady(c, d2))
		}
		ctxs += fmt.Sprintf(" ctx%d[pt=%d f=%d d=%d i=%d fr=%d lim=%d%s]",
			i, c.pt.ID, c.fetched, c.dispatched, c.issued, c.freed, c.limit(), dep)
	}
	return fmt.Sprintf("rob=%d rs=%d phys=%d fq=%d fetchIdx=%d/%d resume=%d stallBr=%d head{%s} mshr=%d%s",
		robLen, s.rsUsed, s.physUsed, s.fetchIdx-s.dispIdx, s.fetchIdx, s.n,
		s.fetchResumeAt, s.stalledOnBranch, head, s.hier.MSHR.InFlight(s.now), ctxs) + fmt.Sprintf(" busFreeAt=%d now=%d", s.hier.BusFreeAt(), s.now)
}
