package cpu

import "fmt"

// debugState renders a one-line summary of the machine state for deadlock
// diagnostics.
func (s *Simulator) debugState() string {
	head := "empty"
	if s.robLen > 0 {
		d := s.rob[s.robHead]
		head = fmt.Sprintf("dyn=%d pc=%d op=%s st=%b done=%d",
			d, s.tr.PC(int(d)), s.inst(d).Op, s.state[d], s.completeAt[d])
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
		s.robLen, s.rsUsed, s.physUsed, s.fqLen, s.fetchIdx, s.n,
		s.fetchResumeAt, s.stalledOnBranch, head, s.hier.MSHR.InFlight(s.now), ctxs) + fmt.Sprintf(" busFreeAt=%d now=%d", s.hier.BusFreeAt(), s.now)
}
