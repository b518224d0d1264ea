package cpu

import (
	"testing"

	"repro/internal/isa"
)

func validPThread() *PThread {
	return &PThread{
		ID:        1,
		TriggerPC: 10,
		Body: []isa.Inst{
			{Op: isa.AddI, Dst: 1, Src1: 1, Imm: 8},
			{Op: isa.ShlI, Dst: 2, Src1: 1, Imm: 3},
			{Op: isa.Add, Dst: 2, Src1: 2, Src2: 3},
			{Op: isa.Load, Dst: 4, Src1: 2},
		},
		Targets:  []int{3},
		TargetPC: 20,
	}
}

func TestPThreadValidateOK(t *testing.T) {
	if err := validPThread().Validate(); err != nil {
		t.Errorf("valid p-thread rejected: %v", err)
	}
}

func TestPThreadValidateRejections(t *testing.T) {
	cases := map[string]func(*PThread){
		"empty body":      func(p *PThread) { p.Body = nil },
		"store in body":   func(p *PThread) { p.Body[1] = isa.Inst{Op: isa.Store, Src1: 1, Src2: 2} },
		"branch in body":  func(p *PThread) { p.Body[1] = isa.Inst{Op: isa.BrNZ, Src1: 1} },
		"jump in body":    func(p *PThread) { p.Body[1] = isa.Inst{Op: isa.Jmp} },
		"halt in body":    func(p *PThread) { p.Body[1] = isa.Inst{Op: isa.Halt} },
		"no targets":      func(p *PThread) { p.Targets = nil },
		"target range":    func(p *PThread) { p.Targets = []int{9} },
		"target not load": func(p *PThread) { p.Targets = []int{0} },
		"dup target":      func(p *PThread) { p.Targets = []int{3, 3} },
	}
	for name, mutate := range cases {
		p := validPThread()
		mutate(p)
		if err := p.Validate(); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

func TestPThreadLiveIns(t *testing.T) {
	p := validPThread()
	// Body reads r1 (live-in), writes r1/r2/r4, reads r3 (live-in).
	live := p.LiveIns()
	want := map[isa.Reg]bool{1: true, 3: true}
	if len(live) != len(want) {
		t.Fatalf("live-ins = %v, want r1,r3", live)
	}
	for _, r := range live {
		if !want[r] {
			t.Errorf("unexpected live-in r%d", r)
		}
	}
}

func TestPThreadLiveInsIgnoresZero(t *testing.T) {
	p := &PThread{
		ID: 1, TriggerPC: 0,
		Body: []isa.Inst{
			{Op: isa.AddI, Dst: 1, Src1: isa.Zero, Imm: 8},
			{Op: isa.Load, Dst: 2, Src1: 1},
		},
		Targets: []int{1},
	}
	if live := p.LiveIns(); len(live) != 0 {
		t.Errorf("live-ins = %v, want none (R0 is not a live-in)", live)
	}
}

func TestPThreadCounters(t *testing.T) {
	p := validPThread()
	if p.Size() != 4 {
		t.Errorf("Size = %d, want 4", p.Size())
	}
	if p.Loads() != 1 {
		t.Errorf("Loads = %d, want 1", p.Loads())
	}
	if p.ALUs() != 3 {
		t.Errorf("ALUs = %d, want 3", p.ALUs())
	}
}

// TestSamePThreads pins the sharing rule: two selections share one
// measurement only when their ordered p-thread lists agree field for field,
// and PThreadsKey agrees with SamePThreads on every case.
func TestSamePThreads(t *testing.T) {
	list := func() []*PThread {
		a := validPThread()
		b := validPThread()
		b.ID, b.TriggerPC, b.TargetPC = 2, 11, 21
		b.Body = append(b.Body, isa.Inst{Op: isa.Load, Dst: 5, Src1: 1})
		b.Targets = []int{3, 4}
		return []*PThread{a, b}
	}
	if !SamePThreads(list(), list()) || PThreadsKey(list()) != PThreadsKey(list()) {
		t.Fatal("deep-equal lists rejected")
	}
	if !SamePThreads(nil, []*PThread{}) || PThreadsKey(nil) != PThreadsKey([]*PThread{}) {
		t.Error("two empty selections rejected")
	}
	cases := map[string]func([]*PThread) []*PThread{
		"one ID": func(l []*PThread) []*PThread { l[1].ID = 7; return l },
		"one body instruction": func(l []*PThread) []*PThread {
			l[0].Body[1].Imm++
			return l
		},
		"body opcode":   func(l []*PThread) []*PThread { l[0].Body[0].Op = isa.Nop; return l },
		"body register": func(l []*PThread) []*PThread { l[1].Body[0].Src2++; return l },
		"body target":   func(l []*PThread) []*PThread { l[1].Body[0].Target++; return l },
		"body moved": func(l []*PThread) []*PThread {
			l[0].Body = append(l[0].Body, l[1].Body[0])
			l[1].Body = l[1].Body[1:]
			return l
		},
		"targets order": func(l []*PThread) []*PThread { l[1].Targets = []int{4, 3}; return l },
		"list order":    func(l []*PThread) []*PThread { return []*PThread{l[1], l[0]} },
		"trigger PC":    func(l []*PThread) []*PThread { l[0].TriggerPC++; return l },
		"target PC":     func(l []*PThread) []*PThread { l[0].TargetPC++; return l },
		"shorter list":  func(l []*PThread) []*PThread { return l[:1] },
	}
	for name, mutate := range cases {
		if SamePThreads(list(), mutate(list())) {
			t.Errorf("%s: lists that differ were accepted as the same", name)
		}
		if PThreadsKey(list()) == PThreadsKey(mutate(list())) {
			t.Errorf("%s: lists that differ share a key", name)
		}
	}
}
