package cpu

import (
	"encoding/binary"
	"fmt"
	"slices"

	"repro/internal/isa"
)

// PThread is a static pre-execution thread in the DDMT model: a control-less,
// unchained instruction sequence (the body) spawned whenever the main thread
// dispatches the trigger instruction. Bodies contain only ALU operations and
// loads; the loads listed in Targets are problem-load copies that prefetch
// into the L2 instead of delivering a value to the context.
type PThread struct {
	ID        int32      // dense identifier assigned by the selector
	TriggerPC int32      // static PC whose dispatch spawns the body
	Body      []isa.Inst // executed in order; fixed sequence (control-less)
	Targets   []int      // body indices of prefetch target loads
	TargetPC  int32      // static PC of the primary problem load (diagnostics)
}

// Validate checks the DDMT structural restrictions.
func (p *PThread) Validate() error {
	if len(p.Body) == 0 {
		return fmt.Errorf("p-thread %d: empty body", p.ID)
	}
	for i, in := range p.Body {
		if in.IsStore() || in.IsControl() {
			return fmt.Errorf("p-thread %d: body[%d] = %s violates control-less-ness", p.ID, i, in)
		}
		if !in.IsALU() && !in.IsLoad() && in.Op != isa.Nop {
			return fmt.Errorf("p-thread %d: body[%d] = %s not executable in lightweight mode", p.ID, i, in)
		}
		if err := in.ValidateRegs(); err != nil {
			return fmt.Errorf("p-thread %d: body[%d]: %w", p.ID, i, err)
		}
	}
	if len(p.Targets) == 0 {
		return fmt.Errorf("p-thread %d: no target loads", p.ID)
	}
	// The target list is tiny; a quadratic duplicate check keeps Validate
	// allocation-free so per-run revalidation costs nothing in steady state.
	for i, t := range p.Targets {
		if t < 0 || t >= len(p.Body) {
			return fmt.Errorf("p-thread %d: target index %d out of body range", p.ID, t)
		}
		if !p.Body[t].IsLoad() {
			return fmt.Errorf("p-thread %d: target body[%d] = %s is not a load", p.ID, t, p.Body[t])
		}
		for _, u := range p.Targets[:i] {
			if u == t {
				return fmt.Errorf("p-thread %d: duplicate target %d", p.ID, t)
			}
		}
	}
	return nil
}

// SamePThreads reports whether a and b are the same ordered p-thread list,
// field for field: ID, TriggerPC, TargetPC, Body and Targets. The simulator
// is deterministic in (config, trace, p-threads), so two such lists measured
// under one config on one trace yield identical Results — the rule that lets
// selection targets converging on one p-thread set share a measurement.
func SamePThreads(a, b []*PThread) bool {
	return slices.EqualFunc(a, b, func(p, q *PThread) bool {
		return p.ID == q.ID && p.TriggerPC == q.TriggerPC && p.TargetPC == q.TargetPC &&
			slices.Equal(p.Body, q.Body) && slices.Equal(p.Targets, q.Targets)
	})
}

// PThreadsKey encodes an ordered p-thread list as a map key: two lists
// have the same key exactly when SamePThreads holds for them.
func PThreadsKey(pthreads []*PThread) string {
	var b []byte
	for _, p := range pthreads {
		b = binary.AppendVarint(b, int64(p.ID))
		b = binary.AppendVarint(b, int64(p.TriggerPC))
		b = binary.AppendVarint(b, int64(p.TargetPC))
		b = binary.AppendUvarint(b, uint64(len(p.Body)))
		for _, in := range p.Body {
			b = append(b, byte(in.Op), byte(in.Dst), byte(in.Src1), byte(in.Src2))
			b = binary.AppendVarint(b, in.Imm)
			b = binary.AppendVarint(b, int64(in.Target))
		}
		b = binary.AppendUvarint(b, uint64(len(p.Targets)))
		for _, t := range p.Targets {
			b = binary.AppendVarint(b, int64(t))
		}
	}
	return string(b)
}

// MaxBodyLen returns the longest body among the given p-threads (0 for
// none); the simulator sizes every context's preallocated pools to it.
func MaxBodyLen(pthreads []*PThread) int {
	max := 0
	for _, pt := range pthreads {
		if len(pt.Body) > max {
			max = len(pt.Body)
		}
	}
	return max
}

// LiveIns returns the architectural registers the body reads before writing,
// i.e. the values copied from the main thread at spawn.
func (p *PThread) LiveIns() []isa.Reg {
	written := make(map[isa.Reg]bool)
	seen := make(map[isa.Reg]bool)
	var live []isa.Reg
	for _, in := range p.Body {
		s1, s2, r1, r2 := in.Sources()
		if r1 && s1 != isa.Zero && !written[s1] && !seen[s1] {
			seen[s1] = true
			live = append(live, s1)
		}
		if r2 && s2 != isa.Zero && !written[s2] && !seen[s2] {
			seen[s2] = true
			live = append(live, s2)
		}
		if in.HasDst() {
			written[in.Dst] = true
		}
	}
	return live
}

// Size returns the body length (SIZE(p) in the selection equations).
func (p *PThread) Size() int { return len(p.Body) }

// Loads returns the number of loads in the body (LOAD(p)).
func (p *PThread) Loads() int {
	n := 0
	for _, in := range p.Body {
		if in.IsLoad() {
			n++
		}
	}
	return n
}

// ALUs returns the number of ALU operations in the body (ALU(p)).
func (p *PThread) ALUs() int {
	n := 0
	for _, in := range p.Body {
		if in.IsALU() {
			n++
		}
	}
	return n
}
