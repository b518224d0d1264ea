// Package cpu implements the cycle-level timing simulator: a dynamically
// scheduled, multithreaded, 6-wide superscalar processor with a 15-stage
// pipeline, 128-entry ROB, 80 reservation stations, 384 physical registers
// and 8 thread contexts, matching the paper's default configuration. It also
// implements the DDMT pre-execution machinery: trigger-table spawning,
// lightweight p-thread contexts (reservation stations and physical registers
// but no ROB/LSQ occupancy, no retirement), paced p-thread fetch that
// contends with the main thread for the single i-cache port, and
// prefetch-into-L2 target loads.
//
// The simulator is trace-driven for the main thread (the functional
// interpreter supplies the correct-path dynamic instruction stream with
// exact dependence and address information) but p-threads execute for real:
// at spawn they copy live-in register values from the main thread's
// dispatch-time state and run their bodies functionally, so a p-thread whose
// assumed path diverges from the main thread's actual path computes and
// prefetches a useless address — the failure mode the selection framework
// reasons about.
package cpu

import (
	"fmt"

	"repro/internal/bpred"
	"repro/internal/cache"
	"repro/internal/energy"
)

// Config parameterizes the processor.
type Config struct {
	FetchWidth    int // instructions fetched per cycle (6)
	DispatchWidth int // instructions renamed/dispatched per cycle (6)
	IssueWidth    int // instructions issued per cycle, all threads (6)
	CommitWidth   int // instructions committed per cycle (6)
	ROBSize       int // re-order buffer entries (128)
	RSSize        int // reservation stations, shared by all threads (80)
	PhysRegs      int // physical registers (384)
	FrontEndDepth int // fetch-to-dispatch latency in cycles (8 of 15 stages)
	RedirectPen   int // extra cycles to restart fetch after a branch resolves (2)
	LoadPorts     int // loads issued per cycle (2)
	StorePorts    int // stores issued per cycle (1)
	Contexts      int // hardware thread contexts, including the main thread (8)
	FetchQCap     int // fetch-buffer capacity in instructions (24)

	// PthFrontEnd is the fetch-to-dispatch latency for p-thread blocks;
	// p-instructions inject directly at rename (lightweight mode).
	PthFrontEnd int

	Hier   cache.HierConfig
	Bpred  bpred.Config
	Energy energy.Params

	// MaxCycles aborts a run that exceeds it (deadlock guard). Zero means
	// a generous default.
	MaxCycles int64
}

// DefaultConfig returns the paper's processor configuration.
func DefaultConfig() Config {
	return Config{
		FetchWidth:    6,
		DispatchWidth: 6,
		IssueWidth:    6,
		CommitWidth:   6,
		ROBSize:       128,
		RSSize:        80,
		PhysRegs:      384,
		FrontEndDepth: 8,
		RedirectPen:   2,
		LoadPorts:     2,
		StorePorts:    1,
		Contexts:      8,
		FetchQCap:     24,
		PthFrontEnd:   2,
		Hier:          cache.DefaultHierConfig(),
		Bpred:         bpred.DefaultConfig(),
		Energy:        energy.DefaultParams(),
	}
}

const defaultMaxCycles = 2_000_000_000

// Validate rejects a configuration the simulator cannot run: a
// non-positive width, window size, port count or fetch-buffer capacity,
// fewer than one thread context, a negative latency, or an L1D hit latency
// below one cycle. Each problem is one error naming the field; without the
// check a zero window or width spins until the deadlock guard fires and
// zero contexts panic while sizing the p-thread contexts.
//
// The L1D floor exists because every other load latency adds to it: at 0
// an L1D hit, a forwarded load, or an L2 hit under a zero L2 latency
// completes in its issue cycle, after that cycle's completion events were
// delivered, so the event engine would lose its wakeup (the reference scan,
// which rereads every operand each cycle, would not). Every other latency
// may be 0.
func (c Config) Validate() error {
	type field struct {
		name string
		v    int
	}
	for _, f := range []field{
		{"FetchWidth", c.FetchWidth}, {"DispatchWidth", c.DispatchWidth},
		{"IssueWidth", c.IssueWidth}, {"CommitWidth", c.CommitWidth},
		{"ROBSize", c.ROBSize}, {"RSSize", c.RSSize}, {"PhysRegs", c.PhysRegs},
		{"LoadPorts", c.LoadPorts}, {"StorePorts", c.StorePorts},
		{"FetchQCap", c.FetchQCap}, {"Contexts", c.Contexts},
		{"Hier.L1D.HitLatency", c.Hier.L1D.HitLatency},
	} {
		if f.v < 1 {
			return fmt.Errorf("cpu: %s must be at least 1, got %d", f.name, f.v)
		}
	}
	for _, f := range []field{
		{"FrontEndDepth", c.FrontEndDepth}, {"RedirectPen", c.RedirectPen},
		{"PthFrontEnd", c.PthFrontEnd}, {"Hier.L1I.HitLatency", c.Hier.L1I.HitLatency},
		{"Hier.L2.HitLatency", c.Hier.L2.HitLatency},
		{"Hier.TLBMissPen", c.Hier.TLBMissPen}, {"Hier.MemLatency", c.Hier.MemLatency},
	} {
		if f.v < 0 {
			return fmt.Errorf("cpu: latency %s must not be negative, got %d", f.name, f.v)
		}
	}
	return nil
}
