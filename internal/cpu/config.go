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
	ArchRegs      int // architectural registers backed by PhysRegs (64)
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

	// Engine selects the simulation engine. The default (EngineEvent) is the
	// event-driven wakeup scheduler: completing producers wake their waiting
	// consumers, a ready queue feeds issue directly, and a calendar queue of
	// future completion events lets quiescent cycles be skipped in bulk.
	// EngineScan is the reference implementation that rescans the whole
	// reservation-station window every cycle; it exists to pin the event
	// engine bit-for-bit (see TestEnginesAgree) and as the benchmark
	// comparison point for BenchmarkSimHotLoop. Both engines produce
	// identical Results on every workload.
	Engine Engine
}

// Engine names a simulation engine. The zero value is EngineEvent, so the
// default Config keeps selecting the event-driven scheduler. It is a typed
// string (not an int enum) so existing JSON fingerprints and configs that
// spelled the engine as a string keep their byte representation.
type Engine string

// Simulation engines.
const (
	// EngineEvent is the event-driven wakeup scheduler (the default).
	EngineEvent Engine = ""
	// EngineScan is the reference per-cycle window rescan.
	EngineScan Engine = "scan"
)

// ParseEngine resolves an engine name from user input (flags, wire
// requests). It accepts the canonical constant values plus the spelled-out
// alias "event" for the default engine. Unknown names return one error
// listing every valid engine instead of silently defaulting.
func ParseEngine(s string) (Engine, error) {
	switch s {
	case "", "event":
		return EngineEvent, nil
	case "scan":
		return EngineScan, nil
	}
	return "", fmt.Errorf("cpu: unknown engine %q (valid engines: event, scan)", s)
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
		ArchRegs:      64,
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
