package cpu

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"repro/internal/isa"
	"repro/internal/trace"
)

// engineConfigs returns configurations chosen to stress the paths where the
// event-driven scheduler could diverge from the reference scan: tiny windows
// (budget truncation of the RS-free walk), few MSHRs (rejected loads that
// must replay cycle-by-cycle), starved ports, minimal contexts, more
// contexts than one 64-bit context-set word holds, the shortest latencies
// Validate accepts (same-cycle wakeups at the calendar's edge), a
// one-instruction machine, and a window whose in-flight ring (ROB plus fetch
// queue, 8 slots) wraps every 8 instructions.
func engineConfigs() map[string]Config {
	tiny := noPrefConfig()
	tiny.ROBSize = 16
	tiny.RSSize = 8
	tiny.PhysRegs = 24
	tiny.IssueWidth = 2
	tiny.DispatchWidth = 2
	tiny.CommitWidth = 2
	tiny.FetchWidth = 2
	tiny.FetchQCap = 6

	mshr := noPrefConfig()
	mshr.Hier.MSHRs = 1
	mshr.LoadPorts = 1

	ctxs := noPrefConfig()
	ctxs.Contexts = 2

	many := noPrefConfig()
	many.Contexts = 70

	minLat := DefaultConfig()
	minLat.FrontEndDepth = 0
	minLat.RedirectPen = 0
	minLat.PthFrontEnd = 0
	minLat.Hier.L1I.HitLatency = 0
	minLat.Hier.L1D.HitLatency = 1
	minLat.Hier.L2.HitLatency = 0
	minLat.Hier.TLBMissPen = 0
	minLat.Hier.MemLatency = 0

	oneSlot := noPrefConfig()
	oneSlot.ROBSize = 1
	oneSlot.FetchQCap = 1
	oneSlot.FetchWidth = 1
	oneSlot.DispatchWidth = 1
	oneSlot.IssueWidth = 1
	oneSlot.CommitWidth = 1
	oneSlot.LoadPorts = 1
	oneSlot.StorePorts = 1

	odd := noPrefConfig()
	odd.ROBSize = 5
	odd.FetchQCap = 3

	return map[string]Config{
		"default":       DefaultConfig(),
		"nopref":        noPrefConfig(),
		"tiny-window":   tiny,
		"mshr-pressure": mshr,
		"two-contexts":  ctxs,
		"many-contexts": many,
		"min-latency":   minLat,
		"one-slot":      oneSlot,
		"odd-window":    odd,
	}
}

// engineWorkloads returns trace/p-thread pairs covering serial chains,
// wide ILP, memory-bound striding with useful, useless and aborting
// p-threads, more concurrent p-threads than one context-set word holds,
// mispredict-heavy control flow, and loads and stores aliasing a few words.
func engineWorkloads(t *testing.T) map[string]struct {
	tr  *trace.Trace
	pts []*PThread
} {
	t.Helper()
	stride, inducPC, loadPC := strideWalk(300, 12)
	wild, wInduc, wLoad := strideWalk(60, 4)
	out := map[string]struct {
		tr  *trace.Trace
		pts []*PThread
	}{
		"chain":       {tr: trace.MustRun(aluChain(400))},
		"parallel":    {tr: trace.MustRun(aluParallel(400))},
		"stride-base": {tr: trace.MustRun(stride)},
		"stride-pth":  {tr: trace.MustRun(stride), pts: []*PThread{stridePThread(inducPC, loadPC, 16)}},
		"stride-abort": {tr: trace.MustRun(wild), pts: []*PThread{
			stridePThread(wInduc, wLoad, 100000),
			// Wild at its first instruction: the context releases with
			// nothing issued.
			{ID: 1, TriggerPC: int32(wInduc), Targets: []int{0}, TargetPC: int32(wLoad),
				Body: []isa.Inst{{Op: isa.Load, Dst: 4, Src1: 3, Imm: 1 << 40}}},
		}},
	}
	// Context pressure: eight p-threads per trigger, each holding its
	// context until a non-target load that misses to memory returns, keep
	// more than 64 contexts live under many-contexts.
	storm, sInduc, sLoad := strideWalk(150, 2)
	var stormPts []*PThread
	for k := 0; k < 8; k++ {
		pt := stridePThread(sInduc, sLoad, 4+2*k)
		pt.ID = int32(k)
		pt.Body = []isa.Inst{
			pt.Body[0], pt.Body[1],
			{Op: isa.Load, Dst: 5, Src1: 3, Imm: 8}, // misses; frees last
			pt.Body[2],
		}
		pt.Targets = []int{3}
		stormPts = append(stormPts, pt)
	}
	out["spawn-storm"] = struct {
		tr  *trace.Trace
		pts []*PThread
	}{tr: trace.MustRun(storm), pts: stormPts}
	// Mispredict-heavy: data-dependent branches.
	b := isa.NewBuilder("chaos")
	b.MovI(1, 0)
	b.MovI(2, 1500)
	b.Label("top")
	b.AddI(1, 1, 1)
	b.MulI(3, 1, 2654435761)
	b.ShrI(3, 3, 13)
	b.AndI(4, 3, 1)
	b.BrZ(4, "skip")
	b.AddI(5, 5, 1)
	b.Label("skip")
	b.CmpLT(4, 1, 2)
	b.BrNZ(4, "top")
	b.Halt()
	out["chaos"] = struct {
		tr  *trace.Trace
		pts []*PThread
	}{tr: trace.MustRun(b.MustBuild())}
	out["store-alias"] = struct {
		tr  *trace.Trace
		pts []*PThread
	}{tr: trace.MustRun(storeAlias(200))}
	return out
}

// storeAlias builds a loop whose loads and stores share four words. Each
// iteration's first load takes its address from a strided load that misses
// to memory, so it resolves long after younger stores to the same words
// have dispatched; a second load re-reads the word the iteration just
// stored, through an address known at once.
func storeAlias(iters int) *isa.Program {
	const (
		rI, rN, rP, rW = isa.Reg(1), isa.Reg(2), isa.Reg(3), isa.Reg(4)
		rV, rS, rC     = isa.Reg(5), isa.Reg(6), isa.Reg(7)
	)
	words := iters*8 + 8
	alias := int64(words) * 8 // byte address of the four shared words
	mem := make([]int64, words+4)
	for i := 0; i < iters+1; i++ {
		mem[i*8] = int64(i*7&3) * 8
	}
	b := isa.NewBuilder("store-alias")
	b.MovI(rI, 0)
	b.MovI(rN, int64(iters))
	b.Label("top")
	b.AddI(rI, rI, 1)
	b.ShlI(rP, rI, 6)
	b.Load(rW, rP, 0)     // misses: the next load's address arrives late
	b.Load(rV, rW, alias) // late-resolving load over the shared words
	b.Add(rS, rS, rV)
	b.AndI(rC, rI, 3)
	b.ShlI(rC, rC, 3)
	b.Store(rC, alias, rS) // address known at once
	b.Load(rV, rC, alias)  // re-reads the word just stored
	b.Add(rS, rS, rV)
	b.CmpLT(rC, rI, rN)
	b.BrNZ(rC, "top")
	b.Halt()
	b.SetMem(mem)
	return b.MustBuild()
}

// runEngine runs a freshly Reset simulator on the event engine, or on the
// reference scan when reference is set.
func runEngine(s *Simulator, reference bool) (*Result, error) {
	if reference {
		return s.RunReference(context.Background())
	}
	return s.Run()
}

// runReference is Run on the reference scan engine.
func runReference(cfg Config, tr *trace.Trace, pts []*PThread) (*Result, error) {
	s, err := NewSimulator(cfg, tr, pts)
	if err != nil {
		return nil, err
	}
	return runEngine(s, true)
}

// TestEnginesAgreeStress cross-checks the two engines over the stress
// matrix: every (config, workload) pair must produce deeply equal Results.
func TestEnginesAgreeStress(t *testing.T) {
	workloads := engineWorkloads(t)
	for cfgName, cfg := range engineConfigs() {
		for wlName, wl := range workloads {
			ev, err1 := Run(cfg, wl.tr, wl.pts)
			sc, err2 := runReference(cfg, wl.tr, wl.pts)
			if err1 != nil || err2 != nil {
				t.Fatalf("%s/%s: event err=%v scan err=%v", cfgName, wlName, err1, err2)
			}
			if !reflect.DeepEqual(ev, sc) {
				t.Errorf("%s/%s: engines disagree\nevent: %+v\nscan:  %+v", cfgName, wlName, ev, sc)
			}
		}
	}
}

// stressResultSHA256 holds, per config/workload pair of the stress matrix,
// the SHA-256 of the event engine's Result as JSON, recorded before the
// per-instruction state moved into the in-flight slot ring. Both engines
// read that ring and the in-flight store table, so the engine differential
// cannot see a fault in them; these constants can. A change that means to
// alter simulated behaviour updates them in the same commit and says why.
var stressResultSHA256 = map[string]string{
	"default/chain":              "a3db1db86ff1e04dd28691ceb29b27e9ec32a38cce3ab6aefc88bb7bcf507abb",
	"default/chaos":              "e165a9b9bd0206688175e743fe43800478f7c22e1d5dd7cd293998985a82067e",
	"default/parallel":           "9a93b74d40d6b4235dc7eae6b3db96c05936cd86cef066f7b657a4c9ecf84749",
	"default/spawn-storm":        "589f318be63850dca28c26c0a611e42654c0698c5373af16b60a2d962e80af3d",
	"default/store-alias":        "065abf6ba3cbba7885dda75dc7593e3879ba9eedd0592e6487d9eebe7eba683a",
	"default/stride-abort":       "874bea9175adc5a83bb02bffc5ec2cde328abd7a62ce4cd414094b8592b22d91",
	"default/stride-base":        "ba7b9e65f6e807c95952080e82def7e44bbfdd6af214f4344a8801ee7f86c9eb",
	"default/stride-pth":         "49ab1346727d0f8f447de09db21c535d028adc140af005519006d434b6e03dda",
	"many-contexts/chain":        "a3db1db86ff1e04dd28691ceb29b27e9ec32a38cce3ab6aefc88bb7bcf507abb",
	"many-contexts/chaos":        "e165a9b9bd0206688175e743fe43800478f7c22e1d5dd7cd293998985a82067e",
	"many-contexts/parallel":     "9a93b74d40d6b4235dc7eae6b3db96c05936cd86cef066f7b657a4c9ecf84749",
	"many-contexts/spawn-storm":  "80742328ceda69f137a16cdf917b1a6ef8e9f7ed2864993332a11d703d32e00a",
	"many-contexts/store-alias":  "587e287acff05ea198f5b8c44bd93fbee70c0bc2d6e0e8cce107fcf12e8d66ea",
	"many-contexts/stride-abort": "f2f681507f5320ec46b917c804d250191cce93c3f6a01142440a929d08b34f6c",
	"many-contexts/stride-base":  "9f68c4cd474cd892dd5a4c08c3c96a2377165112bf624c62be67be8796059d08",
	"many-contexts/stride-pth":   "77c4ad0007d12237df5e3e51974ffb9a375c1b90c48cc9cf5129614210893d6f",
	"min-latency/chain":          "24a6562fabad0c8f036a41b51be08a47264c821f13babd9339b6fc6c14303505",
	"min-latency/chaos":          "fc1e96c199041ff4e47718728cf45611a2f4fc61ff8e5a608992e78f695c1817",
	"min-latency/parallel":       "8a3c4773238c5333351758403ca6331c6c83f80200eb96dc7314dcc7af448b21",
	"min-latency/spawn-storm":    "3491e6e6cdaaa46b88d988ab9d6904ad92502ff439a1cbba6c2a27ada0a44c51",
	"min-latency/store-alias":    "68a5f1d51f31eed35853562add40e28bbd1ebefacc48809cf08d6fb1b7949743",
	"min-latency/stride-abort":   "f089a2c79e385800399e4ad24d0af7bc03628ac4a4c7b70cdbee5b27ae379e76",
	"min-latency/stride-base":    "dc8cc9e26478d0340bbe85f83a54440da1be7fb6c079f351b199620e671bde64",
	"min-latency/stride-pth":     "5b3560bb9d2901db9b708017530795d67cc2ff562d881363de759a33223be5d6",
	"mshr-pressure/chain":        "a3db1db86ff1e04dd28691ceb29b27e9ec32a38cce3ab6aefc88bb7bcf507abb",
	"mshr-pressure/chaos":        "e165a9b9bd0206688175e743fe43800478f7c22e1d5dd7cd293998985a82067e",
	"mshr-pressure/parallel":     "9a93b74d40d6b4235dc7eae6b3db96c05936cd86cef066f7b657a4c9ecf84749",
	"mshr-pressure/spawn-storm":  "391371c5762c1d4c59921b1a8375f08abd09fa526e73fedac7029c55fed20a5b",
	"mshr-pressure/store-alias":  "01700c4ed11365a63128e1c56c1da93559dc4490b9e8c07183f80c165585b427",
	"mshr-pressure/stride-abort": "132cf0cdb68186edecb271a861fe00220525309bbdab20fd60530517ec813d8f",
	"mshr-pressure/stride-base":  "fbeb7c0c563e6868851eade84f1758da0e426a3ae96738edfb8ea8d528a9475c",
	"mshr-pressure/stride-pth":   "4b99a42521915b1978cd5416dad5270981a08a8ab558f90edf8348911b840283",
	"nopref/chain":               "a3db1db86ff1e04dd28691ceb29b27e9ec32a38cce3ab6aefc88bb7bcf507abb",
	"nopref/chaos":               "e165a9b9bd0206688175e743fe43800478f7c22e1d5dd7cd293998985a82067e",
	"nopref/parallel":            "9a93b74d40d6b4235dc7eae6b3db96c05936cd86cef066f7b657a4c9ecf84749",
	"nopref/spawn-storm":         "b3077333ea285c110085a95515dc92c9960d5d465da2068f1819ca599b326f71",
	"nopref/store-alias":         "587e287acff05ea198f5b8c44bd93fbee70c0bc2d6e0e8cce107fcf12e8d66ea",
	"nopref/stride-abort":        "f2f681507f5320ec46b917c804d250191cce93c3f6a01142440a929d08b34f6c",
	"nopref/stride-base":         "9f68c4cd474cd892dd5a4c08c3c96a2377165112bf624c62be67be8796059d08",
	"nopref/stride-pth":          "306aa8a26c9c95d232ddc3839806fd19c4be737d127185d71633522670ef5c8e",
	"odd-window/chain":           "a255d59c5d5c39a204eae6241b6d8ddc2e1d88dc3c97c4d042b6eaabc7ff70a9",
	"odd-window/chaos":           "b267e48a05c239ba29ce20ef262fb1d23a1081a5e649025992303c7357b69242",
	"odd-window/parallel":        "9ca87872320a6e46b4ab8fd1eb7e75a66231d112237cb764ebb026e4ff532c84",
	"odd-window/spawn-storm":     "853dcaa2023d9fc9391312277e547e962af1a15e55944cade6bdc04cd212153a",
	"odd-window/store-alias":     "1cd147528c8d22fa94a69a47d85d60c9582bd51e1b43b982b19c8725f7454829",
	"odd-window/stride-abort":    "9024cf298681b371b06a632ce596d76dae137d79532d0d8c83692f91ed5d2a1d",
	"odd-window/stride-base":     "c4acbe3a85e8372a324e33cf38da17af7746105d3aa8d8c0cc04aaf5eed8e345",
	"odd-window/stride-pth":      "81702a55efcc45174d1c5b939205452c2ed5b87151de72de38776d9bb23abafd",
	"one-slot/chain":             "8f197af12a6f4da88f1a8b28a61846fbbaac325936782b2f279fe0c5dae0b4ab",
	"one-slot/chaos":             "436cc7c05ef8e7684e086b045f244f883b07b209a801b775d584e074f2a814ba",
	"one-slot/parallel":          "4fd35255053b05987d37c0e00c7da0002bfc0775bb3ec6fae981be990198ef45",
	"one-slot/spawn-storm":       "fd002edfbe838c47be076ce72f5388fcb081125a97d56b0b4b9235d318997ba2",
	"one-slot/store-alias":       "157b23eb6fbb90955f309742c29e5bc7b1f7b90596a9f02a405842213ef3027f",
	"one-slot/stride-abort":      "d99b4643c7e0e49d256d612fa2edfb239e02dd73a40096691b7107c9e445cdb6",
	"one-slot/stride-base":       "e71ee9524572f85ad326b9ba88750a54d66f5932734ffed04d0e3bee32a61fd7",
	"one-slot/stride-pth":        "af4bbf6bea31ed16706c7d5a1680fea49ec586be3ed649618373ab306b389277",
	"tiny-window/chain":          "4f3b6b4ae4bec3e9c72729f162a5eaa71f563ec4651fd66e8e53cfdb981ed527",
	"tiny-window/chaos":          "7e77edb98a7616358263c835e72a99ca7216dba17f3246ce89079c3d0562f92c",
	"tiny-window/parallel":       "96d23db599fcb0747ffedb0f2b2e54290b40b634c7d39bf95b856cd7ba1d483b",
	"tiny-window/spawn-storm":    "23ef3a43b5830b01af4e998e80eac5b9f8fd76d785280a4fb8619e3df6908a1c",
	"tiny-window/store-alias":    "fed8f91ad97fcd1902e76d5e233d8fda64bb6b2be938f81b45adc896e28d1419",
	"tiny-window/stride-abort":   "9c4d40dfc9e79b16b41e4cbe437280558c3e919ee36baac67b526cb443f5387d",
	"tiny-window/stride-base":    "7099956c7f6f8359aa4fe62ef875c07fdbe3a7fc6f39d945c8e3cd065bef2c73",
	"tiny-window/stride-pth":     "4ba3428b22361e5b892cc4f580054fb23b9c275eccb9e4abc6a23413ce0b6199",
	"two-contexts/chain":         "a3db1db86ff1e04dd28691ceb29b27e9ec32a38cce3ab6aefc88bb7bcf507abb",
	"two-contexts/chaos":         "e165a9b9bd0206688175e743fe43800478f7c22e1d5dd7cd293998985a82067e",
	"two-contexts/parallel":      "9a93b74d40d6b4235dc7eae6b3db96c05936cd86cef066f7b657a4c9ecf84749",
	"two-contexts/spawn-storm":   "ac05f5c4522c2480153c232cb306fc07d5ad2d7ac52dea1eaa140ada73e7ca0b",
	"two-contexts/store-alias":   "587e287acff05ea198f5b8c44bd93fbee70c0bc2d6e0e8cce107fcf12e8d66ea",
	"two-contexts/stride-abort":  "0e4f520be3f3db7b26aec765327de3c29d06d16f8c8793587c81e2678bff881f",
	"two-contexts/stride-base":   "9f68c4cd474cd892dd5a4c08c3c96a2377165112bf624c62be67be8796059d08",
	"two-contexts/stride-pth":    "ddaeada8f0f4c2072ec463e927e4404e8529aac381350bd4a1a75c8f0d7e76c0",
}

// TestStressResultsPinned compares every stress-matrix Result with its
// recorded hash.
func TestStressResultsPinned(t *testing.T) {
	workloads := engineWorkloads(t)
	for cfgName, cfg := range engineConfigs() {
		for wlName, wl := range workloads {
			name := cfgName + "/" + wlName
			res, err := Run(cfg, wl.tr, wl.pts)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			js, err := json.Marshal(res)
			if err != nil {
				t.Fatal(err)
			}
			sum := sha256.Sum256(js)
			if got, want := hex.EncodeToString(sum[:]), stressResultSHA256[name]; got != want {
				t.Errorf("%q: %q, // recorded %q", name, got, want)
			}
		}
	}
}

// TestConfigValidate checks every structural limit: each bad field is one
// error naming it, returned by both Validate and Reset, never a panic or a
// run into the deadlock guard.
func TestConfigValidate(t *testing.T) {
	if err := DefaultConfig().Validate(); err != nil {
		t.Fatalf("default config rejected: %v", err)
	}
	cases := []struct {
		field  string
		mutate func(*Config)
	}{
		{"FetchWidth", func(c *Config) { c.FetchWidth = 0 }},
		{"DispatchWidth", func(c *Config) { c.DispatchWidth = 0 }},
		{"IssueWidth", func(c *Config) { c.IssueWidth = 0 }},
		{"CommitWidth", func(c *Config) { c.CommitWidth = -1 }},
		{"ROBSize", func(c *Config) { c.ROBSize = 0 }},
		{"RSSize", func(c *Config) { c.RSSize = 0 }},
		{"PhysRegs", func(c *Config) { c.PhysRegs = 0 }},
		{"LoadPorts", func(c *Config) { c.LoadPorts = 0 }},
		{"StorePorts", func(c *Config) { c.StorePorts = 0 }},
		{"FetchQCap", func(c *Config) { c.FetchQCap = 0 }},
		{"Contexts", func(c *Config) { c.Contexts = 0 }},
		{"FrontEndDepth", func(c *Config) { c.FrontEndDepth = -1 }},
		{"RedirectPen", func(c *Config) { c.RedirectPen = -1 }},
		{"PthFrontEnd", func(c *Config) { c.PthFrontEnd = -1 }},
		{"Hier.L1I.HitLatency", func(c *Config) { c.Hier.L1I.HitLatency = -1 }},
		{"Hier.L1D.HitLatency", func(c *Config) { c.Hier.L1D.HitLatency = -1 }},
		// A zero L1D latency completes loads in their issue cycle, after
		// the event engine delivered that cycle's completions.
		{"Hier.L1D.HitLatency", func(c *Config) { c.Hier.L1D.HitLatency = 0 }},
		{"Hier.L2.HitLatency", func(c *Config) { c.Hier.L2.HitLatency = -1 }},
		{"Hier.TLBMissPen", func(c *Config) { c.Hier.TLBMissPen = -1 }},
		{"Hier.MemLatency", func(c *Config) { c.Hier.MemLatency = -1 }},
	}
	tr := trace.MustRun(aluChain(50))
	for _, tc := range cases {
		field := tc.field
		cfg := DefaultConfig()
		tc.mutate(&cfg)
		err := cfg.Validate()
		if err == nil {
			t.Errorf("%s: bad value accepted", field)
			continue
		}
		if !strings.Contains(err.Error(), field) {
			t.Errorf("%s: error %q does not name the field", field, err)
		}
		func() {
			defer func() {
				if p := recover(); p != nil {
					t.Errorf("%s: Reset panicked: %v", field, p)
				}
			}()
			if rerr := new(Simulator).Reset(cfg, tr, nil); rerr == nil || rerr.Error() != err.Error() {
				t.Errorf("%s: Reset error %v, want %v", field, rerr, err)
			}
		}()
	}
	// The smallest legal machine still runs: one context means no
	// p-thread contexts, not a panic.
	cfg := DefaultConfig()
	cfg.Contexts = 1
	s, err := NewSimulator(cfg, tr, nil)
	if err == nil {
		_, err = s.Run()
	}
	if err != nil {
		t.Errorf("one-context machine: %v", err)
	}
}

// TestStalledPThreadsAreNotVisited hand-builds the two ways a p-thread's
// in-order head waits for an operand. Both p-threads spawn at one trigger:
// pt 0's head reads the result of an in-flight main-thread load that misses
// to memory (depMain); pt 1's third instruction reads the result of its own
// first instruction, a load that also misses (depBody). The engines must
// agree on the Result, and the event engine must leave each stalled context
// alone until its producer completes: its issue passes visit contexts a
// bounded number of times per body instruction, while the reference visits
// every live context every cycle of the memory wait.
func TestStalledPThreadsAreNotVisited(t *testing.T) {
	const (
		rBase = isa.Reg(1)
		rMain = isa.Reg(2) // written by the long main-thread load
	)
	mem := make([]int64, 4096)
	mem[8192>>3] = 16384      // main load value: pt 0's prefetch address
	mem[(8192+64)>>3] = 24576 // pt 1's first load value: its prefetch address
	b := isa.NewBuilder("pctx-wait")
	b.MovI(rBase, 8192)
	b.Load(rMain, rBase, 0)
	trigger := b.AddI(3, 3, 1)
	for r := isa.Reg(10); r < 26; r++ {
		b.AddI(r, r, 1) // independent filler behind the stalled load
	}
	b.Halt()
	b.SetMem(mem)
	tr := trace.MustRun(b.MustBuild())
	pts := []*PThread{
		{ID: 0, TriggerPC: int32(trigger), Targets: []int{1}, Body: []isa.Inst{
			{Op: isa.AddI, Dst: 5, Src1: rMain}, // depMain: waits on the main load
			{Op: isa.Load, Dst: 6, Src1: 5},
		}},
		{ID: 1, TriggerPC: int32(trigger), Targets: []int{2}, Body: []isa.Inst{
			{Op: isa.Load, Dst: 7, Src1: rBase, Imm: 64},
			{Op: isa.AddI, Dst: 8, Src1: 7}, // depBody: waits on body load 0
			{Op: isa.Load, Dst: 9, Src1: 8},
		}},
	}
	cfg := noPrefConfig()
	stats := func(reference bool) (*Result, SimStats) {
		s, err := NewSimulator(cfg, tr, pts)
		if err != nil {
			t.Fatal(err)
		}
		res, err := runEngine(s, reference)
		if err != nil {
			t.Fatal(err)
		}
		return res.Clone(), s.Stats()
	}
	evRes, ev := stats(false)
	refRes, ref := stats(true)
	if !reflect.DeepEqual(evRes, refRes) {
		t.Fatalf("engines disagree\nevent: %+v\nscan:  %+v", evRes, refRes)
	}
	if evRes.Spawns != 2 || evRes.PInstsExec != 5 || evRes.PerPThread[0].Aborted+evRes.PerPThread[1].Aborted != 0 {
		t.Fatalf("want both p-threads spawned and run to completion, got %+v", evRes)
	}
	if ref.CtxVisits < 2*int64(cfg.Hier.MemLatency) {
		t.Fatalf("reference visited contexts %d times; the waits were shorter than the memory latency", ref.CtxVisits)
	}
	// One visit when a head arrives or its producer completes, one to free
	// each completion: at most two per body instruction, however long the
	// wait.
	if max := int64(2 * 5); ev.CtxVisits > max {
		t.Errorf("event engine visited contexts %d times (reference %d), want at most %d: a stalled context was visited while it waited",
			ev.CtxVisits, ref.CtxVisits, max)
	}
	if ev.CtxVisits > ev.CtxWakeups {
		t.Errorf("event engine made %d visits for %d wakeups with no port or MSHR pressure", ev.CtxVisits, ev.CtxWakeups)
	}
}

// TestSimStatsAccountForEveryCycle checks the work counters against the
// Result on the stress matrix: every simulated cycle is either visited one
// by one or skipped in bulk, the reference engine skips none, both count
// the spawns the Result reports, and only the event engine's ready queue
// has a high-water mark, bounded by the ROB.
func TestSimStatsAccountForEveryCycle(t *testing.T) {
	workloads := engineWorkloads(t)
	for cfgName, cfg := range engineConfigs() {
		for wlName, wl := range workloads {
			for _, reference := range []bool{false, true} {
				s, err := NewSimulator(cfg, wl.tr, wl.pts)
				if err != nil {
					t.Fatal(err)
				}
				res, err := runEngine(s, reference)
				if err != nil {
					t.Fatal(err)
				}
				st := s.Stats()
				name := fmt.Sprintf("%s/%s/reference=%v", cfgName, wlName, reference)
				if st.VisitedCycles+st.SkippedCycles != res.Cycles {
					t.Errorf("%s: %d visited + %d skipped cycles, Result has %d", name, st.VisitedCycles, st.SkippedCycles, res.Cycles)
				}
				if reference && st.SkippedCycles != 0 {
					t.Errorf("%s: reference skipped %d cycles", name, st.SkippedCycles)
				}
				if st.Spawns != res.Spawns {
					t.Errorf("%s: stats count %d spawns, Result %d", name, st.Spawns, res.Spawns)
				}
				// Ready instructions sit in the ROB, and every workload has
				// at least one; the reference keeps no ready queue.
				if reference && st.ReadyQMax != 0 {
					t.Errorf("%s: reference reports a ready-queue high-water mark of %d", name, st.ReadyQMax)
				}
				if !reference && (st.ReadyQMax < 1 || st.ReadyQMax > int64(cfg.ROBSize)) {
					t.Errorf("%s: ready-queue high-water mark %d outside [1, ROBSize %d]", name, st.ReadyQMax, cfg.ROBSize)
				}
			}
		}
	}
}
