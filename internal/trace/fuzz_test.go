package trace

import (
	"bytes"
	"testing"

	"repro/internal/isa"
)

// fuzzProgram is a small fixed workload the fuzz targets decode against —
// enough dynamic instructions to span branch-bitset words and exercise
// loads, stores and branches.
func fuzzProgram() *isa.Program {
	b := isa.NewBuilder("fuzz")
	const words = 16
	mem := make([]int64, words)
	for i := range mem {
		mem[i] = int64(i*5 + 2)
	}
	const (
		rI   = isa.Reg(1)
		rN   = isa.Reg(2)
		rAdr = isa.Reg(3)
		rV   = isa.Reg(4)
		rC   = isa.Reg(5)
	)
	b.MovI(rI, 0)
	b.MovI(rN, words)
	b.Label("top")
	b.ShlI(rAdr, rI, 3)
	b.Load(rV, rAdr, 0)
	b.Add(rV, rV, rV)
	b.Store(rAdr, 0, rV)
	b.AddI(rI, rI, 1)
	b.CmpLT(rC, rI, rN)
	b.BrNZ(rC, "top")
	b.Halt()
	b.SetMem(mem)
	return b.MustBuild()
}

// walkTrace touches every accessor over the whole trace so a decode that
// wrongly accepted malformed input faults here, inside the fuzz target,
// instead of deep in a consumer.
func walkTrace(t *testing.T, tr *Trace) {
	t.Helper()
	var sink int64
	for cu := tr.Cursor(); cu.Next(); {
		sink += int64(cu.PC()) + cu.Prod1() + cu.Prod2() + cu.Addr() + cu.Val()
		if cu.Taken() {
			sink++
		}
	}
	_ = sink
	_ = tr.StaticCounts()
}

// fuzzSeeds returns a pristine encoding plus systematic mutations —
// truncations, bit flips, implausible header fields — as fuzz corpus seeds.
func fuzzSeeds(pristine []byte) [][]byte {
	seeds := [][]byte{pristine, nil, []byte("PXTRC0")}
	for _, cut := range []int{1, 7, 8, 12, 63, 64, len(pristine) / 2, len(pristine) - 1} {
		if cut < len(pristine) {
			seeds = append(seeds, pristine[:cut])
		}
	}
	for _, bit := range []int{0, 70, len(pristine) * 4} {
		mut := append([]byte(nil), pristine...)
		mut[bit/8] ^= 1 << (bit % 8)
		seeds = append(seeds, mut)
	}
	// Implausible entry count in the header.
	huge := append([]byte(nil), pristine...)
	for i := 0; i < 8 && 20+i < len(huge); i++ {
		huge[20+i] = 0xff
	}
	seeds = append(seeds, huge)
	return seeds
}

// FuzzTraceDecodeV2 hammers the spill verifier through both the heap
// decoder and the mapped-alias loader, which share one verification path:
// any input must either decode to a usable trace or return an error — never
// panic, never over-read, never over-allocate from attacker-controlled
// counts.
func FuzzTraceDecodeV2(f *testing.F) {
	prog := fuzzProgram()
	tr := MustRun(prog)
	var buf bytes.Buffer
	if err := tr.EncodeBinaryV2(&buf); err != nil {
		f.Fatal(err)
	}
	for _, seed := range fuzzSeeds(buf.Bytes()) {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if got, err := DecodeBinaryV2(data, prog); err == nil {
			walkTrace(t, got)
		}
		if got, _, err := MapBytes(data, prog); err == nil {
			walkTrace(t, got)
		}
	})
}
