package profile

import (
	"bytes"
	"reflect"
	"runtime"
	"testing"

	"repro/internal/cache"
	"repro/internal/isa"
	"repro/internal/trace"
)

// strideLoop walks a large array with a cache-hostile stride so the profile
// has real L1/L2 misses and a non-empty problem-load set.
func strideLoop(t testing.TB) *trace.Trace {
	t.Helper()
	b := isa.NewBuilder("serial-profile")
	const words = 1 << 14
	mem := make([]int64, words)
	const (
		rI   = isa.Reg(1)
		rN   = isa.Reg(2)
		rAdr = isa.Reg(3)
		rV   = isa.Reg(4)
		rC   = isa.Reg(5)
	)
	b.MovI(rI, 0)
	b.MovI(rN, words/8)
	b.Label("top")
	b.ShlI(rAdr, rI, 6) // stride 64 bytes: a new line every access
	b.Load(rV, rAdr, 0)
	b.AddI(rI, rI, 1)
	b.CmpLT(rC, rI, rN)
	b.BrNZ(rC, "top")
	b.Halt()
	b.SetMem(mem)
	return trace.MustRun(b.MustBuild())
}

func smallHier() Config {
	return Config{
		L1D: cache.Config{SizeBytes: 1 << 10, Ways: 2, BlockBytes: 64, HitLatency: 2},
		L2:  cache.Config{SizeBytes: 8 << 10, Ways: 4, BlockBytes: 64, HitLatency: 12},
	}
}

func TestProfileSerialRoundTrip(t *testing.T) {
	tr := strideLoop(t)
	p := Collect(tr, smallHier())
	if p.TotalL2 == 0 || len(p.Loads) == 0 {
		t.Fatal("workload produced no L2 misses; profile round trip untested")
	}
	var buf bytes.Buffer
	if err := p.EncodeBinary(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := DecodeBinary(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(p, got) {
		t.Error("profile round trip diverged")
	}
	var buf2 bytes.Buffer
	if err := got.EncodeBinary(&buf2); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), buf2.Bytes()) {
		t.Error("re-encoding a decoded profile changed the bytes")
	}
}

func TestProfileSerialRejectsCorruption(t *testing.T) {
	tr := strideLoop(t)
	p := Collect(tr, smallHier())
	var buf bytes.Buffer
	if err := p.EncodeBinary(&buf); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	for name, data := range map[string][]byte{
		"empty":     {},
		"bad magic": append([]byte("NOTPROFL"), raw[8:]...),
		"truncated": raw[:len(raw)-7],
		"trailing":  append(append([]byte(nil), raw...), 1),
	} {
		if _, err := DecodeBinary(data); err == nil {
			t.Errorf("%s: decode succeeded, want error", name)
		}
	}
}

// craft assembles a PXPRF001 encoding from raw fields: uint32 and int64
// values in the format's byte order, byte slices verbatim.
func craft(fields ...any) []byte {
	b := []byte(serialMagic)
	for _, f := range fields {
		switch v := f.(type) {
		case uint32:
			b = serialOrder.AppendUint32(b, v)
		case int64:
			b = serialOrder.AppendUint64(b, uint64(v))
		case []byte:
			b = append(b, v...)
		}
	}
	return b
}

// TestProfileDecodeBoundsAllocation feeds encodings whose length prefixes
// claim far more elements than the input holds. Each must fail, and must
// fail without allocating for the claim: the decoder may allocate about as
// much as the input, never what a header says.
func TestProfileDecodeBoundsAllocation(t *testing.T) {
	const levels = 1 << 16
	for name, data := range map[string][]byte{
		"exec counts": craft(int64(0), int64(0), uint32(1<<28)),
		"levels":      craft(int64(1<<28), int64(0), uint32(0), uint32(1<<28)),
		"miss indices": craft(int64(levels), int64(0), uint32(1), int64(1), uint32(levels), make([]byte, levels),
			uint32(1), uint32(0), int64(1), int64(1), int64(1), uint32(levels)),
	} {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, err := DecodeBinary(data)
		runtime.ReadMemStats(&after)
		if err == nil {
			t.Errorf("%s: decode succeeded, want error", name)
		}
		if alloc, limit := after.TotalAlloc-before.TotalAlloc, uint64(2*len(data))+16<<10; alloc > limit {
			t.Errorf("%s: decoding %d bytes allocated %d bytes, want at most %d", name, len(data), alloc, limit)
		}
	}
}

// FuzzProfileDecode drives the PXPRF001 decoder with arbitrary bytes: it
// must return an error or a profile, never panic, and a profile it returns
// must survive an encode/decode round trip unchanged. The allocation bound
// is TestProfileDecodeBoundsAllocation's.
func FuzzProfileDecode(f *testing.F) {
	var buf bytes.Buffer
	if err := Collect(strideLoop(f), smallHier()).EncodeBinary(&buf); err != nil {
		f.Fatal(err)
	}
	raw := buf.Bytes()
	for _, n := range []int{0, 7, 8, 16, 24, 28, 36, len(raw) / 2, len(raw) - 1, len(raw)} {
		f.Add(raw[:n])
	}
	f.Add(craft(int64(0), int64(0), uint32(1<<28)))
	f.Fuzz(func(t *testing.T, data []byte) {
		p, err := DecodeBinary(data)
		if err != nil {
			return
		}
		var enc bytes.Buffer
		if err := p.EncodeBinary(&enc); err != nil {
			t.Fatal(err)
		}
		again, err := DecodeBinary(enc.Bytes())
		if err != nil {
			t.Fatalf("re-decoding an encoded profile: %v", err)
		}
		if !reflect.DeepEqual(p, again) {
			t.Fatal("profile changed across an encode/decode round trip")
		}
	})
}
