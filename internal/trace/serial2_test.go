package trace

import (
	"bytes"
	"hash/crc32"
	"strings"
	"testing"

	"repro/internal/isa"
)

// serialProgram builds a small workload with loads, stores and branches,
// looping long enough that the trace exercises several branch-bitset words.
func serialProgram(t *testing.T) *isa.Program {
	t.Helper()
	b := isa.NewBuilder("serial")
	const words = 64
	mem := make([]int64, words)
	for i := range mem {
		mem[i] = int64(i*3 + 1)
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

func tracesEqual(t *testing.T, a, b *Trace) {
	t.Helper()
	if a.Len() != b.Len() {
		t.Fatalf("len %d != %d", a.Len(), b.Len())
	}
	if a.FinalRegs != b.FinalRegs {
		t.Fatalf("final registers diverge")
	}
	for i := 0; i < a.Len(); i++ {
		if a.PC(i) != b.PC(i) || a.Prod1(i) != b.Prod1(i) || a.Prod2(i) != b.Prod2(i) ||
			a.Addr(i) != b.Addr(i) || a.Val(i) != b.Val(i) || a.Taken(i) != b.Taken(i) {
			t.Fatalf("entry %d diverges: (%d %d %d %d %d %v) vs (%d %d %d %d %d %v)", i,
				a.PC(i), a.Prod1(i), a.Prod2(i), a.Addr(i), a.Val(i), a.Taken(i),
				b.PC(i), b.Prod1(i), b.Prod2(i), b.Addr(i), b.Val(i), b.Taken(i))
		}
	}
}

// encodeV2 encodes tr and returns the payload bytes. Heap slices of this
// size are at least 8-byte aligned, so MapBytes on the result exercises the
// true alias path.
func encodeV2(t *testing.T, tr *Trace) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := tr.EncodeBinaryV2(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestSerialV2RoundTripHeap(t *testing.T) {
	prog := serialProgram(t)
	tr := MustRun(prog)
	data := encodeV2(t, tr)
	got, err := DecodeBinaryV2(data, prog)
	if err != nil {
		t.Fatal(err)
	}
	tracesEqual(t, tr, got)

	// Deterministic bytes: re-encoding the decoded trace yields identical
	// output.
	data2 := encodeV2(t, got)
	if !bytes.Equal(data, data2) {
		t.Error("re-encoding a v2-decoded trace changed the bytes")
	}
}

func TestSerialV2RoundTripMapped(t *testing.T) {
	prog := serialProgram(t)
	tr := MustRun(prog)
	data := encodeV2(t, tr)
	got, aliased, err := MapBytes(data, prog)
	if err != nil {
		t.Fatal(err)
	}
	if hostLittleEndian && !aliased {
		t.Fatal("MapBytes did not alias an aligned buffer on a little-endian host")
	}
	tracesEqual(t, tr, got)

	// A mapped trace must re-encode: its columns alias read-only bytes but
	// are otherwise ordinary slices.
	if !bytes.Equal(data, encodeV2(t, got)) {
		t.Error("re-encoding a mapped trace changed the bytes")
	}
}

func TestSerialV2MisalignedFallsBackToHeap(t *testing.T) {
	prog := serialProgram(t)
	tr := MustRun(prog)
	data := encodeV2(t, tr)
	// Shift the payload off 8-byte alignment: aliasing is impossible but
	// that is a capability miss, not corruption — the decode must succeed.
	shifted := make([]byte, len(data)+1)
	copy(shifted[1:], data)
	got, aliased, err := MapBytes(shifted[1:], prog)
	if err != nil {
		t.Fatal(err)
	}
	if aliased {
		t.Fatal("MapBytes claims to alias a misaligned buffer")
	}
	tracesEqual(t, tr, got)
}

func TestSerialV2Corruption(t *testing.T) {
	prog := serialProgram(t)
	tr := MustRun(prog)
	pristine := encodeV2(t, tr)

	// resealHeader recomputes the header CRC so a forged header field is
	// caught by its own check rather than by the checksum.
	resealHeader := func(d []byte) {
		serialOrder.PutUint32(d[60:], crc32.Checksum(d[:60], crcCastagnoli))
	}
	// staleMagic rewrites the magic's version digit, as an older writer
	// would have stamped it.
	staleMagic := func(version byte) func([]byte) []byte {
		return func(d []byte) []byte {
			d[len(serialMagic)-1] = version
			resealHeader(d)
			return d
		}
	}
	cases := []struct {
		name    string
		mutate  func(data []byte) []byte
		wantErr string
	}{
		{"header magic flip", func(d []byte) []byte { d[0] ^= 0xff; return d }, "bad magic"},
		{"stale v1 magic", staleMagic('1'), "bad magic"},
		{"stale v2 magic", staleMagic('2'), "bad magic"},
		{"header reserved nonzero", func(d []byte) []byte {
			d[16] = 1
			resealHeader(d)
			return d
		}, "reserved"},
		{"trailer reserved nonzero", func(d []byte) []byte {
			d[len(d)-8] = 1
			off := serialOrder.Uint64(d[24:])
			serialOrder.PutUint32(d[40:], crc32.Checksum(d[off:], crcCastagnoli))
			resealHeader(d)
			return d
		}, "reserved"},
		{"header field flip", func(d []byte) []byte { d[9] ^= 1; return d }, "header crc"},
		{"chunk bit flip", func(d []byte) []byte { d[v2Page+17] ^= 1; return d }, "crc mismatch"},
		{"padding bit flip", func(d []byte) []byte {
			// Last byte of the pc segment's padding, inside the CRC'd region.
			d[v2Page+4*tr.Len()+int(v2PadLen(int64(4*tr.Len())))-1] ^= 1
			return d
		}, "crc mismatch"},
		{"footer filled flip", func(d []byte) []byte {
			// The footer's filled/minPC/maxPC words are covered by the chunk
			// CRC, so a flip there reads as chunk corruption.
			off := int(v2ChunkRegion(int64(tr.Len())))
			d[off+4] ^= 1
			return d
		}, "crc mismatch"},
		{"footer pc range forged", func(d []byte) []byte {
			// Rewrite maxPC past the program and recompute the chunk CRC, so
			// only the O(1) range check can catch it.
			region := int(v2ChunkRegion(int64(tr.Len()))) - v2Page
			footer := d[v2Page+region:]
			serialOrder.PutUint32(footer[12:], 1<<20)
			crc := crc32.Checksum(d[v2Page:v2Page+region], crcCastagnoli)
			crc = crc32.Update(crc, crcCastagnoli, footer[4:16])
			serialOrder.PutUint32(footer, crc)
			return d
		}, "outside program"},
		{"truncated tail", func(d []byte) []byte { return d[:len(d)-3] }, "layout wants"},
		{"trailing byte", func(d []byte) []byte { return append(d, 0xff) }, "layout wants"},
		{"truncated header", func(d []byte) []byte { return d[:100] }, "shorter than header"},
		{"trailer flip", func(d []byte) []byte { d[len(d)-1] ^= 1; return d }, "trailer crc"},
		{"empty", func(d []byte) []byte { return nil }, ""},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			data := tc.mutate(append([]byte(nil), pristine...))
			if _, err := DecodeBinaryV2(data, prog); err == nil {
				t.Fatal("heap decode accepted corrupted payload")
			} else if tc.wantErr != "" && !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("heap decode error %q does not mention %q", err, tc.wantErr)
			}
			if _, _, err := MapBytes(data, prog); err == nil {
				t.Fatal("MapBytes accepted corrupted payload")
			}
		})
	}
}

func TestSerialV2WrongProgram(t *testing.T) {
	prog := serialProgram(t)
	tr := MustRun(prog)
	data := encodeV2(t, tr)
	other := sumLoop(8, []int64{1, 2, 3, 4})
	if _, err := DecodeBinaryV2(data, other); err == nil {
		t.Fatal("heap decode accepted a payload encoded for a different program")
	}
	if _, _, err := MapBytes(data, other); err == nil {
		t.Fatal("MapBytes accepted a payload encoded for a different program")
	}
}
