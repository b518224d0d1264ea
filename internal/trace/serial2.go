package trace

// Spill format (PXTRC003): the mmap-ready layout of the chunked
// structure-of-arrays trace. Every column segment sits on a 4 KiB page
// boundary, so a loader can map the file read-only and alias the chunk
// columns (pc/prod1/prod2/addr/val/taken) directly onto the mapping — zero
// decode, zero copy, page-cache-resident and shared across processes. The
// producer columns hold index + 1 exactly as in memory (see the package
// comment), so the heap decode copies them verbatim too.
//
// The program itself is deliberately NOT serialized: the caller supplies it
// on decode (the disk store rebuilds it from the benchmark registry, which
// the store key's content fingerprint already covers). The trailer carries
// the program's shape (name, instruction count, memory size) so a stale or
// mismatched file is detected as corruption instead of producing a trace
// whose PCs silently index a different program.
//
// Payload layout (offsets relative to the payload start, which the aligned
// artifact container places on a page boundary of the file):
//
//	header page  64-byte fixed header, zero-padded to 4096:
//	             magic "PXTRC003" | n u64 | reserved u32 (0) |
//	             chunkBits u32 | trailerOff u64 | trailerLen u64 |
//	             trailerCRC u32 | numChunks u32 | reserved[12] |
//	             headerCRC u32 (CRC32-C of the first 60 bytes)
//	per chunk    six column segments, each zero-padded to a page multiple:
//	             pc 4·filled | prod1 4·filled | prod2 4·filled |
//	             addr 8·filled | val 8·filled | taken 8·⌈filled/64⌉
//	             then one footer page: chunkCRC u32 | filled u32 |
//	             minPC i32 | maxPC i32 | zeros — chunkCRC is CRC32-C over
//	             the padded data region followed by footer bytes 4..16, so
//	             the recorded entry count and PC range are integrity-bound
//	             to the column data they describe
//	trailer      nameLen u32 + name | nInsts u32 | nMem u32 |
//	             64 × finalReg i64 | reserved u64 (0) — covered whole by
//	             the header's trailerCRC
//
// All integers are little-endian. Every offset is derivable from n alone,
// so the verifier recomputes the layout and rejects any header whose
// claimed geometry disagrees before touching chunk data. Verification is
// once per chunk (CRC + PC range) and chunk-parallel. The two reserved
// fields keep the payload the same length as PXTRC002's and must be zero.
// Bump the magic's trailing digits on any layout or encoding change so old
// spill files quarantine instead of misloading.

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"runtime"
	"sync"
	"sync/atomic"
	"unsafe"

	"repro/internal/isa"
)

// serialMagic identifies the spill format.
const serialMagic = "PXTRC003"

var serialOrder = binary.LittleEndian

const (
	v2Page       = 4096
	v2HeaderSize = 64
)

var crcCastagnoli = crc32.MakeTable(crc32.Castagnoli)

// hostLittleEndian gates the zero-copy alias path: the on-disk words are
// little-endian, so aliasing them as native integers is only correct on a
// little-endian host. Big-endian hosts take the conversion fallback.
var hostLittleEndian = func() bool {
	var x uint16 = 0x0102
	return *(*byte)(unsafe.Pointer(&x)) == 0x02
}()

// v2PadLen returns the zero padding that rounds n up to a page multiple.
func v2PadLen(n int64) int64 { return (v2Page - n%v2Page) % v2Page }

// v2SegSizes returns the padded sizes of a chunk's six column segments.
func v2SegSizes(filled int64) [6]int64 {
	words := (filled + 63) / 64
	p4 := 4*filled + v2PadLen(4*filled)
	p8 := 8*filled + v2PadLen(8*filled)
	pt := 8*words + v2PadLen(8*words)
	return [6]int64{p4, p4, p4, p8, p8, pt}
}

// v2ChunkRegion returns the byte size of one chunk's on-disk region: the six
// padded column segments plus the footer page.
func v2ChunkRegion(filled int64) int64 {
	sizes := v2SegSizes(filled)
	total := int64(v2Page)
	for _, s := range sizes {
		total += s
	}
	return total
}

// v2Filled returns the entry count of chunk ci in an n-entry trace.
func v2Filled(n int64, ci int) int64 {
	filled := n - int64(ci)<<chunkBits
	if filled > chunkLen {
		filled = chunkLen
	}
	return filled
}

// v2TrailerOff returns the payload offset of the trailer: header page plus
// every chunk region. Closed-form (all chunks but the last are full) so a
// hostile header is checked without looping over its claimed chunk count.
func v2TrailerOff(n int64) int64 {
	numChunks := (n + chunkLen - 1) >> chunkBits
	if numChunks == 0 {
		return v2Page
	}
	return v2Page + (numChunks-1)*v2ChunkRegion(chunkLen) + v2ChunkRegion(v2Filled(n, int(numChunks-1)))
}

// v2Trailer serializes the program shape and final registers.
func (t *Trace) v2Trailer() []byte {
	var b bytes.Buffer
	var scratch [8]byte
	putU32 := func(v uint32) {
		serialOrder.PutUint32(scratch[:4], v)
		b.Write(scratch[:4])
	}
	putI64 := func(v int64) {
		serialOrder.PutUint64(scratch[:8], uint64(v))
		b.Write(scratch[:8])
	}
	putU32(uint32(len(t.Prog.Name)))
	b.WriteString(t.Prog.Name)
	putU32(uint32(len(t.Prog.Insts)))
	putU32(uint32(len(t.Prog.InitMem)))
	for _, r := range t.FinalRegs {
		putI64(r)
	}
	putI64(0) // reserved
	return b.Bytes()
}

// EncodeBinaryV2 writes the trace in the page-aligned mappable format. For
// the columns to land on page boundaries of the underlying file, the writer
// must start at a page-aligned file offset (the aligned artifact container
// guarantees this).
func (t *Trace) EncodeBinaryV2(w io.Writer) error {
	bw := bufio.NewWriterSize(w, 1<<16)
	trailer := t.v2Trailer()
	n := int64(t.n)
	trailerOff := v2TrailerOff(n)

	hdr := make([]byte, v2Page)
	copy(hdr, serialMagic)
	serialOrder.PutUint64(hdr[8:], uint64(n))
	serialOrder.PutUint32(hdr[20:], chunkBits)
	serialOrder.PutUint64(hdr[24:], uint64(trailerOff))
	serialOrder.PutUint64(hdr[32:], uint64(len(trailer)))
	serialOrder.PutUint32(hdr[40:], crc32.Checksum(trailer, crcCastagnoli))
	serialOrder.PutUint32(hdr[44:], uint32(len(t.chunks)))
	serialOrder.PutUint32(hdr[60:], crc32.Checksum(hdr[:60], crcCastagnoli))
	if _, err := bw.Write(hdr); err != nil {
		return err
	}

	buf := make([]byte, chunkLen*8)
	zeros := make([]byte, v2Page)
	for ci := range t.chunks {
		c := &t.chunks[ci]
		filled := int(v2Filled(n, ci))
		crc := uint32(0)
		writeSeg := func(seg []byte) error {
			crc = crc32.Update(crc, crcCastagnoli, seg)
			if _, err := bw.Write(seg); err != nil {
				return err
			}
			if pad := v2PadLen(int64(len(seg))); pad > 0 {
				crc = crc32.Update(crc, crcCastagnoli, zeros[:pad])
				if _, err := bw.Write(zeros[:pad]); err != nil {
					return err
				}
			}
			return nil
		}
		minPC, maxPC := int32(0), int32(-1)
		for i, v := range c.pc[:filled] {
			serialOrder.PutUint32(buf[i*4:], uint32(v))
			if i == 0 || v < minPC {
				minPC = v
			}
			if i == 0 || v > maxPC {
				maxPC = v
			}
		}
		if err := writeSeg(buf[:filled*4]); err != nil {
			return err
		}
		for i, v := range c.prod1[:filled] {
			serialOrder.PutUint32(buf[i*4:], v)
		}
		if err := writeSeg(buf[:filled*4]); err != nil {
			return err
		}
		for i, v := range c.prod2[:filled] {
			serialOrder.PutUint32(buf[i*4:], v)
		}
		if err := writeSeg(buf[:filled*4]); err != nil {
			return err
		}
		for i, v := range c.addr[:filled] {
			serialOrder.PutUint64(buf[i*8:], uint64(v))
		}
		if err := writeSeg(buf[:filled*8]); err != nil {
			return err
		}
		for i, v := range c.val[:filled] {
			serialOrder.PutUint64(buf[i*8:], uint64(v))
		}
		if err := writeSeg(buf[:filled*8]); err != nil {
			return err
		}
		words := (filled + 63) / 64
		for i, v := range c.taken[:words] {
			serialOrder.PutUint64(buf[i*8:], v)
		}
		if err := writeSeg(buf[:words*8]); err != nil {
			return err
		}
		var fb [v2Page]byte
		footer := fb[:]
		serialOrder.PutUint32(footer[4:], uint32(filled))
		serialOrder.PutUint32(footer[8:], uint32(minPC))
		serialOrder.PutUint32(footer[12:], uint32(maxPC))
		crc = crc32.Update(crc, crcCastagnoli, footer[4:16])
		serialOrder.PutUint32(footer[0:], crc)
		if _, err := bw.Write(footer); err != nil {
			return err
		}
	}
	if _, err := bw.Write(trailer); err != nil {
		return err
	}
	return bw.Flush()
}

// v2Layout is the verified geometry of a v2 payload.
type v2Layout struct {
	n          int64
	numChunks  int
	trailerOff int64
	trailerLen int64
	trailerCRC uint32
}

// parseV2Header verifies the fixed header against its CRC and recomputes the
// canonical layout from n, rejecting any geometry disagreement before a
// single chunk byte is trusted.
func parseV2Header(data []byte) (v2Layout, error) {
	var lay v2Layout
	if len(data) < v2Page {
		return lay, fmt.Errorf("trace: v2 payload shorter than header page (%d bytes)", len(data))
	}
	if string(data[:len(serialMagic)]) != serialMagic {
		return lay, fmt.Errorf("trace: bad magic %q", data[:len(serialMagic)])
	}
	if got, want := crc32.Checksum(data[:60], crcCastagnoli), serialOrder.Uint32(data[60:]); got != want {
		return lay, fmt.Errorf("trace: v2 header crc mismatch (%08x != %08x)", got, want)
	}
	lay.n = int64(serialOrder.Uint64(data[8:]))
	if lay.n < 0 || lay.n > maxEntries {
		return lay, fmt.Errorf("trace: implausible entry count %d", lay.n)
	}
	if r := serialOrder.Uint32(data[16:]); r != 0 {
		return lay, fmt.Errorf("trace: v2 header reserved field is %#x, want 0", r)
	}
	if cb := serialOrder.Uint32(data[20:]); cb != chunkBits {
		return lay, fmt.Errorf("trace: v2 chunk geometry 2^%d, want 2^%d", cb, chunkBits)
	}
	lay.trailerOff = int64(serialOrder.Uint64(data[24:]))
	lay.trailerLen = int64(serialOrder.Uint64(data[32:]))
	lay.trailerCRC = serialOrder.Uint32(data[40:])
	numChunks := (lay.n + chunkLen - 1) >> chunkBits
	if got := serialOrder.Uint32(data[44:]); int64(got) != numChunks {
		return lay, fmt.Errorf("trace: v2 header claims %d chunks for %d entries, want %d", got, lay.n, numChunks)
	}
	lay.numChunks = int(numChunks)
	if want := v2TrailerOff(lay.n); lay.trailerOff != want {
		return lay, fmt.Errorf("trace: v2 trailer offset %d disagrees with layout (%d)", lay.trailerOff, want)
	}
	if lay.trailerLen < 0 || lay.trailerOff+lay.trailerLen != int64(len(data)) {
		return lay, fmt.Errorf("trace: v2 payload is %d bytes, layout wants %d", len(data), lay.trailerOff+lay.trailerLen)
	}
	return lay, nil
}

// parseV2Trailer verifies the trailer CRC, matches the program shape and
// restores final registers into t.
func parseV2Trailer(data []byte, lay v2Layout, prog *isa.Program, t *Trace) error {
	tb := data[lay.trailerOff : lay.trailerOff+lay.trailerLen]
	if got := crc32.Checksum(tb, crcCastagnoli); got != lay.trailerCRC {
		return fmt.Errorf("trace: v2 trailer crc mismatch (%08x != %08x)", got, lay.trailerCRC)
	}
	off := 0
	need := func(k int) error {
		if len(tb)-off < k {
			return fmt.Errorf("trace: v2 trailer truncated at byte %d", off)
		}
		return nil
	}
	readU32 := func() (uint32, error) {
		if err := need(4); err != nil {
			return 0, err
		}
		v := serialOrder.Uint32(tb[off:])
		off += 4
		return v, nil
	}
	readI64 := func() (int64, error) {
		if err := need(8); err != nil {
			return 0, err
		}
		v := int64(serialOrder.Uint64(tb[off:]))
		off += 8
		return v, nil
	}
	nameLen, err := readU32()
	if err != nil {
		return err
	}
	if nameLen > 1<<16 {
		return fmt.Errorf("trace: implausible program name length %d", nameLen)
	}
	if err := need(int(nameLen)); err != nil {
		return err
	}
	name := string(tb[off : off+int(nameLen)])
	off += int(nameLen)
	nInsts, err := readU32()
	if err != nil {
		return err
	}
	nMem, err := readU32()
	if err != nil {
		return err
	}
	if name != prog.Name || int(nInsts) != len(prog.Insts) || int(nMem) != len(prog.InitMem) {
		return fmt.Errorf("trace: encoded for program %q (%d insts, %d mem words), got %q (%d, %d)",
			name, nInsts, nMem, prog.Name, len(prog.Insts), len(prog.InitMem))
	}
	for i := range t.FinalRegs {
		if t.FinalRegs[i], err = readI64(); err != nil {
			return err
		}
	}
	if r, err := readI64(); err != nil {
		return err
	} else if r != 0 {
		return fmt.Errorf("trace: v2 trailer reserved field is %#x, want 0", r)
	}
	if off != len(tb) {
		return fmt.Errorf("trace: %d trailing bytes after v2 trailer", len(tb)-off)
	}
	return nil
}

// DecodeBinaryV2 decodes a spill payload into heap-owned chunks. Chunk
// verification and column copies run chunk-parallel. Errors mean
// corruption or a stale format (quarantine and rebuild), never a fatal
// condition.
func DecodeBinaryV2(data []byte, prog *isa.Program) (*Trace, error) {
	t, _, err := decodeV2(data, prog, false)
	return t, err
}

// MapBytes builds a Trace whose chunk columns alias data in place — the
// zero-copy load path for an mmap'd spill file. The caller must keep data
// valid (mapped) for the lifetime of the returned Trace, and must never
// write through it. The returned flag reports whether the columns truly
// alias data; when aliasing is impossible (base not 8-byte aligned, or a
// big-endian host) MapBytes silently falls back to the heap decode — that
// is a capability miss, not corruption, so no error.
func MapBytes(data []byte, prog *isa.Program) (*Trace, bool, error) {
	return decodeV2(data, prog, true)
}

// decodeV2 is the shared verifier/loader behind DecodeBinaryV2 and
// MapBytes: parse+check header and trailer, then verify each chunk's CRC
// and PC range once per chunk in parallel, aliasing or copying its columns.
func decodeV2(data []byte, prog *isa.Program, wantAlias bool) (*Trace, bool, error) {
	lay, err := parseV2Header(data)
	if err != nil {
		return nil, false, err
	}
	t := &Trace{Prog: prog, n: int(lay.n)}
	if err := parseV2Trailer(data, lay, prog, t); err != nil {
		return nil, false, err
	}
	alias := wantAlias && hostLittleEndian &&
		uintptr(unsafe.Pointer(unsafe.SliceData(data)))%8 == 0
	if lay.numChunks == 0 {
		return t, false, nil
	}
	t.chunks = make([]chunk, lay.numChunks)

	fullRegion := v2ChunkRegion(chunkLen)
	workers := runtime.GOMAXPROCS(0)
	if workers > lay.numChunks {
		workers = lay.numChunks
	}
	if workers == 1 {
		// Nothing to fan out to: verify inline, no goroutine round-trip.
		for ci := 0; ci < lay.numChunks; ci++ {
			if err := decodeV2Chunk(data, lay, prog, t, ci, v2Page+int64(ci)*fullRegion, alias); err != nil {
				return nil, false, err
			}
		}
		return t, alias, nil
	}
	var next atomic.Int64
	var failed atomic.Bool
	errs := make([]error, lay.numChunks)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				ci := int(next.Add(1) - 1)
				if ci >= lay.numChunks || failed.Load() {
					return
				}
				if err := decodeV2Chunk(data, lay, prog, t, ci, v2Page+int64(ci)*fullRegion, alias); err != nil {
					errs[ci] = err
					failed.Store(true)
					return
				}
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, false, err
		}
	}
	return t, alias, nil
}

// decodeV2Chunk verifies one chunk region (CRC over the padded data, footer
// agreement, PC range) and installs its columns — aliased or copied.
func decodeV2Chunk(data []byte, lay v2Layout, prog *isa.Program, t *Trace, ci int, off int64, alias bool) error {
	filled := v2Filled(lay.n, ci)
	sizes := v2SegSizes(filled)
	dataSize := int64(0)
	for _, s := range sizes {
		dataSize += s
	}
	region := data[off : off+dataSize]
	footer := data[off+dataSize : off+dataSize+v2Page]
	got := crc32.Checksum(region, crcCastagnoli)
	got = crc32.Update(got, crcCastagnoli, footer[4:16])
	if want := serialOrder.Uint32(footer); got != want {
		return fmt.Errorf("trace: chunk %d crc mismatch (%08x != %08x)", ci, got, want)
	}
	if got := serialOrder.Uint32(footer[4:]); int64(got) != filled {
		return fmt.Errorf("trace: chunk %d footer claims %d entries, want %d", ci, got, filled)
	}
	// PCs must index the supplied program; a wild PC would otherwise crash a
	// consumer much later. The footer's recorded range is integrity-bound to
	// the pc column by the chunk CRC (our encoder is the only writer), so the
	// bounds check is O(1) — no second pass over the column.
	minPC := int32(serialOrder.Uint32(footer[8:]))
	maxPC := int32(serialOrder.Uint32(footer[12:]))
	if filled > 0 && (minPC < 0 || minPC > maxPC || int(maxPC) >= len(prog.Insts)) {
		return fmt.Errorf("trace: chunk %d holds pcs %d..%d outside program (%d insts)",
			ci, minPC, maxPC, len(prog.Insts))
	}
	f := int(filled)
	words := (f + 63) / 64
	var segs [6][]byte
	p := int64(0)
	for i, s := range sizes {
		segs[i] = region[p : p+s]
		p += s
	}
	var c chunk
	if alias {
		c.pc = unsafe.Slice((*int32)(unsafe.Pointer(unsafe.SliceData(segs[0]))), f)
		c.prod1 = unsafe.Slice((*uint32)(unsafe.Pointer(unsafe.SliceData(segs[1]))), f)
		c.prod2 = unsafe.Slice((*uint32)(unsafe.Pointer(unsafe.SliceData(segs[2]))), f)
		c.addr = unsafe.Slice((*int64)(unsafe.Pointer(unsafe.SliceData(segs[3]))), f)
		c.val = unsafe.Slice((*int64)(unsafe.Pointer(unsafe.SliceData(segs[4]))), f)
		c.taken = unsafe.Slice((*uint64)(unsafe.Pointer(unsafe.SliceData(segs[5]))), words)
	} else {
		c = newChunk()
		for i := 0; i < f; i++ {
			c.pc[i] = int32(serialOrder.Uint32(segs[0][i*4:]))
		}
		for i := 0; i < f; i++ {
			c.prod1[i] = serialOrder.Uint32(segs[1][i*4:])
		}
		for i := 0; i < f; i++ {
			c.prod2[i] = serialOrder.Uint32(segs[2][i*4:])
		}
		for i := 0; i < f; i++ {
			c.addr[i] = int64(serialOrder.Uint64(segs[3][i*8:]))
		}
		for i := 0; i < f; i++ {
			c.val[i] = int64(serialOrder.Uint64(segs[4][i*8:]))
		}
		for i := 0; i < words; i++ {
			c.taken[i] = serialOrder.Uint64(segs[5][i*8:])
		}
	}
	t.chunks[ci] = c
	return nil
}
