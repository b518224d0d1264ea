package profile

// Binary (de)serialization of mined profiles for the on-disk artifact spill
// tier. The per-dynamic-instruction Levels column — the profile's bulk — is
// written as one raw byte run; loads are sorted by PC so the encoding is
// deterministic for identical profiles.

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"sort"
)

const serialMagic = "PXPRF001"

var serialOrder = binary.LittleEndian

// EncodeBinary writes the profile in the spill-tier format.
func (p *Profile) EncodeBinary(w io.Writer) error {
	bw := bufio.NewWriterSize(w, 1<<16)
	if _, err := bw.WriteString(serialMagic); err != nil {
		return err
	}
	var scratch [8]byte
	writeU32 := func(v uint32) error {
		serialOrder.PutUint32(scratch[:4], v)
		_, err := bw.Write(scratch[:4])
		return err
	}
	writeI64 := func(v int64) error {
		serialOrder.PutUint64(scratch[:8], uint64(v))
		_, err := bw.Write(scratch[:8])
		return err
	}
	if err := writeI64(p.TotalInsts); err != nil {
		return err
	}
	if err := writeI64(p.TotalL2); err != nil {
		return err
	}
	if err := writeU32(uint32(len(p.ExecCounts))); err != nil {
		return err
	}
	for _, c := range p.ExecCounts {
		if err := writeI64(c); err != nil {
			return err
		}
	}
	if err := writeU32(uint32(len(p.Levels))); err != nil {
		return err
	}
	if _, err := bw.Write(p.Levels); err != nil {
		return err
	}
	pcs := make([]int32, 0, len(p.Loads))
	for pc := range p.Loads {
		pcs = append(pcs, pc)
	}
	sort.Slice(pcs, func(i, j int) bool { return pcs[i] < pcs[j] })
	if err := writeU32(uint32(len(pcs))); err != nil {
		return err
	}
	for _, pc := range pcs {
		ls := p.Loads[pc]
		if err := writeU32(uint32(ls.PC)); err != nil {
			return err
		}
		for _, v := range []int64{ls.Execs, ls.L1Misses, ls.L2Misses} {
			if err := writeI64(v); err != nil {
				return err
			}
		}
		if err := writeU32(uint32(len(ls.MissDynIx))); err != nil {
			return err
		}
		for _, ix := range ls.MissDynIx {
			if err := writeI64(ix); err != nil {
				return err
			}
		}
	}
	return bw.Flush()
}

// decoder reads the spill format's little-endian fields from an encoding
// held in memory. The first read past the end, or the first length prefix
// the remaining bytes cannot hold, sets err; every later read returns zero.
type decoder struct {
	buf []byte
	err error
}

func (d *decoder) next(n int) []byte {
	if d.err == nil && n > len(d.buf) {
		d.err = io.ErrUnexpectedEOF
	}
	if d.err != nil {
		return nil
	}
	b := d.buf[:n]
	d.buf = d.buf[n:]
	return b
}

func (d *decoder) u32() uint32 {
	if b := d.next(4); b != nil {
		return serialOrder.Uint32(b)
	}
	return 0
}

func (d *decoder) i64() int64 {
	if b := d.next(8); b != nil {
		return int64(serialOrder.Uint64(b))
	}
	return 0
}

// count reads a length prefix of elements that each take at least size
// bytes, and rejects one that the remaining bytes cannot hold, so nothing
// allocated from it outgrows the input.
func (d *decoder) count(size int) int {
	n := d.u32()
	if d.err == nil && uint64(n)*uint64(size) > uint64(len(d.buf)) {
		d.err = fmt.Errorf("length %d exceeds the %d bytes that remain", n, len(d.buf))
	}
	if d.err != nil {
		return 0
	}
	return int(n)
}

// loadMinBytes is the smallest encoded load record: PC, three counters and
// an empty miss-index list.
const loadMinBytes = 4 + 3*8 + 4

// DecodeBinary parses a profile in the spill-tier format. Every length
// prefix is checked against the bytes that remain before anything is
// allocated, so a corrupt header costs an error, not memory. Decode errors
// mean corruption (or a stale format); callers quarantine and rebuild.
func DecodeBinary(data []byte) (*Profile, error) {
	if len(data) < len(serialMagic) || string(data[:len(serialMagic)]) != serialMagic {
		return nil, fmt.Errorf("profile: bad magic %q", data[:min(len(data), len(serialMagic))])
	}
	d := &decoder{buf: data[len(serialMagic):]}
	p := &Profile{TotalInsts: d.i64(), TotalL2: d.i64(), Loads: make(map[int32]*LoadStats)}
	p.ExecCounts = make([]int64, d.count(8))
	for i := range p.ExecCounts {
		p.ExecCounts[i] = d.i64()
	}
	nLevels := d.count(1)
	if d.err == nil && int64(nLevels) != p.TotalInsts {
		return nil, fmt.Errorf("profile: levels length %d != total instructions %d", nLevels, p.TotalInsts)
	}
	p.Levels = append(make([]uint8, 0, nLevels), d.next(nLevels)...)
	nLoads := d.count(loadMinBytes)
	if nLoads > len(p.ExecCounts) {
		return nil, fmt.Errorf("profile: %d loads for %d static instructions", nLoads, len(p.ExecCounts))
	}
	for i := 0; i < nLoads && d.err == nil; i++ {
		// Fields decode in encoding order: operands evaluate left to right.
		ls := &LoadStats{PC: int32(d.u32()), Execs: d.i64(), L1Misses: d.i64(), L2Misses: d.i64()}
		if nIx := d.count(8); nIx > 0 {
			if int64(nIx) > p.TotalInsts {
				return nil, fmt.Errorf("profile: load %d has %d miss indices for %d instructions", ls.PC, nIx, p.TotalInsts)
			}
			ls.MissDynIx = make([]int64, nIx)
			for j := range ls.MissDynIx {
				ls.MissDynIx[j] = d.i64()
			}
		}
		p.Loads[ls.PC] = ls
	}
	if d.err != nil {
		return nil, fmt.Errorf("profile: decode: %w", d.err)
	}
	if len(d.buf) != 0 {
		return nil, fmt.Errorf("profile: trailing bytes after last load")
	}
	return p, nil
}
