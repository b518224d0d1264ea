package profile

// Binary (de)serialization of mined profiles for the on-disk artifact spill
// tier, on binrec's bounded reader and writer. The per-dynamic-instruction
// Levels column — the profile's bulk — is written as one raw byte run;
// loads are sorted by PC so the encoding is deterministic for identical
// profiles. The load record is shared with the slice-tree format
// (WriteLoad, ReadLoad).

import (
	"fmt"
	"io"
	"sort"

	"repro/internal/binrec"
)

const serialMagic = "PXPRF001"

// serialOrder is the format's byte order, binrec's; tests craft encodings
// with it.
var serialOrder = binrec.Order

// EncodeBinary writes the profile in the spill-tier format.
func (p *Profile) EncodeBinary(w io.Writer) error {
	bw := binrec.NewWriter(w)
	bw.Bytes([]byte(serialMagic))
	bw.I64(p.TotalInsts)
	bw.I64(p.TotalL2)
	bw.I64s(p.ExecCounts)
	bw.U32(uint32(len(p.Levels)))
	bw.Bytes(p.Levels)
	pcs := make([]int32, 0, len(p.Loads))
	for pc := range p.Loads {
		pcs = append(pcs, pc)
	}
	sort.Slice(pcs, func(i, j int) bool { return pcs[i] < pcs[j] })
	bw.U32(uint32(len(pcs)))
	for _, pc := range pcs {
		WriteLoad(bw, p.Loads[pc])
	}
	return bw.Flush()
}

// LoadMinBytes is the smallest encoded load record: PC, three counters and
// an empty miss-index list.
const LoadMinBytes = 4 + 3*8 + 4

// WriteLoad writes one load record: PC, the three counters and the
// length-prefixed miss indices. A nil load writes as the zero record.
func WriteLoad(w *binrec.Writer, ls *LoadStats) {
	if ls == nil {
		ls = &LoadStats{}
	}
	w.U32(uint32(ls.PC))
	w.I64(ls.Execs)
	w.I64(ls.L1Misses)
	w.I64(ls.L2Misses)
	w.I64s(ls.MissDynIx)
}

// ReadLoad reads one load record written by WriteLoad. An empty miss-index
// list reads as nil.
func ReadLoad(r *binrec.Reader) *LoadStats {
	// Fields decode in encoding order: operands evaluate left to right.
	return &LoadStats{PC: int32(r.U32()), Execs: r.I64(), L1Misses: r.I64(), L2Misses: r.I64(),
		MissDynIx: r.I64s()}
}

// DecodeBinary parses a profile in the spill-tier format. Every length
// prefix is bounded by the bytes that remain (binrec.Reader.Count) before
// anything is allocated. Decode errors mean corruption (or a stale format);
// callers quarantine and rebuild.
func DecodeBinary(data []byte) (*Profile, error) {
	r := binrec.NewReader(data)
	r.Magic(serialMagic)
	p := &Profile{TotalInsts: r.I64(), TotalL2: r.I64(), Loads: make(map[int32]*LoadStats)}
	p.ExecCounts = r.I64s()
	nLevels := r.Count(1)
	if r.Err() == nil && int64(nLevels) != p.TotalInsts {
		return nil, fmt.Errorf("profile: levels length %d != total instructions %d", nLevels, p.TotalInsts)
	}
	p.Levels = append(make([]uint8, 0, nLevels), r.Next(nLevels)...)
	nLoads := r.Count(LoadMinBytes)
	if nLoads > len(p.ExecCounts) {
		return nil, fmt.Errorf("profile: %d loads for %d static instructions", nLoads, len(p.ExecCounts))
	}
	for i := 0; i < nLoads && r.Err() == nil; i++ {
		ls := ReadLoad(r)
		if int64(len(ls.MissDynIx)) > p.TotalInsts {
			return nil, fmt.Errorf("profile: load %d has %d miss indices for %d instructions", ls.PC, len(ls.MissDynIx), p.TotalInsts)
		}
		p.Loads[ls.PC] = ls
	}
	if err := r.Done(); err != nil {
		return nil, fmt.Errorf("profile: decode: %w", err)
	}
	return p, nil
}
