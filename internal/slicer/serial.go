package slicer

// Binary (de)serialization of slice trees for the on-disk artifact spill
// tier. Each tree's nodes are flattened in depth-first preorder with parent
// indices, which both preserves the original child order (selection walks
// children in insertion order) and makes the encoding deterministic.

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"math"

	"repro/internal/profile"
)

const serialMagic = "PXSLC001"

var serialOrder = binary.LittleEndian

// EncodeTrees writes the slice trees in the spill-tier format.
func EncodeTrees(w io.Writer, trees []*Tree) error {
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
	if err := writeU32(uint32(len(trees))); err != nil {
		return err
	}
	for _, t := range trees {
		if err := writeU32(uint32(t.TargetPC)); err != nil {
			return err
		}
		ls := t.Load
		if ls == nil {
			ls = &profile.LoadStats{}
		}
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
		if err := writeI64(t.Sampled); err != nil {
			return err
		}
		if err := writeI64(int64(math.Float64bits(t.Scale))); err != nil {
			return err
		}
		// Flatten: preorder walk assigning indices; each node records its
		// parent's index (root's parent is ^uint32(0)).
		var flat []*Node
		index := map[*Node]uint32{}
		var walk func(n *Node)
		walk = func(n *Node) {
			index[n] = uint32(len(flat))
			flat = append(flat, n)
			for _, c := range n.Children {
				walk(c)
			}
		}
		walk(t.Root)
		if err := writeU32(uint32(len(flat))); err != nil {
			return err
		}
		for _, n := range flat {
			parent := ^uint32(0)
			if n.Parent != nil {
				parent = index[n.Parent]
			}
			if err := writeU32(parent); err != nil {
				return err
			}
			if err := writeU32(uint32(n.PC)); err != nil {
				return err
			}
			if err := writeU32(uint32(n.Depth)); err != nil {
				return err
			}
			for _, v := range []int64{n.DCtrig, n.DCptcm, n.DistSum} {
				if err := writeI64(v); err != nil {
					return err
				}
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

// Smallest encoded records: a node is parent, PC, depth and three
// counters; a tree is its target PC, a load with no miss indices, the
// sample count and scale, the node count and one node.
const (
	nodeMinBytes = 3*4 + 3*8
	treeMinBytes = 4 + (4 + 3*8 + 4) + 2*8 + 4 + nodeMinBytes
)

// DecodeTrees parses slice trees in the spill-tier format. Every length
// prefix is checked against the bytes that remain before anything is
// allocated, so a corrupt header costs an error, not memory. Decode errors
// mean corruption (or a stale format); callers quarantine and rebuild.
func DecodeTrees(data []byte) ([]*Tree, error) {
	if len(data) < len(serialMagic) || string(data[:len(serialMagic)]) != serialMagic {
		return nil, fmt.Errorf("slicer: bad magic %q", data[:min(len(data), len(serialMagic))])
	}
	d := &decoder{buf: data[len(serialMagic):]}
	trees := make([]*Tree, 0, d.count(treeMinBytes))
	for ti := 0; ti < cap(trees) && d.err == nil; ti++ {
		// Fields decode in encoding order: operands evaluate left to right.
		t := &Tree{TargetPC: int32(d.u32()),
			Load: &profile.LoadStats{PC: int32(d.u32()), Execs: d.i64(), L1Misses: d.i64(), L2Misses: d.i64()}}
		if nIx := d.count(8); nIx > 0 {
			t.Load.MissDynIx = make([]int64, nIx)
			for j := range t.Load.MissDynIx {
				t.Load.MissDynIx[j] = d.i64()
			}
		}
		t.Sampled = d.i64()
		t.Scale = math.Float64frombits(uint64(d.i64()))
		nNodes := d.count(nodeMinBytes)
		if d.err == nil && nNodes == 0 {
			return nil, fmt.Errorf("slicer: tree %d has no nodes", ti)
		}
		flat := make([]*Node, nNodes)
		for ni := 0; ni < nNodes && d.err == nil; ni++ {
			parent := d.u32()
			n := &Node{PC: int32(d.u32()), Depth: int(d.u32()), DCtrig: d.i64(), DCptcm: d.i64(), DistSum: d.i64()}
			flat[ni] = n
			switch {
			case d.err != nil:
			case parent == ^uint32(0):
				if ni != 0 {
					return nil, fmt.Errorf("slicer: tree %d has a second root at node %d", ti, ni)
				}
				t.Root = n
			case int64(parent) >= int64(ni):
				// Preorder guarantees parents precede children; a forward
				// reference is corruption (and would otherwise nil-deref).
				return nil, fmt.Errorf("slicer: tree %d node %d references parent %d out of order", ti, ni, parent)
			default:
				n.Parent = flat[parent]
				n.Parent.Children = append(n.Parent.Children, n)
			}
		}
		if d.err == nil && t.Root == nil {
			return nil, fmt.Errorf("slicer: tree %d has no root", ti)
		}
		trees = append(trees, t)
	}
	if d.err != nil {
		return nil, fmt.Errorf("slicer: decode: %w", d.err)
	}
	if len(d.buf) != 0 {
		return nil, fmt.Errorf("slicer: trailing bytes after last tree")
	}
	return trees, nil
}
