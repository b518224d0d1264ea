package slicer

// Binary (de)serialization of slice trees for the on-disk artifact spill
// tier, on binrec's bounded reader and writer. Each tree's nodes are
// flattened in depth-first preorder with parent indices, which both
// preserves the original child order (selection walks children in insertion
// order) and makes the encoding deterministic. A tree's load is the
// profile's load record (profile.WriteLoad, profile.ReadLoad).

import (
	"fmt"
	"io"
	"math"

	"repro/internal/binrec"
	"repro/internal/profile"
)

const serialMagic = "PXSLC001"

// serialOrder is the format's byte order, binrec's; tests craft encodings
// with it.
var serialOrder = binrec.Order

// EncodeTrees writes the slice trees in the spill-tier format.
func EncodeTrees(w io.Writer, trees []*Tree) error {
	bw := binrec.NewWriter(w)
	bw.Bytes([]byte(serialMagic))
	bw.U32(uint32(len(trees)))
	for _, t := range trees {
		bw.U32(uint32(t.TargetPC))
		profile.WriteLoad(bw, t.Load)
		bw.I64(t.Sampled)
		bw.I64(int64(math.Float64bits(t.Scale)))
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
		bw.U32(uint32(len(flat)))
		for _, n := range flat {
			parent := ^uint32(0)
			if n.Parent != nil {
				parent = index[n.Parent]
			}
			bw.U32(parent)
			bw.U32(uint32(n.PC))
			bw.U32(uint32(n.Depth))
			bw.I64(n.DCtrig)
			bw.I64(n.DCptcm)
			bw.I64(n.DistSum)
		}
	}
	return bw.Flush()
}

// Smallest encoded records: a node is parent, PC, depth and three
// counters; a tree is its target PC, a load with no miss indices, the
// sample count and scale, the node count and one node.
const (
	nodeMinBytes = 3*4 + 3*8
	treeMinBytes = 4 + profile.LoadMinBytes + 2*8 + 4 + nodeMinBytes
)

// DecodeTrees parses slice trees in the spill-tier format. Every length
// prefix is bounded by the bytes that remain (binrec.Reader.Count) before
// anything is allocated. Decode errors mean corruption (or a stale format);
// callers quarantine and rebuild.
func DecodeTrees(data []byte) ([]*Tree, error) {
	r := binrec.NewReader(data)
	r.Magic(serialMagic)
	trees := make([]*Tree, 0, r.Count(treeMinBytes))
	for ti := 0; ti < cap(trees) && r.Err() == nil; ti++ {
		// Fields decode in encoding order: operands evaluate left to right.
		t := &Tree{TargetPC: int32(r.U32()), Load: profile.ReadLoad(r), Sampled: r.I64(),
			Scale: math.Float64frombits(uint64(r.I64()))}
		nNodes := r.Count(nodeMinBytes)
		if r.Err() == nil && nNodes == 0 {
			return nil, fmt.Errorf("slicer: tree %d has no nodes", ti)
		}
		flat := make([]*Node, nNodes)
		for ni := 0; ni < nNodes && r.Err() == nil; ni++ {
			parent := r.U32()
			n := &Node{PC: int32(r.U32()), Depth: int(r.U32()), DCtrig: r.I64(), DCptcm: r.I64(), DistSum: r.I64()}
			flat[ni] = n
			switch {
			case r.Err() != nil:
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
		if r.Err() == nil && t.Root == nil {
			return nil, fmt.Errorf("slicer: tree %d has no root", ti)
		}
		trees = append(trees, t)
	}
	if err := r.Done(); err != nil {
		return nil, fmt.Errorf("slicer: decode: %w", err)
	}
	return trees, nil
}
