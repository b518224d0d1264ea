package slicer

import (
	"bytes"
	"reflect"
	"runtime"
	"testing"
)

// stripLinks nulls the Parent back-pointers so reflect.DeepEqual can compare
// two trees without chasing the (cyclic) parent links; child order — the
// part selection depends on — is still compared in full.
func stripLinks(trees []*Tree) {
	for _, t := range trees {
		var walk func(n *Node)
		walk = func(n *Node) {
			n.Parent = nil
			for _, c := range n.Children {
				walk(c)
			}
		}
		walk(t.Root)
	}
}

func TestTreesSerialRoundTrip(t *testing.T) {
	trees, _, _ := buildTestTrees(t, paperLoop(3000), DefaultConfig())
	var buf bytes.Buffer
	if err := EncodeTrees(&buf, trees); err != nil {
		t.Fatal(err)
	}
	got, err := DecodeTrees(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(trees) {
		t.Fatalf("tree count %d, want %d", len(got), len(trees))
	}
	// Parent links must be consistent before we strip them for comparison.
	for ti, tree := range got {
		tree.Walk(func(n *Node) {
			if n.Parent == nil {
				t.Fatalf("tree %d: non-root node with nil parent", ti)
			}
			found := false
			for _, c := range n.Parent.Children {
				if c == n {
					found = true
				}
			}
			if !found {
				t.Fatalf("tree %d: node missing from its parent's children", ti)
			}
		})
	}
	var buf2 bytes.Buffer
	if err := EncodeTrees(&buf2, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), buf2.Bytes()) {
		t.Error("re-encoding decoded trees changed the bytes")
	}
	stripLinks(trees)
	stripLinks(got)
	if !reflect.DeepEqual(trees, got) {
		t.Error("tree round trip diverged")
	}
}

func TestTreesSerialRejectsCorruption(t *testing.T) {
	trees, _, _ := buildTestTrees(t, paperLoop(3000), DefaultConfig())
	var buf bytes.Buffer
	if err := EncodeTrees(&buf, trees); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	for name, data := range map[string][]byte{
		"empty":     {},
		"bad magic": append([]byte("NOTTREES"), raw[8:]...),
		"truncated": raw[:len(raw)-5],
		"trailing":  append(append([]byte(nil), raw...), 7),
	} {
		if _, err := DecodeTrees(data); err == nil {
			t.Errorf("%s: decode succeeded, want error", name)
		}
	}
}

// craft assembles a PXSLC001 encoding from raw fields: uint32 and int64
// values in the format's byte order.
func craft(fields ...any) []byte {
	b := []byte(serialMagic)
	for _, f := range fields {
		switch v := f.(type) {
		case uint32:
			b = serialOrder.AppendUint32(b, v)
		case int64:
			b = serialOrder.AppendUint64(b, uint64(v))
		}
	}
	return b
}

// TestTreesDecodeBoundsAllocation feeds encodings whose tree, miss-index
// and node counts claim far more records than the input holds. Each must
// fail without allocating for the claim.
func TestTreesDecodeBoundsAllocation(t *testing.T) {
	load := []any{uint32(0), int64(1), int64(1), int64(1)} // PC and counters
	for name, data := range map[string][]byte{
		"tree count":   craft(uint32(1 << 20)),
		"miss indices": craft(append(append([]any{uint32(1), uint32(0)}, load...), uint32(1<<28))...),
		"node count": craft(append(append([]any{uint32(1), uint32(0)}, load...),
			uint32(0), int64(0), int64(0), uint32(1<<24))...),
	} {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, err := DecodeTrees(data)
		runtime.ReadMemStats(&after)
		if err == nil {
			t.Errorf("%s: decode succeeded, want error", name)
		}
		if alloc, limit := after.TotalAlloc-before.TotalAlloc, uint64(2*len(data))+16<<10; alloc > limit {
			t.Errorf("%s: decoding %d bytes allocated %d bytes, want at most %d", name, len(data), alloc, limit)
		}
	}
}

// FuzzSlicerDecode drives the PXSLC001 decoder with arbitrary bytes: it
// must return an error or trees, never panic, and trees it returns must
// re-encode to a fixed point: encoding, decoding and encoding again yields
// the same bytes. The allocation bound is TestTreesDecodeBoundsAllocation's.
func FuzzSlicerDecode(f *testing.F) {
	trees, _, _ := buildTestTrees(f, paperLoop(200), DefaultConfig())
	var buf bytes.Buffer
	if err := EncodeTrees(&buf, trees); err != nil {
		f.Fatal(err)
	}
	raw := buf.Bytes()
	for _, n := range []int{0, 7, 8, 12, 16, 48, len(raw) / 2, len(raw) - 1, len(raw)} {
		f.Add(raw[:n])
	}
	f.Add(craft(uint32(1 << 20)))
	f.Fuzz(func(t *testing.T, data []byte) {
		got, err := DecodeTrees(data)
		if err != nil {
			return
		}
		var first, second bytes.Buffer
		if err := EncodeTrees(&first, got); err != nil {
			t.Fatal(err)
		}
		again, err := DecodeTrees(first.Bytes())
		if err != nil {
			t.Fatalf("re-decoding encoded trees: %v", err)
		}
		if err := EncodeTrees(&second, again); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(first.Bytes(), second.Bytes()) {
			t.Fatal("trees changed across an encode/decode round trip")
		}
	})
}
