package artifactdisk

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"os"
	"path/filepath"
	"runtime"
	"testing"
)

// allocSlack covers the fixed allocations of one load — the path, the
// key JSON decode, the index bookkeeping — on top of the file's own size.
const allocSlack = 1 << 20

// containerFile returns the bytes Save (aligned=false, LABART01) or
// SaveAligned (LABART02) writes for payload under k.
func containerFile(t testing.TB, k Key, payload []byte, aligned bool) []byte {
	t.Helper()
	dir := t.TempDir()
	s, err := Open(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	save := s.Save
	if aligned {
		save = s.SaveAligned
	}
	if err := save(k, payload); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(s.pathFor(k))
	if err != nil {
		t.Fatal(err)
	}
	return raw
}

// withPayloadLen returns a copy of a container file whose payload-length
// field claims n bytes.
func withPayloadLen(t testing.TB, raw []byte, k Key, n uint64) []byte {
	t.Helper()
	kj, err := json.Marshal(k)
	if err != nil {
		t.Fatal(err)
	}
	out := append([]byte(nil), raw...)
	binary.LittleEndian.PutUint64(out[8+4+len(kj):], n)
	return out
}

// storeWith opens a fresh store whose only file is raw, placed where k's
// artifact lives.
func storeWith(t testing.TB, k Key, raw []byte) (*Store, string) {
	t.Helper()
	dir := t.TempDir()
	path := (&Store{dir: dir}).pathFor(k)
	if err := os.MkdirAll(filepath.Dir(path), 0o777); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, raw, 0o666); err != nil {
		t.Fatal(err)
	}
	s, err := Open(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	return s, path
}

// allocated runs f and returns the bytes it allocated.
func allocated(f func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// TestLoadOversizedLengthBoundsAllocation: a container whose header claims
// a 4 GiB payload in a file of a few hundred bytes is corrupt. Load must
// quarantine it without allocating anything near the claimed length.
func TestLoadOversizedLengthBoundsAllocation(t *testing.T) {
	k := testKey(4)
	raw := withPayloadLen(t, containerFile(t, k, []byte("small payload"), false), k, 4<<30)
	s, path := storeWith(t, k, raw)
	var ok bool
	n := allocated(func() { _, ok = s.Load(k) })
	if ok {
		t.Fatal("load of an oversized-length container succeeded")
	}
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Error("oversized-length container not quarantined")
	}
	if st := s.Stats(); st.Quarantined != 1 {
		t.Errorf("quarantined = %d, want 1", st.Quarantined)
	}
	if limit := uint64(len(raw)) + allocSlack; n > limit {
		t.Errorf("Load allocated %d B for a %d-byte file (limit %d)", n, len(raw), limit)
	}
}

// FuzzArtifactLoad writes arbitrary bytes as one artifact file and loads it
// through Load and LoadMapped. Each must return a payload that fits in the
// file or a miss — never panic — and allocate no more than the file's size
// plus a fixed slack, whatever the header claims.
func FuzzArtifactLoad(f *testing.F) {
	k := testKey(5)
	v1 := containerFile(f, k, bytes.Repeat([]byte("labart01"), 64), false)
	v2 := containerFile(f, k, bytes.Repeat([]byte("labart02"), 64), true)
	for _, raw := range [][]byte{v1, v2} {
		f.Add(raw)
		for _, cut := range []int{0, 7, 8, 12, 40, len(raw) / 2, len(raw) - 1} {
			f.Add(raw[:cut])
		}
		f.Add(withPayloadLen(f, raw, k, 4<<30))
		f.Add(append(append([]byte(nil), raw...), 0))
	}
	f.Fuzz(func(t *testing.T, raw []byte) {
		limit := uint64(len(raw)) + allocSlack
		s, _ := storeWith(t, k, raw)
		var payload []byte
		var ok bool
		if n := allocated(func() { payload, ok = s.Load(k) }); n > limit {
			t.Fatalf("Load allocated %d B for a %d-byte file", n, len(raw))
		}
		if ok && len(payload) > len(raw) {
			t.Fatalf("Load returned %d payload bytes from a %d-byte file", len(payload), len(raw))
		}
		if !MapSupported() {
			return
		}
		s, _ = storeWith(t, k, raw)
		var m *Mapping
		if n := allocated(func() { m, ok = s.LoadMapped(k) }); n > limit {
			t.Fatalf("LoadMapped allocated %d B for a %d-byte file", n, len(raw))
		}
		if ok {
			if len(m.Payload()) > len(raw) {
				t.Fatalf("LoadMapped returned %d payload bytes from a %d-byte file", len(m.Payload()), len(raw))
			}
			if err := m.Close(); err != nil {
				t.Fatal(err)
			}
		}
	})
}
