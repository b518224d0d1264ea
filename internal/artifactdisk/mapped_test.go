package artifactdisk

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"testing"
	"time"
	"unsafe"
)

// checkPageAligned verifies the mapped payload starts on a page boundary in
// memory — the property zero-copy column aliasing relies on.
func checkPageAligned(b []byte) error {
	if len(b) == 0 {
		return fmt.Errorf("empty payload")
	}
	if addr := uintptr(unsafe.Pointer(unsafe.SliceData(b))); addr%4096 != 0 {
		return fmt.Errorf("payload base %#x not page-aligned", addr)
	}
	return nil
}

func openTestStore(t *testing.T, dir string, maxBytes int64) *Store {
	t.Helper()
	s, err := Open(dir, maxBytes)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestSaveAlignedLoadMappedRoundTrip(t *testing.T) {
	if !MapSupported() {
		t.Skip("mmap unsupported on this platform")
	}
	s := openTestStore(t, t.TempDir(), 0)
	k := testKey(0)
	payload := bytes.Repeat([]byte("mappable"), 1000)
	if _, ok := s.LoadMapped(k); ok {
		t.Fatal("mapped load before save succeeded")
	}
	if err := s.SaveAligned(k, payload); err != nil {
		t.Fatal(err)
	}
	m, ok := s.LoadMapped(k)
	if !ok {
		t.Fatal("mapped load after aligned save missed")
	}
	if !bytes.Equal(m.Payload(), payload) {
		t.Fatal("mapped payload diverged")
	}
	// The payload must be page-aligned in memory — the contract MapBytes
	// aliasing depends on.
	if err := checkPageAligned(m.Payload()); err != nil {
		t.Fatal(err)
	}
	st := s.Stats()
	if st.MappedFiles != 1 || st.MappedBytes == 0 {
		t.Fatalf("mapped stats %+v", st)
	}
	// The heap path reads the same payload from the aligned container.
	heap, ok := s.Load(k)
	if !ok {
		t.Fatal("heap load of aligned container missed")
	}
	if !bytes.Equal(heap, payload) {
		t.Fatal("heap payload of aligned container diverged")
	}
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}
	if err := m.Close(); err != nil { // idempotent
		t.Fatal(err)
	}
	if st := s.Stats(); st.MappedFiles != 0 || st.MappedBytes != 0 {
		t.Fatalf("stats after close %+v", st)
	}
}

func TestLoadMappedV1ContainerFallsBack(t *testing.T) {
	if !MapSupported() {
		t.Skip("mmap unsupported on this platform")
	}
	s := openTestStore(t, t.TempDir(), 0)
	k := testKey(0)
	if err := s.Save(k, []byte("legacy packed container")); err != nil {
		t.Fatal(err)
	}
	// A v1 container is valid but unmappable: LoadMapped declines without
	// quarantining, and the heap path still serves it.
	if _, ok := s.LoadMapped(k); ok {
		t.Fatal("LoadMapped served a v1 container")
	}
	if st := s.Stats(); st.Quarantined != 0 {
		t.Fatalf("v1 fallback quarantined: %+v", st)
	}
	if _, ok := s.Load(k); !ok {
		t.Fatal("heap load of v1 container missed")
	}
}

func TestLoadMappedCorruptContainerQuarantines(t *testing.T) {
	if !MapSupported() {
		t.Skip("mmap unsupported on this platform")
	}
	s := openTestStore(t, t.TempDir(), 0)
	k := testKey(0)
	if err := s.SaveAligned(k, bytes.Repeat([]byte("x"), 5000)); err != nil {
		t.Fatal(err)
	}
	path := s.pathFor(k)

	// Flip a magic byte: container verification fails, file quarantines.
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	raw[0] ^= 0xff
	if err := os.WriteFile(path, raw, 0o666); err != nil {
		t.Fatal(err)
	}
	if _, ok := s.LoadMapped(k); ok {
		t.Fatal("LoadMapped served a corrupt container")
	}
	if st := s.Stats(); st.Quarantined != 1 || st.Files != 0 {
		t.Fatalf("stats after corrupt mapped load %+v", st)
	}

	// Truncated tail: size disagrees with the header, quarantine again.
	if err := s.SaveAligned(k, bytes.Repeat([]byte("y"), 5000)); err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(path, 4100); err != nil {
		t.Fatal(err)
	}
	if _, ok := s.LoadMapped(k); ok {
		t.Fatal("LoadMapped served a truncated container")
	}
	if st := s.Stats(); st.Quarantined != 2 {
		t.Fatalf("stats after truncated mapped load %+v", st)
	}
}

func TestEvictionDefersBytesUntilUnmap(t *testing.T) {
	if !MapSupported() {
		t.Skip("mmap unsupported on this platform")
	}
	s := openTestStore(t, t.TempDir(), 0)
	k := testKey(0)
	payload := bytes.Repeat([]byte("pinned"), 2000)
	if err := s.SaveAligned(k, payload); err != nil {
		t.Fatal(err)
	}
	m, ok := s.LoadMapped(k)
	if !ok {
		t.Fatal("mapped load missed")
	}
	before := s.Stats()

	// Quarantine while mapped: the file and index entry go, but the bytes
	// stay accounted (the pages are still resident for the reader).
	s.Quarantine(k)
	st := s.Stats()
	if st.Files != 0 || st.Quarantined != 1 {
		t.Fatalf("stats after quarantine of mapped file %+v", st)
	}
	if st.Bytes != before.Bytes {
		t.Fatalf("bytes released early: %d -> %d", before.Bytes, st.Bytes)
	}
	if st.MappedFiles != 1 {
		t.Fatalf("mapped file count dropped early: %+v", st)
	}
	// The reader's view survives the unlink.
	if !bytes.Equal(m.Payload(), payload) {
		t.Fatal("mapped payload diverged after quarantine")
	}
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}
	if st := s.Stats(); st.Bytes != 0 || st.MappedFiles != 0 || st.MappedBytes != 0 {
		t.Fatalf("stats after last unmap %+v", st)
	}
}

func TestEvictionOfMappedFileDefersBytes(t *testing.T) {
	if !MapSupported() {
		t.Skip("mmap unsupported on this platform")
	}
	dir := t.TempDir()
	s := openTestStore(t, dir, 0)
	kOld := testKey(0)
	payload := bytes.Repeat([]byte("z"), 9000)
	if err := s.SaveAligned(kOld, payload); err != nil {
		t.Fatal(err)
	}
	m, ok := s.LoadMapped(kOld)
	if !ok {
		t.Fatal("mapped load missed")
	}
	oldSize := s.Stats().Bytes

	// Shrink the budget below the resident size by saving into a store
	// whose budget the mapped file already exceeds: reopen with a small
	// budget is not possible while holding s, so emulate by direct evict —
	// save a second artifact through a budgeted store view.
	s.maxBytes = oldSize / 2
	kNew := testKey(1)
	if err := s.SaveAligned(kNew, payload); err != nil {
		t.Fatal(err)
	}
	st := s.Stats()
	if st.Evicted == 0 {
		t.Fatalf("expected eviction under budget pressure: %+v", st)
	}
	// The mapped file's bytes are still accounted even though evicted.
	if st.Bytes < oldSize {
		t.Fatalf("evicted mapped bytes released early: %+v (old size %d)", st, oldSize)
	}
	if !bytes.Equal(m.Payload(), payload) {
		t.Fatal("mapped payload diverged after eviction")
	}
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}
	if st := s.Stats(); st.Bytes >= oldSize+oldSize/2 {
		t.Fatalf("bytes not released after unmap: %+v", st)
	}
}

// TestOpenLRUTieBreakDeterministic is the regression test for the restart
// LRU rebuild: files sharing one mtime (1 s filesystem granularity) must
// still evict in a deterministic order — by path — across restarts.
func TestOpenLRUTieBreakDeterministic(t *testing.T) {
	dir := t.TempDir()
	s := openTestStore(t, dir, 0)
	var keys []Key
	var paths []string
	for i := byte(0); i < 4; i++ {
		k := testKey(i)
		if err := s.Save(k, bytes.Repeat([]byte{i + 1}, 100)); err != nil {
			t.Fatal(err)
		}
		keys = append(keys, k)
		paths = append(paths, s.pathFor(k))
	}
	// Force one shared mtime, as a coarse-granularity filesystem would.
	stamp := time.Now().Add(-time.Hour).Truncate(time.Second)
	for _, p := range paths {
		if err := os.Chtimes(p, stamp, stamp); err != nil {
			t.Fatal(err)
		}
	}
	one := artifactFileSize(keys[0], bytes.Repeat([]byte{1}, 100), false)

	survivors := func() map[string]bool {
		t.Helper()
		// Budget for two artifacts: reopening must evict the same two
		// every time.
		s2 := openTestStore(t, dir, 2*one)
		got := map[string]bool{}
		for i, k := range keys {
			if s2.entries[s2.pathFor(k)] != nil {
				got[filepath.Base(paths[i])] = true
			}
		}
		if len(got) != 2 {
			t.Fatalf("survivors %v, want 2", got)
		}
		return got
	}

	first := survivors()
	// Restore the evicted files and the shared mtime, then reopen again:
	// the same set must survive.
	for i, k := range keys {
		if err := s.writeArtifact(paths[i], k, bytes.Repeat([]byte{byte(i) + 1}, 100), false); err != nil {
			t.Fatal(err)
		}
	}
	for _, p := range paths {
		if err := os.Chtimes(p, stamp, stamp); err != nil {
			t.Fatal(err)
		}
	}
	second := survivors()
	for p := range first {
		if !second[p] {
			t.Fatalf("eviction order not deterministic: first %v, second %v", first, second)
		}
	}
	// With a path tie-break and oldest-first eviction, the two
	// lexicographically largest paths survive.
	var sorted []string
	for i := range paths {
		sorted = append(sorted, filepath.Base(paths[i]))
	}
	for p := range first {
		larger := 0
		for _, q := range sorted {
			if q > p {
				larger++
			}
		}
		if larger > 1 {
			t.Fatalf("survivor %q is not among the two largest paths %v", p, sorted)
		}
	}
}

// TestLoadTouchThrottle verifies the recency mtime write happens at most
// once per touchInterval per file: a Load right after another must not
// refresh the file's mtime again.
func TestLoadTouchThrottle(t *testing.T) {
	dir := t.TempDir()
	s := openTestStore(t, dir, 0)
	k := testKey(0)
	if err := s.Save(k, []byte("touch me once")); err != nil {
		t.Fatal(err)
	}
	path := s.pathFor(k)
	old := time.Now().Add(-2 * time.Hour)
	if err := os.Chtimes(path, old, old); err != nil {
		t.Fatal(err)
	}

	// Reopen: lastTouch seeds from the stale mtime, so the first load is
	// due a touch.
	s2 := openTestStore(t, dir, 0)
	if _, ok := s2.Load(k); !ok {
		t.Fatal("load missed")
	}
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if fi.ModTime().Before(old.Add(time.Hour)) {
		t.Fatal("first load after reopen did not touch the file")
	}

	// Now roll the mtime back again without telling the store: a second
	// load inside the throttle window must NOT touch.
	if err := os.Chtimes(path, old, old); err != nil {
		t.Fatal(err)
	}
	if _, ok := s2.Load(k); !ok {
		t.Fatal("second load missed")
	}
	fi, err = os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if fi.ModTime().After(old.Add(time.Minute)) {
		t.Fatalf("second load touched the file inside the throttle window: mtime %v", fi.ModTime())
	}
}
