// Package artifactdisk is the on-disk, content-addressed spill tier behind
// the in-memory singleflight artifact store: stage artifacts serialized
// under their content fingerprints, one file per artifact.
//
// Guarantees:
//
//   - Writes are atomic and durable-before-visible: payloads go to a
//     temporary file that is fsynced and then renamed into place, so a
//     reader (or a crash) never observes a half-written artifact under its
//     final name.
//   - Loads are verified: every file carries its full key and a payload
//     checksum; a truncated, bit-flipped or stale-format file is
//     quarantined — deleted and counted, never fatal — and the caller
//     rebuilds the artifact.
//   - The store is byte-budgeted: when the artifact bytes exceed the
//     budget, least-recently-used artifacts are evicted. Recency survives
//     restarts approximately via file mtimes (loads touch their file).
//
// The store is safe for concurrent use by one process. Multiple processes
// may share a directory: atomic renames keep files well-formed, and a file
// evicted or quarantined under a concurrent reader simply loads as a miss.
package artifactdisk

import (
	"container/list"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Key identifies one stored artifact: a pipeline stage's output for one
// (benchmark, input) under the stage's chained content fingerprint.
type Key struct {
	Name  string `json:"name"`
	Input string `json:"input"`
	Stage string `json:"stage"`
	FP    string `json:"fp"`
}

// Stats reports the store's cumulative counters and current footprint.
type Stats struct {
	Files int64 `json:"files"`
	Bytes int64 `json:"bytes"`
	// MappedFiles/MappedBytes cover files with at least one live mapping
	// (LoadMapped readers that have not closed yet), including files already
	// evicted or quarantined whose byte accounting is deferred until the
	// last reader unmaps.
	MappedFiles int64 `json:"mapped_files"`
	MappedBytes int64 `json:"mapped_bytes"`

	Saves       int64 `json:"saves"`
	SaveErrors  int64 `json:"save_errors"`
	Loads       int64 `json:"loads"`
	Misses      int64 `json:"misses"`
	Quarantined int64 `json:"quarantined"`
	Evicted     int64 `json:"evicted"`
}

// Container format magics. LABART01 is the original packed container;
// LABART02 pads the header to a 4 KiB boundary so the payload is
// page-aligned in the file — mappable — and marks the payload
// self-verifying (no whole-payload checksum; the payload format carries its
// own). Bump on layout change so stale files quarantine instead of
// misloading.
const (
	fileMagic        = "LABART01"
	fileMagicAligned = "LABART02"
)

// touchInterval throttles the recency mtime touch on Load: restart-time LRU
// reconstruction only needs mtimes to minute-level fidelity, not an
// os.Chtimes syscall per hit.
const touchInterval = time.Minute

var crcTable = crc32.MakeTable(crc32.Castagnoli)

// entry is one resident artifact in the LRU index.
type entry struct {
	path      string
	size      int64
	lastTouch time.Time     // last recency mtime write (throttled)
	elem      *list.Element // position in lru (front = most recent)
}

// Store is the on-disk spill tier rooted at one directory.
type Store struct {
	dir      string
	maxBytes int64 // <= 0: unlimited

	mu      sync.Mutex
	entries map[string]*entry // keyed by file path
	lru     *list.List        // of path strings
	bytes   int64
	files   int64
	// Live-mapping bookkeeping: refs counts open Mappings per path, size
	// remembers the mapped file's accounted size, and pending holds bytes
	// of evicted/quarantined files whose release is deferred until the last
	// reader unmaps (the pages stay resident until then).
	mappedRefs   map[string]int
	mappedSize   map[string]int64
	pendingBytes map[string]int64

	saves, saveErrors, loads, misses, quarantined, evicted atomic.Int64
}

// Open opens (creating if needed) a store rooted at dir with the given byte
// budget (maxBytes <= 0 means unlimited). Existing artifacts are indexed by
// file mtime so eviction order approximates LRU across restarts; leftover
// temporary files from a crashed writer are removed.
func Open(dir string, maxBytes int64) (*Store, error) {
	if dir == "" {
		return nil, errors.New("artifactdisk: empty store directory")
	}
	if err := os.MkdirAll(dir, 0o777); err != nil {
		return nil, fmt.Errorf("artifactdisk: %w", err)
	}
	s := &Store{
		dir:          dir,
		maxBytes:     maxBytes,
		entries:      map[string]*entry{},
		lru:          list.New(),
		mappedRefs:   map[string]int{},
		mappedSize:   map[string]int64{},
		pendingBytes: map[string]int64{},
	}
	type found struct {
		path  string
		size  int64
		mtime time.Time
	}
	var all []found
	err := filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			return nil
		}
		if strings.HasSuffix(path, ".tmp") {
			os.Remove(path)
			return nil
		}
		if !strings.HasSuffix(path, ".art") {
			return nil
		}
		info, err := d.Info()
		if err != nil {
			return nil // raced with a concurrent eviction
		}
		all = append(all, found{path: path, size: info.Size(), mtime: info.ModTime()})
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("artifactdisk: scan %s: %w", dir, err)
	}
	// Oldest first so the LRU front ends up the most recently used. Path is
	// the tie-break: filesystems with 1 s mtime granularity make equal
	// mtimes common, and without a total order the eviction sequence would
	// differ from restart to restart.
	sort.Slice(all, func(i, j int) bool {
		if !all[i].mtime.Equal(all[j].mtime) {
			return all[i].mtime.Before(all[j].mtime)
		}
		return all[i].path < all[j].path
	})
	for _, f := range all {
		e := &entry{path: f.path, size: f.size, lastTouch: f.mtime}
		e.elem = s.lru.PushFront(f.path)
		s.entries[f.path] = e
		s.bytes += f.size
		s.files++
	}
	s.mu.Lock()
	s.evictLocked(nil)
	s.mu.Unlock()
	return s, nil
}

// Dir returns the store's root directory.
func (s *Store) Dir() string { return s.dir }

// pathFor derives the artifact file path: one subdirectory per stage, file
// named by the key's collision-resistant hash. The stage subdirectory is
// cosmetic (the hash covers the full key); unsafe stage strings fall back
// to a generic bucket.
func (s *Store) pathFor(k Key) string {
	h := sha256.New()
	for _, part := range []string{k.Name, k.Input, k.Stage, k.FP} {
		var lenBuf [8]byte
		binary.LittleEndian.PutUint64(lenBuf[:], uint64(len(part)))
		h.Write(lenBuf[:])
		io.WriteString(h, part)
	}
	sub := k.Stage
	if sub == "" || strings.ContainsAny(sub, "/\\.") {
		sub = "other"
	}
	return filepath.Join(s.dir, sub, hex.EncodeToString(h.Sum(nil)[:16])+".art")
}

// Load returns the payload stored under k, or ok=false when the artifact is
// absent, was evicted, or failed verification (in which case the bad file
// has been quarantined and the caller should rebuild).
func (s *Store) Load(k Key) ([]byte, bool) {
	path := s.pathFor(k)
	e, touch, now := s.hit(path)
	if e == nil {
		s.misses.Add(1)
		return nil, false
	}
	payload, err := readArtifact(path, k)
	if err != nil {
		if os.IsNotExist(err) {
			// Evicted (or removed by another process) between index lookup
			// and read: a plain miss, not corruption.
			s.forget(path)
			s.misses.Add(1)
			return nil, false
		}
		s.quarantinePath(path)
		return nil, false
	}
	if touch {
		os.Chtimes(path, now, now)
	}
	s.loads.Add(1)
	return payload, true
}

// hit records a read hit on path: bumps LRU recency and decides whether the
// on-disk mtime touch is due (at most once per touchInterval per file, so
// restart-time LRU reconstruction sees accesses without a syscall per hit).
func (s *Store) hit(path string) (e *entry, touch bool, now time.Time) {
	s.mu.Lock()
	defer s.mu.Unlock()
	e = s.entries[path]
	if e == nil {
		return nil, false, now
	}
	s.lru.MoveToFront(e.elem)
	now = time.Now()
	if now.Sub(e.lastTouch) >= touchInterval {
		e.lastTouch = now
		touch = true
	}
	return e, touch, now
}

// LoadMapped returns a read-only memory mapping of the artifact stored
// under k, or ok=false when the artifact is absent, held in the unmappable
// v1 container, or the platform cannot map files — callers fall back to
// Load. A file that fails container verification is quarantined, as in
// Load. The caller must Close the mapping when the payload is no longer
// referenced; the store keeps byte accounting for a mapped file alive until
// its last reader closes, even across eviction or quarantine.
func (s *Store) LoadMapped(k Key) (*Mapping, bool) {
	if !mmapSupported {
		return nil, false
	}
	path := s.pathFor(k)
	e, touch, now := s.hit(path)
	if e == nil {
		return nil, false
	}
	f, err := os.Open(path)
	if err != nil {
		if os.IsNotExist(err) {
			s.forget(path)
		}
		return nil, false
	}
	//lab:allow(errdiscard: read-only descriptor; a close error cannot lose data already read)
	defer f.Close()
	hdr, err := readHeader(f, k)
	if err != nil {
		s.quarantinePath(path)
		return nil, false
	}
	if !hdr.aligned {
		return nil, false // v1 container: valid but unmappable
	}
	data, err := mmapFile(f, int(hdr.payloadOff+hdr.payloadLen))
	if err != nil {
		return nil, false // capability miss, not corruption
	}
	if touch {
		os.Chtimes(path, now, now)
	}
	s.mu.Lock()
	s.mappedRefs[path]++
	s.mappedSize[path] = e.size
	s.mu.Unlock()
	s.loads.Add(1)
	return &Mapping{
		s:       s,
		path:    path,
		data:    data,
		payload: data[hdr.payloadOff : hdr.payloadOff+hdr.payloadLen],
	}, true
}

// Mapping is one reader's live memory mapping of an artifact file. The
// payload stays valid until Close; the underlying file may meanwhile be
// evicted or quarantined (on Unix the pages survive the unlink), in which
// case the store defers releasing the file's byte accounting until the last
// mapping closes.
type Mapping struct {
	s       *Store
	path    string
	data    []byte
	payload []byte
	once    sync.Once
}

// Payload returns the mapped artifact payload. The bytes are read-only and
// alias the page cache; writing through them faults.
func (m *Mapping) Payload() []byte { return m.payload }

// Close unmaps the file and releases the reader's reference. After the last
// reference on an evicted or quarantined file closes, its bytes leave the
// store's accounting.
func (m *Mapping) Close() error {
	var err error
	m.once.Do(func() {
		err = munmapFile(m.data)
		s := m.s
		s.mu.Lock()
		s.mappedRefs[m.path]--
		if s.mappedRefs[m.path] <= 0 {
			delete(s.mappedRefs, m.path)
			delete(s.mappedSize, m.path)
			if p, ok := s.pendingBytes[m.path]; ok {
				s.bytes -= p
				delete(s.pendingBytes, m.path)
			}
		}
		s.mu.Unlock()
		m.data, m.payload = nil, nil
	})
	return err
}

// MapSupported reports whether the platform supports LoadMapped.
func MapSupported() bool { return mmapSupported }

// Quarantine removes the artifact stored under k (if any) and counts it as
// quarantined. Callers use it when a payload that passed the container
// checksum still fails semantic decoding.
func (s *Store) Quarantine(k Key) {
	s.quarantinePath(s.pathFor(k))
}

func (s *Store) quarantinePath(path string) {
	os.Remove(path)
	if s.forget(path) {
		s.quarantined.Add(1)
	}
}

// forget drops path from the index, reporting whether it was present.
func (s *Store) forget(path string) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	e := s.entries[path]
	if e == nil {
		return false
	}
	delete(s.entries, path)
	s.lru.Remove(e.elem)
	s.files--
	s.releaseLocked(path, e.size)
	return true
}

// releaseLocked returns size bytes to the budget — immediately when no live
// mapping holds the file, otherwise deferred until the last Mapping closes
// (the mapped pages genuinely stay resident until then).
func (s *Store) releaseLocked(path string, size int64) {
	if s.mappedRefs[path] > 0 {
		s.pendingBytes[path] += size
		return
	}
	s.bytes -= size
}

// Save stores payload under k: written to a temporary file, fsynced, then
// renamed into place so the artifact is never visible half-written. Saving
// an already-present key refreshes its recency and is otherwise a no-op
// (the store is content-addressed — equal keys hold equal payloads).
func (s *Store) Save(k Key, payload []byte) error {
	return s.save(k, payload, false)
}

// SaveAligned stores payload in the page-aligned LABART02 container: the
// payload starts on a 4 KiB boundary of the file, so LoadMapped can hand it
// out page-aligned in memory. The container carries no whole-payload
// checksum — aligned payloads are self-verifying formats (the v2 trace
// layout checks per-chunk CRCs), which keeps both the mapped open and the
// heap fallback from re-hashing the full file.
func (s *Store) SaveAligned(k Key, payload []byte) error {
	return s.save(k, payload, true)
}

func (s *Store) save(k Key, payload []byte, aligned bool) error {
	path := s.pathFor(k)
	s.mu.Lock()
	if e := s.entries[path]; e != nil {
		s.lru.MoveToFront(e.elem)
		s.mu.Unlock()
		return nil
	}
	s.mu.Unlock()

	if err := s.writeArtifact(path, k, payload, aligned); err != nil {
		s.saveErrors.Add(1)
		return err
	}
	s.mu.Lock()
	if e := s.entries[path]; e == nil {
		e = &entry{path: path, size: artifactFileSize(k, payload, aligned), lastTouch: time.Now()}
		e.elem = s.lru.PushFront(path)
		s.entries[path] = e
		s.bytes += e.size
		s.files++
		s.evictLocked(e)
	}
	s.mu.Unlock()
	s.saves.Add(1)
	return nil
}

// evictLocked removes least-recently-used artifacts until the store fits
// its byte budget. The just-saved entry keep (if non-nil) is never evicted:
// a single artifact larger than the whole budget stays resident rather than
// thrashing rebuild-evict-rebuild.
func (s *Store) evictLocked(keep *entry) {
	if s.maxBytes <= 0 {
		return
	}
	for s.bytes > s.maxBytes && s.lru.Len() > 0 {
		back := s.lru.Back()
		path := back.Value.(string)
		e := s.entries[path]
		if keep != nil && e == keep {
			return
		}
		delete(s.entries, path)
		s.lru.Remove(back)
		s.files--
		os.Remove(path)
		s.releaseLocked(path, e.size)
		s.evicted.Add(1)
	}
}

// Stats returns a snapshot of the store's counters and footprint.
func (s *Store) Stats() Stats {
	s.mu.Lock()
	files, bytes := s.files, s.bytes
	mappedFiles := int64(len(s.mappedRefs))
	var mappedBytes int64
	for _, sz := range s.mappedSize {
		mappedBytes += sz
	}
	s.mu.Unlock()
	return Stats{
		Files:       files,
		Bytes:       bytes,
		MappedFiles: mappedFiles,
		MappedBytes: mappedBytes,
		Saves:       s.saves.Load(),
		SaveErrors:  s.saveErrors.Load(),
		Loads:       s.loads.Load(),
		Misses:      s.misses.Load(),
		Quarantined: s.quarantined.Load(),
		Evicted:     s.evicted.Load(),
	}
}

// ------------------------------------------------------- file container --
//
// Layout: magic(8) | keyLen(u32) | key JSON | payloadLen(u64) |
// crc32c(payload)(u32) | payload. The embedded key guards against hash
// collisions and misdirected files; the checksum guards payload integrity.
//
// The aligned LABART02 variant has identical fields, writes 0 in the
// checksum slot (the payload format is self-verifying), and zero-pads the
// header to the next 4 KiB boundary so the payload is page-aligned in the
// file and mappable page-aligned in memory.

const alignPage = 4096

func headerSize(keyJSON []byte, aligned bool) int64 {
	n := int64(8 + 4 + len(keyJSON) + 8 + 4)
	if aligned {
		n += (alignPage - n%alignPage) % alignPage
	}
	return n
}

func artifactFileSize(k Key, payload []byte, aligned bool) int64 {
	kj, _ := json.Marshal(k)
	return headerSize(kj, aligned) + int64(len(payload))
}

func (s *Store) writeArtifact(path string, k Key, payload []byte, aligned bool) error {
	kj, err := json.Marshal(k)
	if err != nil {
		return fmt.Errorf("artifactdisk: marshal key: %w", err)
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o777); err != nil {
		return fmt.Errorf("artifactdisk: %w", err)
	}
	tmp, err := os.CreateTemp(filepath.Dir(path), filepath.Base(path)+".*.tmp")
	if err != nil {
		return fmt.Errorf("artifactdisk: %w", err)
	}
	defer func() {
		if tmp != nil {
			//lab:allow(errdiscard: error-path cleanup of a temp file that is about to be removed)
			tmp.Close()
			os.Remove(tmp.Name())
		}
	}()
	var hdr [12]byte
	magic := fileMagic
	if aligned {
		magic = fileMagicAligned
	}
	if _, err := tmp.WriteString(magic); err != nil {
		return err
	}
	binary.LittleEndian.PutUint32(hdr[:4], uint32(len(kj)))
	if _, err := tmp.Write(hdr[:4]); err != nil {
		return err
	}
	if _, err := tmp.Write(kj); err != nil {
		return err
	}
	binary.LittleEndian.PutUint64(hdr[:8], uint64(len(payload)))
	if !aligned {
		binary.LittleEndian.PutUint32(hdr[8:12], crc32.Checksum(payload, crcTable))
	}
	if _, err := tmp.Write(hdr[:12]); err != nil {
		return err
	}
	if aligned {
		written := int64(8 + 4 + len(kj) + 12)
		if pad := headerSize(kj, true) - written; pad > 0 {
			if _, err := tmp.Write(make([]byte, pad)); err != nil {
				return err
			}
		}
	}
	if _, err := tmp.Write(payload); err != nil {
		return err
	}
	// fsync before publish: after the rename below, the file must never be
	// observable with partial contents, even across a crash.
	if err := tmp.Sync(); err != nil {
		return err
	}
	name := tmp.Name()
	if err := tmp.Close(); err != nil {
		tmp = nil
		os.Remove(name)
		return err
	}
	tmp = nil
	if err := os.Rename(name, path); err != nil {
		os.Remove(name)
		return err
	}
	// Directory sync so the rename itself is durable. A failed sync means the
	// rename may not survive a crash, so it surfaces like any write error; the
	// artifact file itself is already complete and synced.
	if d, err := os.Open(filepath.Dir(path)); err == nil {
		syncErr := d.Sync()
		if closeErr := d.Close(); syncErr == nil {
			syncErr = closeErr
		}
		if syncErr != nil {
			return fmt.Errorf("artifactdisk: sync dir: %w", syncErr)
		}
	}
	return nil
}

// artifactHeader is the verified container header of an artifact file.
type artifactHeader struct {
	aligned    bool  // LABART02: payload page-aligned, self-verifying
	payloadOff int64 // file offset of the payload
	payloadLen int64
	crc        uint32 // whole-payload CRC32-C; meaningful only when !aligned
}

// readHeader parses and verifies the container header of either format,
// leaving f positioned at the payload. Every length field is checked
// against the file's size before anything is allocated, so a corrupt
// header costs at most the file's own size, and the payload must end
// exactly at the end of the file.
func readHeader(f *os.File, want Key) (artifactHeader, error) {
	var h artifactHeader
	fi, err := f.Stat()
	if err != nil {
		return h, fmt.Errorf("artifactdisk: %w", err)
	}
	size := fi.Size()
	var magic [8]byte
	if _, err := io.ReadFull(f, magic[:]); err != nil {
		return h, fmt.Errorf("artifactdisk: short header: %w", err)
	}
	switch string(magic[:]) {
	case fileMagic:
	case fileMagicAligned:
		h.aligned = true
	default:
		return h, fmt.Errorf("artifactdisk: bad magic %q", magic[:])
	}
	var u32 [4]byte
	if _, err := io.ReadFull(f, u32[:]); err != nil {
		return h, fmt.Errorf("artifactdisk: short header: %w", err)
	}
	keyLen := binary.LittleEndian.Uint32(u32[:])
	if int64(keyLen) > size {
		return h, fmt.Errorf("artifactdisk: key length %d exceeds file size %d", keyLen, size)
	}
	kj := make([]byte, keyLen)
	if _, err := io.ReadFull(f, kj); err != nil {
		return h, fmt.Errorf("artifactdisk: short key: %w", err)
	}
	var got Key
	if err := json.Unmarshal(kj, &got); err != nil {
		return h, fmt.Errorf("artifactdisk: corrupt key: %w", err)
	}
	if got != want {
		return h, fmt.Errorf("artifactdisk: key mismatch: file holds %+v", got)
	}
	var u64 [8]byte
	if _, err := io.ReadFull(f, u64[:]); err != nil {
		return h, fmt.Errorf("artifactdisk: short header: %w", err)
	}
	payloadLen := binary.LittleEndian.Uint64(u64[:])
	if _, err := io.ReadFull(f, u32[:]); err != nil {
		return h, fmt.Errorf("artifactdisk: short header: %w", err)
	}
	h.crc = binary.LittleEndian.Uint32(u32[:])
	h.payloadOff = headerSize(kj, h.aligned)
	if h.payloadOff > size || payloadLen != uint64(size-h.payloadOff) {
		return h, fmt.Errorf("artifactdisk: payload length %d does not fit file size %d", payloadLen, size)
	}
	h.payloadLen = int64(payloadLen)
	if h.aligned {
		if _, err := f.Seek(h.payloadOff, io.SeekStart); err != nil {
			return h, fmt.Errorf("artifactdisk: seek payload: %w", err)
		}
	}
	return h, nil
}

func readArtifact(path string, want Key) ([]byte, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	//lab:allow(errdiscard: read-only descriptor; a close error cannot lose data already read)
	defer f.Close()
	h, err := readHeader(f, want)
	if err != nil {
		return nil, err
	}
	payload := make([]byte, h.payloadLen)
	if _, err := io.ReadFull(f, payload); err != nil {
		return nil, fmt.Errorf("artifactdisk: short payload: %w", err)
	}
	// Aligned payloads are self-verifying (per-chunk CRCs inside the
	// payload format); re-hashing the whole file here would double the cost
	// of the heap fallback for no added integrity.
	if !h.aligned {
		if crc := crc32.Checksum(payload, crcTable); crc != h.crc {
			return nil, fmt.Errorf("artifactdisk: checksum mismatch (%08x != %08x)", crc, h.crc)
		}
	}
	return payload, nil
}
