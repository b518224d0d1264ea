package experiments

// The disk spill tier: an optional artifactdisk.Store behind the in-memory
// singleflight store. Stage artifacts are serialized under the same content
// fingerprints that key the in-memory store, so a fresh Runner pointed at a
// populated directory satisfies every heavy stage with a disk load instead
// of a rebuild — the restart-warm path behind the lab daemon.
//
// The tier is strictly best-effort: save failures are counted and ignored,
// and any load that fails verification or decoding quarantines the file and
// falls through to a cold compute. A corrupt spill directory can cost time,
// never correctness.

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"reflect"

	"repro/internal/artifactdisk"
	"repro/internal/program"
)

// stageCodec (de)serializes one stage's artifact for the disk tier. decode
// receives the artifact's benchmark identity because trace decoding rebuilds
// the (unserialized) program from the registry.
type stageCodec struct {
	encode func(v any) ([]byte, error)
	decode func(name string, input program.InputClass, data []byte) (any, error)
	// mapped, when set, serves the artifact from a read-only mapping of its
	// payload, reporting whether the value aliases the mapping. Such
	// payloads are saved in the page-aligned container (SaveAligned) so
	// LoadMapped can serve them zero-copy, and a cold-built artifact is
	// served from the file just written for it (spillSave). built is nil
	// on a warm load; after a cold build it is the artifact the payload was
	// encoded from, whose unserialized parts mapped reuses.
	mapped func(name string, input program.InputClass, payload []byte, built any) (v any, aliased bool, err error)
}

// encodeWith runs a streaming encoder into a fresh buffer.
func encodeWith(enc func(io.Writer) error) ([]byte, error) {
	var buf bytes.Buffer
	if err := enc(&buf); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// binaryCodec spills T through its package's streaming encoder and its
// bounds-checked decoder.
func binaryCodec[T any](enc func(T, io.Writer) error, dec func([]byte) (T, error)) *stageCodec {
	return &stageCodec{
		encode: func(v any) ([]byte, error) {
			return encodeWith(func(w io.Writer) error { return enc(v.(T), w) })
		},
		decode: func(_ string, _ program.InputClass, data []byte) (any, error) { return dec(data) },
	}
}

// errEmptyArtifact rejects a JSON spill payload that decodes without error
// to a missing or zero-value artifact.
var errEmptyArtifact = errors.New("experiments: null or empty artifact in JSON spill payload")

// jsonCodec spills T as JSON. encoding/json decodes a checksum-valid `null`
// or `{}` without error to a nil or zero T, which would silently change
// selection instead of forcing a rebuild. So decode rejects an artifact
// holding a nil pointer (hasNil), and one that valid, when set, rejects: a
// stage whose zero artifact is not a real one names what a real one has.
// critpath.Curve rejects a `null` curve itself.
func jsonCodec[T any](valid func(T) bool) *stageCodec {
	return &stageCodec{
		encode: func(v any) ([]byte, error) { return json.Marshal(v.(T)) },
		decode: func(_ string, _ program.InputClass, data []byte) (any, error) {
			var out T
			if err := json.Unmarshal(data, &out); err != nil {
				return nil, err
			}
			if hasNil(reflect.ValueOf(out)) || valid != nil && !valid(out) {
				return nil, errEmptyArtifact
			}
			return out, nil
		},
	}
}

// hasNil reports whether a decoded artifact is a nil pointer or a slice
// holding one. JSON decodes `null` to exactly that without error, and the
// stages that consume these artifacts dereference them.
func hasNil(v reflect.Value) bool {
	switch v.Kind() {
	case reflect.Pointer:
		return v.IsNil()
	case reflect.Slice:
		for i := 0; i < v.Len(); i++ {
			if hasNil(v.Index(i)) {
				return true
			}
		}
	}
	return false
}

// AttachDiskStore opens (creating if needed) an on-disk spill tier at dir
// with the given byte budget (maxBytes <= 0 means unlimited) and attaches it
// to the engine. Attach before the first Prepare; the tier is consulted
// inside cold singleflight computations, so concurrent requesters of one
// artifact perform at most one disk load just as they perform at most one
// build.
func (r *Runner) AttachDiskStore(dir string, maxBytes int64) error {
	disk, err := artifactdisk.Open(dir, maxBytes)
	if err != nil {
		return err
	}
	r.disk = disk
	return nil
}

// DiskStats reports the attached spill tier's counters, or nil when no disk
// store is attached.
func (r *Runner) DiskStats() *artifactdisk.Stats {
	if r.disk == nil {
		return nil
	}
	st := r.disk.Stats()
	return &st
}

func diskKey(key artifactKey) artifactdisk.Key {
	return artifactdisk.Key{
		Name:  key.name,
		Input: key.input.String(),
		Stage: string(key.stage),
		FP:    key.fp,
	}
}

// spillLoad tries to satisfy a stage from the disk tier, reporting whether
// the artifact was served and whether it came through the zero-copy mapped
// path. A payload that passes container verification but fails stage
// decoding is quarantined — deleted and counted — and the caller falls
// through to a cold compute.
func (r *Runner) spillLoad(codec *stageCodec, key artifactKey) (v any, ok, mapped bool) {
	if r.disk == nil || codec == nil {
		return nil, false, false
	}
	if codec.mapped != nil && r.mappedSpill {
		if v, _, ok := r.mapSpill(codec, key, nil); ok {
			return v, true, true
		}
		// Fall through to the heap path: the artifact may be absent, held
		// in the unmappable LABART01 container, on a platform without mmap,
		// or freshly quarantined (in which case the load below misses and
		// the caller rebuilds).
	}
	dk := diskKey(key)
	data, ok := r.disk.Load(dk)
	if !ok {
		return nil, false, false
	}
	val, err := codec.decode(key.name, key.input, data)
	if err != nil {
		r.disk.Quarantine(dk)
		return nil, false, false
	}
	return val, true, false
}

// mapSpill serves an artifact from a read-only mapping of its spill file,
// for a warm load (built nil) and for a cold build just spilled (built the
// heap artifact). Container and artifact verification run once; a failure
// quarantines the file, exactly like the heap path. A value that aliases
// the mapping keeps it in r.mappings until Close — the in-memory artifact
// it backs lives that long — and one the verifier copied to the heap
// (unaligned mapping or big-endian host) releases it at once. ok is false
// when nothing was served, also after Close.
func (r *Runner) mapSpill(codec *stageCodec, key artifactKey, built any) (v any, aliased, ok bool) {
	dk := diskKey(key)
	m, ok := r.disk.LoadMapped(dk)
	if !ok {
		return nil, false, false
	}
	v, aliased, err := codec.mapped(key.name, key.input, m.Payload(), built)
	if err != nil {
		m.Close()
		r.disk.Quarantine(dk)
		return nil, false, false
	}
	if !aliased {
		m.Close()
		return v, false, true
	}
	r.mapMu.Lock()
	defer r.mapMu.Unlock()
	if r.closed.Load() {
		m.Close()
		return nil, false, false
	}
	r.mappings = append(r.mappings, m)
	return v, true, true
}

// spillSave writes a freshly built stage artifact to the disk tier,
// best-effort: an artifact that cannot be serialized or persisted is simply
// rebuilt by the next cold process. It returns the value the in-memory
// store keeps: for a mapped codec, the artifact served from a mapping of
// the file just written, so the heap copy becomes garbage; v itself when
// the save fails, the platform cannot map, the payload maps unaligned, or
// the mapped path is off.
func (r *Runner) spillSave(codec *stageCodec, key artifactKey, v any) any {
	if r.disk == nil || codec == nil {
		return v
	}
	data, err := codec.encode(v)
	if err != nil {
		return v
	}
	if codec.mapped == nil {
		r.disk.Save(diskKey(key), data)
		return v
	}
	if r.disk.SaveAligned(diskKey(key), data) != nil || !r.mappedSpill {
		return v
	}
	if mv, aliased, ok := r.mapSpill(codec, key, v); ok && aliased {
		return mv
	}
	return v
}

// StageStoreStats is one pipeline stage's view of the artifact store: how
// many requests executed the stage cold, were served from a completed
// in-memory entry, shared another caller's in-flight build, or were
// satisfied by a disk-tier load.
type StageStoreStats struct {
	Hit        int64 `json:"hit"`
	Shared     int64 `json:"shared"`
	Cold       int64 `json:"cold"`
	SpillLoads int64 `json:"spill_loads"`
	// SpillMapped counts the subset of SpillLoads served through the
	// zero-copy mmap path (trace stage only).
	SpillMapped int64 `json:"spill_mapped"`

	// P50BuildNS / P95BuildNS are cold-build wall-clock percentiles over
	// the stage's recent builds (a bounded window; 0 before the first cold
	// build), for observers: nothing in the engine reads them.
	P50BuildNS int64 `json:"p50_build_ns,omitempty"`
	P95BuildNS int64 `json:"p95_build_ns,omitempty"`
}

// StoreStats is the artifact store's full observability surface: per-stage
// request outcomes plus the disk tier's counters when one is attached.
type StoreStats struct {
	Stages map[Stage]StageStoreStats `json:"stages"`
	Disk   *artifactdisk.Stats       `json:"disk,omitempty"`
}

// StoreStats snapshots the engine's artifact-store counters. The per-stage
// cold counts are the same observable as StagePrepares; disk loads are
// counted separately (a restart-warm stage is neither a cold build nor an
// in-memory hit).
func (r *Runner) StoreStats() StoreStats {
	out := StoreStats{Stages: make(map[Stage]StageStoreStats, len(stageTable))}
	for i, d := range stageTable {
		c := &r.stats[i]
		p50, p95 := c.lat.percentiles()
		out.Stages[d.stage] = StageStoreStats{
			Hit:         c.hit.Load(),
			Shared:      c.shared.Load(),
			Cold:        c.cold.Load(),
			SpillLoads:  c.spill.Load(),
			SpillMapped: c.mapped.Load(),
			P50BuildNS:  p50,
			P95BuildNS:  p95,
		}
	}
	out.Disk = r.DiskStats()
	return out
}
