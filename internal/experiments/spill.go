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
	"io"

	"repro/internal/artifactdisk"
	"repro/internal/cpu"
	"repro/internal/critpath"
	"repro/internal/profile"
	"repro/internal/program"
	"repro/internal/pthsel"
	"repro/internal/slicer"
	"repro/internal/trace"
)

// stageCodec (de)serializes one stage's artifact for the disk tier. decode
// receives the artifact's benchmark identity because trace decoding rebuilds
// the (unserialized) program from the registry.
type stageCodec struct {
	encode func(v any) ([]byte, error)
	decode func(name string, input program.InputClass, data []byte) (any, error)
	// aligned routes the encoded payload through the page-aligned
	// container (SaveAligned) so LoadMapped can serve it zero-copy.
	aligned bool
}

// encodeWith runs a streaming encoder into a fresh buffer.
func encodeWith(enc func(io.Writer) error) ([]byte, error) {
	var buf bytes.Buffer
	if err := enc(&buf); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

func jsonCodec[T any]() stageCodec {
	return stageCodec{
		encode: func(v any) ([]byte, error) { return json.Marshal(v.(T)) },
		decode: func(_ string, _ program.InputClass, data []byte) (any, error) {
			var out T
			if err := json.Unmarshal(data, &out); err != nil {
				return nil, err
			}
			return out, nil
		},
	}
}

// stageCodecs maps each spillable stage to its codec. StagePrepared is
// deliberately absent: the assembled view is cheap to rebuild from spilled
// stages and holds cross-stage pointers that do not serialize meaningfully.
// Trace, profile and slices use the dedicated binary codecs (a warm trace
// load is a straight column read); the remaining artifacts are plain
// exported data and go through JSON.
var stageCodecs = map[Stage]stageCodec{
	StageTrace: {
		// Traces spill in the page-aligned format so the warm path can mmap
		// them. A file in an older trace format fails verification and is
		// quarantined and rebuilt: the spill tier is a cache.
		encode: func(v any) ([]byte, error) { return encodeWith(v.(*trace.Trace).EncodeBinaryV2) },
		decode: func(name string, input program.InputClass, data []byte) (any, error) {
			bm, err := program.ByName(name)
			if err != nil {
				return nil, err
			}
			return trace.DecodeBinaryV2(data, bm.Build(input))
		},
		aligned: true,
	},
	StageProfile: {
		encode: func(v any) ([]byte, error) { return encodeWith(v.(*profile.Profile).EncodeBinary) },
		decode: func(_ string, _ program.InputClass, data []byte) (any, error) {
			return profile.DecodeBinary(bytes.NewReader(data))
		},
	},
	StageSlices: {
		encode: func(v any) ([]byte, error) {
			return encodeWith(func(w io.Writer) error { return slicer.EncodeTrees(w, v.([]*slicer.Tree)) })
		},
		decode: func(_ string, _ program.InputClass, data []byte) (any, error) {
			return slicer.DecodeTrees(bytes.NewReader(data))
		},
	},
	StageProblems: jsonCodec[[]*profile.LoadStats](),
	StageCurves:   jsonCodec[map[int32]critpath.Curve](),
	StageBaseline: jsonCodec[*cpu.Result](),
	StageParams:   jsonCodec[pthsel.Params](),
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

// diskHas reports whether the disk tier could satisfy key without a build —
// the scheduler's planning probe. It never touches recency or counters.
func (r *Runner) diskHas(key artifactKey) bool {
	if r.disk == nil {
		return false
	}
	if _, ok := stageCodecs[key.stage]; !ok {
		return false
	}
	return r.disk.Has(diskKey(key))
}

// spillLoad tries to satisfy a stage from the disk tier, reporting whether
// the artifact was served and whether it came through the zero-copy mapped
// path. A payload that passes container verification but fails stage
// decoding is quarantined — deleted and counted — and the caller falls
// through to a cold compute.
func (r *Runner) spillLoad(key artifactKey) (v any, ok, mapped bool) {
	if r.disk == nil {
		return nil, false, false
	}
	codec, ok := stageCodecs[key.stage]
	if !ok {
		return nil, false, false
	}
	dk := diskKey(key)
	if key.stage == StageTrace && r.mappedSpill {
		if v, ok := r.spillLoadMapped(key, dk); ok {
			return v, true, true
		}
		// Fall through to the heap path: the artifact may be absent, held
		// in the unmappable LABART01 container, on a platform without mmap,
		// or freshly quarantined (in which case the load below misses and
		// the caller rebuilds).
	}
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

// spillLoadMapped serves a trace from a read-only mapping of its spill
// file: container and trace verification run once per chunk, the columns alias
// the mapping, and the mapping is retained for the Runner's lifetime (the
// in-memory artifact it backs lives that long too). Any verification
// failure quarantines the file, exactly like the heap path.
func (r *Runner) spillLoadMapped(key artifactKey, dk artifactdisk.Key) (any, bool) {
	m, ok := r.disk.LoadMapped(dk)
	if !ok {
		return nil, false
	}
	bm, err := program.ByName(key.name)
	if err != nil {
		m.Close()
		return nil, false
	}
	tr, aliased, err := trace.MapBytes(m.Payload(), bm.Build(key.input))
	if err != nil {
		m.Close()
		r.disk.Quarantine(dk)
		return nil, false
	}
	if !aliased {
		// The verifier fell back to a heap copy (unaligned mapping or
		// big-endian host): the trace is fine but does not reference the
		// mapping, so release it now.
		m.Close()
		return tr, true
	}
	r.mapMu.Lock()
	r.mappings = append(r.mappings, m)
	r.mapMu.Unlock()
	return tr, true
}

// spillSave writes a freshly built stage artifact to the disk tier,
// best-effort: an artifact that cannot be serialized or persisted is simply
// rebuilt by the next cold process.
func (r *Runner) spillSave(key artifactKey, v any) {
	if r.disk == nil {
		return
	}
	codec, ok := stageCodecs[key.stage]
	if !ok {
		return
	}
	data, err := codec.encode(v)
	if err != nil {
		return
	}
	if codec.aligned {
		r.disk.SaveAligned(diskKey(key), data)
		return
	}
	r.disk.Save(diskKey(key), data)
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
	// build) — the observability surface of the scheduler's cost inputs.
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
	out := StoreStats{Stages: make(map[Stage]StageStoreStats, len(stageIndex))}
	for st, i := range stageIndex {
		c := &r.stageStats[i]
		p50, p95 := r.stageLat[i].percentiles()
		out.Stages[st] = StageStoreStats{
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
