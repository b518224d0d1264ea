package experiments

import (
	"context"
	"encoding/binary"
	"encoding/json"
	"hash/crc32"
	"io/fs"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/artifactdisk"
	"repro/internal/program"
)

// traceSpillFile returns the single trace-stage artifact file under dir.
func traceSpillFile(t *testing.T, dir string) string {
	t.Helper()
	var traces []string
	sep := string(os.PathSeparator)
	for _, p := range spillFiles(t, dir) {
		if strings.Contains(p, sep+"trace"+sep) {
			traces = append(traces, p)
		}
	}
	if len(traces) != 1 {
		t.Fatalf("found %d trace spill files, want 1", len(traces))
	}
	return traces[0]
}

// copyDir duplicates a spill directory so corruption scenarios can share one
// cold populate.
func copyDir(t *testing.T, src, dst string) {
	t.Helper()
	err := filepath.WalkDir(src, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(src, path)
		if err != nil {
			return err
		}
		target := filepath.Join(dst, rel)
		if d.IsDir() {
			return os.MkdirAll(target, 0o777)
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		return os.WriteFile(target, data, 0o666)
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestMappedSpillRestartWarm pins the zero-copy restart path: a fresh Runner
// over a populated directory serves its trace through a read-only mapping
// (spill_mapped == 1 on the trace stage, 0 everywhere else), keeps one file
// mapped in the store's accounting, and assembles a preparation equal to the
// cold one. A runner with the mapped path disabled still loads the same v2
// file, just through the heap decoder.
func TestMappedSpillRestartWarm(t *testing.T) {
	if !artifactdisk.MapSupported() {
		t.Skip("platform cannot map files")
	}
	ctx := context.Background()
	dir := t.TempDir()
	cfg := DefaultConfig()

	r1 := NewRunner(cfg, 0, nil)
	if err := r1.AttachDiskStore(dir, 0); err != nil {
		t.Fatal(err)
	}
	p1, err := r1.Prepare(ctx, "gap", program.Train, cfg)
	if err != nil {
		t.Fatal(err)
	}

	r2 := NewRunner(cfg, 0, nil)
	if err := r2.AttachDiskStore(dir, 0); err != nil {
		t.Fatal(err)
	}
	p2, err := r2.Prepare(ctx, "gap", program.Train, cfg)
	if err != nil {
		t.Fatal(err)
	}
	stats := r2.StoreStats()
	for _, st := range spillableStages() {
		want := int64(0)
		if st == StageTrace {
			want = 1
		}
		if n := stats.Stages[st].SpillMapped; n != want {
			t.Errorf("stage %s spill_mapped = %d, want %d", st, n, want)
		}
		if n := stats.Stages[st].SpillLoads; n != 1 {
			t.Errorf("stage %s spill_loads = %d, want 1", st, n)
		}
		if n := r2.StagePrepares(st); n != 0 {
			t.Errorf("warm runner rebuilt stage %s %d times, want 0", st, n)
		}
	}
	if stats.Disk.MappedFiles != 1 {
		t.Errorf("disk reports %d mapped files, want 1", stats.Disk.MappedFiles)
	}
	if stats.Disk.MappedBytes <= 0 {
		t.Errorf("disk reports %d mapped bytes, want > 0", stats.Disk.MappedBytes)
	}

	if !reflect.DeepEqual(p1.Baseline, p2.Baseline) {
		t.Error("mapped-warm baseline diverged from cold baseline")
	}
	if !reflect.DeepEqual(p1.Params, p2.Params) {
		t.Error("mapped-warm params diverged from cold params")
	}
	if !reflect.DeepEqual(p1.Curves, p2.Curves) {
		t.Error("mapped-warm curves diverged from cold curves")
	}
	if p1.Trace.Len() != p2.Trace.Len() {
		t.Errorf("mapped trace length %d, cold %d", p2.Trace.Len(), p1.Trace.Len())
	}

	// Mapped path disabled: the same v2 file loads through the heap decoder.
	r3 := NewRunner(cfg, 0, nil)
	r3.SetMappedSpill(false)
	if err := r3.AttachDiskStore(dir, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := r3.Prepare(ctx, "gap", program.Train, cfg); err != nil {
		t.Fatal(err)
	}
	s3 := r3.StoreStats()
	if n := s3.Stages[StageTrace].SpillLoads; n != 1 {
		t.Errorf("heap-only runner: trace spill_loads = %d, want 1", n)
	}
	if n := s3.Stages[StageTrace].SpillMapped; n != 0 {
		t.Errorf("heap-only runner: trace spill_mapped = %d, want 0", n)
	}
	if s3.Disk.MappedFiles != 0 {
		t.Errorf("heap-only runner: %d mapped files, want 0", s3.Disk.MappedFiles)
	}
}

// TestMappedSpillCorruptionMatrix drives the mapped load path into every
// corruption class it can meet — a flipped bit inside a chunk's CRC-covered
// region, a truncated file tail, a damaged container key — and into every
// older trace format a populated store can hold: a version-1 or version-2
// trace payload inside the aligned container, and a version-1 payload in the
// packed LABART01 container that predates it. All pin the same contract as the
// heap path: quarantine, cold rebuild, re-spill, never a fatal error, and a
// baseline byte-identical to the committed golden.
//
// Payload geometry (see EXPERIMENTS.md): the LABART02 container header is
// padded to 4096, so the trace payload starts at file offset 4096; its own
// header page puts the first chunk's CRC-covered columns at offset 8192.
func TestMappedSpillCorruptionMatrix(t *testing.T) {
	if !artifactdisk.MapSupported() {
		t.Skip("platform cannot map files")
	}
	ctx := context.Background()
	cfg := DefaultConfig()

	base := t.TempDir()
	r1 := NewRunner(cfg, 0, nil)
	if err := r1.AttachDiskStore(base, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := r1.Prepare(ctx, "gap", program.Train, cfg); err != nil {
		t.Fatal(err)
	}
	golden, err := os.ReadFile(filepath.Join("testdata", "golden_gap_baseline.json"))
	if err != nil {
		t.Fatal(err)
	}

	readFile := func(t *testing.T, path string) []byte {
		t.Helper()
		raw, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		return raw
	}
	writeFile := func(t *testing.T, path string, raw []byte) {
		t.Helper()
		if err := os.WriteFile(path, raw, 0o666); err != nil {
			t.Fatal(err)
		}
	}
	flipAt := func(off int64) func(*testing.T, string) {
		return func(t *testing.T, path string) {
			raw := readFile(t, path)
			if int64(len(raw)) <= off {
				t.Fatalf("trace file only %d bytes, cannot flip offset %d", len(raw), off)
			}
			raw[off] ^= 1
			writeFile(t, path, raw)
		}
	}
	// The trace payload's magic ends in its format version digit; its
	// header CRC (payload bytes 60..64) covers the first 60 bytes.
	const payloadOff, magicVersion = 4096, 7
	// staleMagic stamps the payload with an older format version and
	// reseals the header CRC, so only the version check can reject it.
	staleMagic := func(version byte) func(*testing.T, string) {
		return func(t *testing.T, path string) {
			raw := readFile(t, path)
			hdr := raw[payloadOff:]
			hdr[magicVersion] = version
			crc := crc32.Checksum(hdr[:60], crc32.MakeTable(crc32.Castagnoli))
			binary.LittleEndian.PutUint32(hdr[60:], crc)
			writeFile(t, path, raw)
		}
	}
	scenarios := []struct {
		name    string
		corrupt func(*testing.T, string)
	}{
		{"chunk-bit-flip", flipAt(4096 + 4096 + 100)},
		{"truncated-tail", func(t *testing.T, path string) {
			fi, err := os.Stat(path)
			if err != nil {
				t.Fatal(err)
			}
			if err := os.Truncate(path, fi.Size()-4096); err != nil {
				t.Fatal(err)
			}
		}},
		{"stale-v1-magic", staleMagic('1')},
		{"stale-v2-magic", staleMagic('2')},
		{"v1-container", func(t *testing.T, path string) {
			// Re-save the payload, stamped version 1, under the same key in
			// the packed container that pre-mmap stores wrote.
			raw := readFile(t, path)
			var key artifactdisk.Key
			keyLen := binary.LittleEndian.Uint32(raw[8:])
			if err := json.Unmarshal(raw[12:12+keyLen], &key); err != nil {
				t.Fatal(err)
			}
			payload := raw[payloadOff:]
			payload[magicVersion] = '1'
			if err := os.Remove(path); err != nil {
				t.Fatal(err)
			}
			st, err := artifactdisk.Open(filepath.Dir(filepath.Dir(path)), 0)
			if err != nil {
				t.Fatal(err)
			}
			if err := st.Save(key, payload); err != nil {
				t.Fatal(err)
			}
		}},
		// Offset 12 is the first byte of the container's key JSON.
		{"key-mismatch", flipAt(12)},
	}

	for _, sc := range scenarios {
		sc := sc
		t.Run(sc.name, func(t *testing.T) {
			dir := t.TempDir()
			copyDir(t, base, dir)
			sc.corrupt(t, traceSpillFile(t, dir))

			r2 := NewRunner(cfg, 0, nil)
			if err := r2.AttachDiskStore(dir, 0); err != nil {
				t.Fatal(err)
			}
			p2, err := r2.Prepare(ctx, "gap", program.Train, cfg)
			if err != nil {
				t.Fatalf("prepare over corrupt mapped store: %v", err)
			}
			stats := r2.StoreStats()
			if stats.Disk.Quarantined != 1 {
				t.Errorf("quarantined %d files, want 1", stats.Disk.Quarantined)
			}
			if n := r2.StagePrepares(StageTrace); n != 1 {
				t.Errorf("trace stage rebuilt %d times, want 1", n)
			}
			for _, st := range spillableStages() {
				if st != StageTrace && r2.StagePrepares(st) != 0 {
					t.Errorf("stage %s rebuilt, want served from disk", st)
				}
			}
			if n := stats.Stages[StageTrace].SpillMapped; n != 0 {
				t.Errorf("corrupt trace served mapped %d times, want 0", n)
			}
			if stats.Disk.Saves != 1 {
				t.Errorf("re-spilled %d artifacts, want 1 (the rebuilt trace)", stats.Disk.Saves)
			}

			got, err := json.MarshalIndent(p2.Baseline, "", "  ")
			if err != nil {
				t.Fatal(err)
			}
			got = append(got, '\n')
			if string(got) != string(golden) {
				t.Error("baseline rebuilt after mapped corruption diverged from golden")
			}
		})
	}
}
