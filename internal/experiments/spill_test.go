package experiments

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"io/fs"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"

	"repro/internal/artifactdisk"
	"repro/internal/cpu"
	"repro/internal/program"
	"repro/internal/pthsel"
)

// spillableStages is every stage the disk tier persists (all but the cheap
// assembled view).
func spillableStages() []Stage {
	var out []Stage
	for _, d := range stageTable {
		if d.codec != nil {
			out = append(out, d.stage)
		}
	}
	return out
}

// TestDiskStoreSurvivesRestart pins the restart-warm guarantee: a fresh
// Runner pointed at a populated spill directory rebuilds zero stages — every
// artifact is satisfied by a disk load — and assembles a preparation equal
// to the one the first Runner built cold.
func TestDiskStoreSurvivesRestart(t *testing.T) {
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
	for _, st := range spillableStages() {
		if n := r1.StagePrepares(st); n != 1 {
			t.Fatalf("cold runner: stage %s executed %d times, want 1", st, n)
		}
	}
	if st := r1.StoreStats(); st.Disk == nil || st.Disk.Saves != int64(len(spillableStages())) {
		t.Fatalf("cold runner disk stats: %+v", st.Disk)
	}

	// "Restart": a brand-new engine sharing only the directory.
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
		if n := r2.StagePrepares(st); n != 0 {
			t.Errorf("warm runner rebuilt stage %s %d times, want 0", st, n)
		}
		if n := stats.Stages[st].SpillLoads; n != 1 {
			t.Errorf("warm runner: stage %s spill loads %d, want 1", st, n)
		}
	}
	// The assembly itself is not spilled: it reruns, cheaply, from loads.
	if n := r2.StagePrepares(StagePrepared); n != 1 {
		t.Errorf("warm runner assembled %d preparations, want 1", n)
	}

	if !reflect.DeepEqual(p1.Baseline, p2.Baseline) {
		t.Error("restart-warm baseline diverged from cold baseline")
	}
	if !reflect.DeepEqual(p1.Params, p2.Params) {
		t.Error("restart-warm params diverged from cold params")
	}
	if !reflect.DeepEqual(p1.Prof, p2.Prof) {
		t.Error("restart-warm profile diverged from cold profile")
	}
	if !reflect.DeepEqual(p1.Curves, p2.Curves) {
		t.Error("restart-warm curves diverged from cold curves")
	}
}

// spillFiles lists the .art files under dir in sorted order.
func spillFiles(t *testing.T, dir string) []string {
	t.Helper()
	var paths []string
	err := filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
		if err == nil && !d.IsDir() && strings.HasSuffix(path, ".art") {
			paths = append(paths, path)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	sort.Strings(paths)
	return paths
}

// TestDiskStoreCorruptionRebuild pins the quarantine path end to end: a
// truncated file and a bit-flipped file are both quarantined on load — never
// fatal — their stages rebuilt cold, re-spilled, and the resulting baseline
// still matches the committed golden byte for byte.
func TestDiskStoreCorruptionRebuild(t *testing.T) {
	ctx := context.Background()
	dir := t.TempDir()
	cfg := DefaultConfig()

	r1 := NewRunner(cfg, 0, nil)
	if err := r1.AttachDiskStore(dir, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := r1.Prepare(ctx, "gap", program.Train, cfg); err != nil {
		t.Fatal(err)
	}
	files := spillFiles(t, dir)
	if len(files) < 2 {
		t.Fatalf("found %d spill files, want at least 2", len(files))
	}
	// Truncate one artifact mid-payload and flip a payload bit in another.
	if err := os.Truncate(files[0], 40); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(files[1])
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)-1] ^= 0x10
	if err := os.WriteFile(files[1], raw, 0o666); err != nil {
		t.Fatal(err)
	}

	r2 := NewRunner(cfg, 0, nil)
	if err := r2.AttachDiskStore(dir, 0); err != nil {
		t.Fatal(err)
	}
	p2, err := r2.Prepare(ctx, "gap", program.Train, cfg)
	if err != nil {
		t.Fatalf("prepare over corrupt store: %v", err)
	}
	stats := r2.StoreStats()
	if stats.Disk.Quarantined != 2 {
		t.Errorf("quarantined %d files, want 2", stats.Disk.Quarantined)
	}
	var colds int64
	for _, st := range spillableStages() {
		colds += r2.StagePrepares(st)
	}
	if colds != 2 {
		t.Errorf("rebuilt %d stages cold, want exactly the 2 corrupted", colds)
	}
	if stats.Disk.Saves != 2 {
		t.Errorf("re-spilled %d rebuilt artifacts, want 2", stats.Disk.Saves)
	}

	// The rebuilt preparation's baseline must match the committed golden
	// exactly — corruption costs a rebuild, never accuracy.
	got, err := json.MarshalIndent(p2.Baseline, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	got = append(got, '\n')
	want, err := os.ReadFile(filepath.Join("testdata", "golden_gap_baseline.json"))
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != string(want) {
		t.Error("baseline rebuilt after corruption diverged from golden")
	}
}

// TestDiskStoreNullJSONRebuild pins the JSON codecs against `null` and
// `{}`: a checksum-valid spill file whose payload decodes to a nil or
// zero-cycle baseline, a problems list holding a nil entry, zero params, a
// nil curve set or a null curve is quarantined and its stage rebuilt cold,
// and the preparation matches a cold run's. A workload without problem
// loads spills its nil problems list as `null`, which must still load warm.
func TestDiskStoreNullJSONRebuild(t *testing.T) {
	noProblems := DefaultConfig()
	noProblems.MinMisses = 1 << 40 // no load misses this often: ProblemLoads is nil
	rows := []struct {
		name       string
		cfg        Config
		stage      Stage
		payload    string
		quarantine bool
	}{
		{"null baseline", DefaultConfig(), StageBaseline, "null", true},
		{"null problem load", DefaultConfig(), StageProblems, "[null]", true},
		{"null params", DefaultConfig(), StageParams, "null", true},
		{"{} baseline", DefaultConfig(), StageBaseline, "{}", true},
		{"{} params", DefaultConfig(), StageParams, "{}", true},
		{"null curve set", DefaultConfig(), StageCurves, "null", true},
		{"null curve", DefaultConfig(), StageCurves, `{"5":null}`, true},
		{"no problem loads", noProblems, StageProblems, "null", false},
	}
	ctx := context.Background()
	for _, row := range rows {
		t.Run(row.name, func(t *testing.T) {
			t.Parallel()
			dir := t.TempDir()
			wfp, err := workloadFingerprint("gap")
			if err != nil {
				t.Fatal(err)
			}
			plan, err := planFor(row.cfg, wfp)
			if err != nil {
				t.Fatal(err)
			}
			disk, err := artifactdisk.Open(dir, 0)
			if err != nil {
				t.Fatal(err)
			}
			key := artifactKey{name: "gap", input: program.Train, stage: row.stage, fp: plan.fps[row.stage]}
			if err := disk.Save(diskKey(key), []byte(row.payload)); err != nil {
				t.Fatal(err)
			}

			r := NewRunner(row.cfg, 0, nil)
			if err := r.AttachDiskStore(dir, 0); err != nil {
				t.Fatal(err)
			}
			got, err := r.Prepare(ctx, "gap", program.Train, row.cfg)
			if err != nil {
				t.Fatal(err)
			}
			stats := r.StoreStats()
			wantQ, wantBuilds, wantLoads := int64(1), int64(1), int64(0)
			if !row.quarantine {
				wantQ, wantBuilds, wantLoads = 0, 0, 1
			}
			if q := stats.Disk.Quarantined; q != wantQ {
				t.Errorf("quarantined %d files, want %d", q, wantQ)
			}
			if n := stats.Stages[row.stage].Cold; n != wantBuilds {
				t.Errorf("stage %s built %d times, want %d", row.stage, n, wantBuilds)
			}
			if n := stats.Stages[row.stage].SpillLoads; n != wantLoads {
				t.Errorf("stage %s loaded %d times from disk, want %d", row.stage, n, wantLoads)
			}

			want, err := NewRunner(row.cfg, 0, nil).Prepare(ctx, "gap", program.Train, row.cfg)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got.Baseline, want.Baseline) {
				t.Error("baseline diverged from a cold run")
			}
			if !reflect.DeepEqual(got.Params, want.Params) {
				t.Error("params diverged from a cold run")
			}
			if !reflect.DeepEqual(got.Curves, want.Curves) {
				t.Error("curves diverged from a cold run")
			}
		})
	}
}

// FuzzStageDecode feeds arbitrary bytes through the decode of every stage
// the table spills: each input must yield an error, or a value of the
// stage's artifact type that holds no nil pointer and is not a zero-value
// stand-in (a baseline of 0 cycles, params with no execution time) — never
// a panic. The seeds are gap's real encodings of every spilled stage, their
// truncations, `null` and `{}`.
func FuzzStageDecode(f *testing.F) {
	ctx := context.Background()
	cfg := DefaultConfig()
	r := NewRunner(cfg, 1, nil)
	if _, err := r.Prepare(ctx, "gap", program.Train, cfg); err != nil {
		f.Fatal(err)
	}
	c, err := newChain("gap", program.Train, cfg)
	if err != nil {
		f.Fatal(err)
	}
	var rows []stageDef
	var types []reflect.Type
	for _, d := range stageTable {
		if d.codec == nil {
			continue
		}
		v, err, ok := r.store.peek(c.key(d.stage))
		if !ok || err != nil {
			f.Fatalf("stage %s not built: %v", d.stage, err)
		}
		data, err := d.codec.encode(v)
		if err != nil {
			f.Fatal(err)
		}
		row := uint8(len(rows))
		rows = append(rows, d)
		types = append(types, reflect.TypeOf(v))
		for _, seed := range [][]byte{data, data[:len(data)/2], data[:len(data)-1], []byte("null"), []byte("{}")} {
			f.Add(row, seed)
		}
	}
	f.Fuzz(func(t *testing.T, row uint8, data []byte) {
		i := int(row) % len(rows)
		v, err := rows[i].codec.decode("gap", program.Train, data)
		if err != nil {
			return
		}
		if got := reflect.TypeOf(v); got != types[i] {
			t.Fatalf("stage %s decoded a %v, want %v", rows[i].stage, got, types[i])
		}
		if hasNil(reflect.ValueOf(v)) {
			t.Fatalf("stage %s decoded a value holding a nil pointer", rows[i].stage)
		}
		switch v := v.(type) {
		case *cpu.Result:
			if v.Cycles <= 0 {
				t.Fatalf("baseline decoded with %d cycles", v.Cycles)
			}
		case pthsel.Params:
			if v.L0 <= 0 {
				t.Fatalf("params decoded with execution time %v", v.L0)
			}
		}
	})
}

// spillFormatPins is the SHA-256 of each spilled stage's encoding of gap's
// Train artifacts under DefaultConfig.
var spillFormatPins = map[Stage]string{
	StageTrace:    "7dd86e19de98838a23de6cfff272b48529e477a25b2f14d10813736bba678f36", // PXTRC003, 7504413 bytes
	StageProfile:  "10810279563d0131bbf982d74caddcb74d67bea002acb5768d04c3c183d1388b", // PXPRF001, 298276 bytes
	StageProblems: "c447582746f30d11cea1ae6daa3a1fb0fcfebfa51ff3632387821dbe7c5581cf", // JSON, 25478 bytes
	StageSlices:   "543fa31f04e4099d9ae6579735bc7714dca5ca84597117fcc2a8f7dba4dc48dd", // PXSLC001, 36276 bytes
	StageCurves:   "3b5f631b311d7a1cf9b19cb08b1b7791f3091ea1ac171811af16c648aeb14865", // JSON, 104 bytes
	StageBaseline: "90c505a338af6b13dbdc77b699d6ced7c3e57cdcb4d572e432f22027bac76e23", // JSON, 717 bytes
	StageParams:   "c2cf404c0c9217c2a4cc389bc8911e52d356949583fd0daab1293566d80ba244", // JSON, 422 bytes
}

// TestSpillFormatsPinned fails on any byte change to a spill format. The
// round-trip tests pass for any format that reads back what it writes;
// this one compares each spilled row's encoding of gap's Train artifacts
// with a recorded digest, so a codec rewrite must reproduce the files
// already on disk byte for byte. A deliberate format change bumps the
// format's magic (or, for a JSON stage, its shape) and the digest here
// together, so old spill files quarantine instead of misloading.
func TestSpillFormatsPinned(t *testing.T) {
	ctx := context.Background()
	cfg := DefaultConfig()
	r := NewRunner(cfg, 1, nil)
	if _, err := r.Prepare(ctx, "gap", program.Train, cfg); err != nil {
		t.Fatal(err)
	}
	c, err := newChain("gap", program.Train, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range stageTable {
		if d.codec == nil {
			continue
		}
		t.Run(string(d.stage), func(t *testing.T) {
			v, err, ok := r.store.peek(c.key(d.stage))
			if !ok || err != nil {
				t.Fatalf("stage %s not built: %v", d.stage, err)
			}
			data, err := d.codec.encode(v)
			if err != nil {
				t.Fatal(err)
			}
			sum := sha256.Sum256(data)
			if got, want := hex.EncodeToString(sum[:]), spillFormatPins[d.stage]; got != want {
				t.Errorf("stage %s encodes to sha256 %s (%d bytes), want %s", d.stage, got, len(data), want)
			}
		})
	}
}
