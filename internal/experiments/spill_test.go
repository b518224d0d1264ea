package experiments

import (
	"context"
	"encoding/json"
	"io/fs"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"

	"repro/internal/artifactdisk"
	"repro/internal/program"
)

// spillableStages is every stage the disk tier persists (all but the cheap
// assembled view).
func spillableStages() []Stage {
	var out []Stage
	for _, st := range Stages() {
		if _, ok := stageCodecs[st]; ok {
			out = append(out, st)
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

// TestDiskStoreNullJSONRebuild pins the JSON codecs against `null`: a
// checksum-valid spill file whose payload decodes to a nil baseline, or to
// a problems list holding a nil entry, is quarantined and its stage rebuilt
// cold, and the preparation matches a cold run's.
func TestDiskStoreNullJSONRebuild(t *testing.T) {
	ctx := context.Background()
	dir := t.TempDir()
	cfg := DefaultConfig()

	wfp, err := workloadFingerprint("gap")
	if err != nil {
		t.Fatal(err)
	}
	plan, err := planFor(cfg, wfp)
	if err != nil {
		t.Fatal(err)
	}
	disk, err := artifactdisk.Open(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	for st, payload := range map[Stage]string{StageBaseline: "null", StageProblems: "[null]"} {
		key := artifactKey{name: "gap", input: program.Train, stage: st, fp: plan.fps[st]}
		if err := disk.Save(diskKey(key), []byte(payload)); err != nil {
			t.Fatal(err)
		}
	}

	r := NewRunner(cfg, 0, nil)
	if err := r.AttachDiskStore(dir, 0); err != nil {
		t.Fatal(err)
	}
	got, err := r.Prepare(ctx, "gap", program.Train, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if q := r.StoreStats().Disk.Quarantined; q != 2 {
		t.Errorf("quarantined %d null payloads, want 2", q)
	}
	for _, st := range []Stage{StageBaseline, StageProblems} {
		if n := r.StagePrepares(st); n != 1 {
			t.Errorf("stage %s built %d times, want 1 (rebuilt cold)", st, n)
		}
	}

	want, err := NewRunner(cfg, 0, nil).Prepare(ctx, "gap", program.Train, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got.Baseline, want.Baseline) {
		t.Error("baseline rebuilt over a null payload diverged from a cold run")
	}
	if !reflect.DeepEqual(got.Params, want.Params) {
		t.Error("params rebuilt over a null payload diverged from a cold run")
	}
	if !reflect.DeepEqual(got.Curves, want.Curves) {
		t.Error("curves rebuilt over a null payload diverged from a cold run")
	}
}
