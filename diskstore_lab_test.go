package preexec

import (
	"context"
	"errors"
	"os"
	"path/filepath"
	"testing"
)

// spillableLabStages are the pipeline stages the disk tier persists —
// everything except the final assembly stage, which is cheap to rebuild
// from its decoded parts.
func spillableLabStages() []Stage {
	var out []Stage
	for _, st := range Stages() {
		if st != StagePrepared {
			out = append(out, st)
		}
	}
	return out
}

// TestWithDiskStoreWarmRestart drives the public façade end to end: a Lab
// with a disk store prepares a benchmark cold, then a second Lab pointed at
// the same directory satisfies every heavy stage from disk — zero cold
// builds — which is the restart-warm guarantee the daemon relies on.
func TestWithDiskStoreWarmRestart(t *testing.T) {
	dir := t.TempDir()
	ctx := context.Background()

	cold := New(WithDiskStore(dir, 0))
	if err := cold.DiskStoreErr(); err != nil {
		t.Fatalf("DiskStoreErr: %v", err)
	}
	if _, err := cold.AnalyzeBenchmark(ctx, "gap"); err != nil {
		t.Fatalf("cold AnalyzeBenchmark: %v", err)
	}
	stats := cold.StoreStats()
	for _, st := range spillableLabStages() {
		if got := stats.Stages[st].Cold; got != 1 {
			t.Errorf("cold lab: stage %s Cold = %d, want 1", st, got)
		}
		if got := stats.Stages[st].SpillLoads; got != 0 {
			t.Errorf("cold lab: stage %s SpillLoads = %d, want 0", st, got)
		}
	}
	if stats.Disk == nil {
		t.Fatal("cold lab: StoreStats().Disk is nil with a disk store attached")
	}
	if want := int64(len(spillableLabStages())); stats.Disk.Saves != want {
		t.Errorf("cold lab: Disk.Saves = %d, want %d", stats.Disk.Saves, want)
	}

	warm := New(WithDiskStore(dir, 0))
	if err := warm.DiskStoreErr(); err != nil {
		t.Fatalf("warm DiskStoreErr: %v", err)
	}
	if _, err := warm.AnalyzeBenchmark(ctx, "gap"); err != nil {
		t.Fatalf("warm AnalyzeBenchmark: %v", err)
	}
	wstats := warm.StoreStats()
	for _, st := range spillableLabStages() {
		if got := wstats.Stages[st].Cold; got != 0 {
			t.Errorf("warm lab: stage %s Cold = %d, want 0", st, got)
		}
		if got := wstats.Stages[st].SpillLoads; got != 1 {
			t.Errorf("warm lab: stage %s SpillLoads = %d, want 1", st, got)
		}
	}

	// A second request on the warm Lab is an in-memory hit, not another
	// disk load.
	if _, err := warm.AnalyzeBenchmark(ctx, "gap"); err != nil {
		t.Fatalf("warm AnalyzeBenchmark (2nd): %v", err)
	}
	wstats = warm.StoreStats()
	for _, st := range spillableLabStages() {
		if got := wstats.Stages[st].SpillLoads; got != 1 {
			t.Errorf("warm lab after hit: stage %s SpillLoads = %d, want 1", st, got)
		}
	}
}

// TestLabClose pins the end of a disk-backed Lab's lifetime: Close unmaps
// its traces, and every later call on the Lab or on a Study it returned
// fails with ErrClosed instead of reading unmapped memory.
func TestLabClose(t *testing.T) {
	ctx := context.Background()
	lab := New(WithDiskStore(t.TempDir(), 0))
	study, err := lab.AnalyzeBenchmark(ctx, "gap")
	if err != nil {
		t.Fatal(err)
	}
	if err := lab.Close(); err != nil {
		t.Fatal(err)
	}
	if err := lab.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
	if d := lab.StoreStats().Disk; d.MappedFiles != 0 {
		t.Errorf("closed lab: %d mapped files, want 0", d.MappedFiles)
	}
	if _, err := lab.AnalyzeBenchmark(ctx, "gap"); !errors.Is(err, ErrClosed) {
		t.Errorf("AnalyzeBenchmark after Close: %v, want ErrClosed", err)
	}
	if _, err := lab.Figure3(ctx, []string{"gap"}); !errors.Is(err, ErrClosed) {
		t.Errorf("Figure3 after Close: %v, want ErrClosed", err)
	}
	if _, err := study.Run(ctx, TargetP); !errors.Is(err, ErrClosed) {
		t.Errorf("Study.Run after Close: %v, want ErrClosed", err)
	}
}

// TestWithDiskStoreBadDirDegrades pins the failure mode: a store directory
// that cannot be created surfaces through DiskStoreErr, but the Lab still
// works — preparations are simply uncached.
func TestWithDiskStoreBadDirDegrades(t *testing.T) {
	blocker := filepath.Join(t.TempDir(), "not-a-dir")
	if err := os.WriteFile(blocker, []byte("x"), 0o666); err != nil {
		t.Fatal(err)
	}
	lab := New(WithDiskStore(filepath.Join(blocker, "store"), 0))
	if lab.DiskStoreErr() == nil {
		t.Fatal("DiskStoreErr = nil, want error for unusable directory")
	}
	if _, err := lab.AnalyzeBenchmark(context.Background(), "gap"); err != nil {
		t.Fatalf("AnalyzeBenchmark without disk store: %v", err)
	}
	if lab.StoreStats().Disk != nil {
		t.Error("StoreStats().Disk non-nil after failed disk attach")
	}
}
