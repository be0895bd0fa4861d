package monitor

import (
	"bytes"
	"fmt"
	"sync"
	"testing"
	"time"

	"vmwild/internal/trace"
	"vmwild/internal/wal"
)

var durableEpoch = time.Date(2012, 6, 4, 0, 0, 0, 0, time.UTC)

// synthSample fabricates the i-th deterministic sample of a small fleet.
func synthSample(i int) Sample {
	return Sample{
		Server:            trace.ServerID(fmt.Sprintf("s%02d", i%4)),
		Timestamp:         durableEpoch.Add(time.Duration(i/4) * 15 * time.Minute),
		TotalProcessorPct: float64(i%97) + 0.25,
		MemCommittedMB:    1024 + float64(i%13)*64,
	}
}

func snapshotBytes(t *testing.T, w *Warehouse) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := w.Snapshot(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestWarehouseLogRecovery(t *testing.T) {
	dir := t.TempDir()
	w := NewWarehouse(0)
	wl, err := OpenWarehouseLog(w, dir, 16, wal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	const n = 50 // crosses several checkpoint cadences
	for i := 0; i < n; i++ {
		if err := w.IngestDurable(synthSample(i)); err != nil {
			t.Fatalf("ingest %d: %v", i, err)
		}
	}
	want := snapshotBytes(t, w)
	// No graceful close: simulate a hard stop by just reopening the dir.
	wl.Sync()

	w2 := NewWarehouse(0)
	wl2, err := OpenWarehouseLog(w2, dir, 16, wal.Options{})
	if err != nil {
		t.Fatalf("recovery: %v", err)
	}
	defer wl2.Close()
	rec := wl2.Recovery()
	if rec.Restored+rec.Replayed != n {
		t.Fatalf("recovered %d+%d samples, want %d", rec.Restored, rec.Replayed, n)
	}
	if rec.Restored == 0 {
		t.Error("checkpoint cadence of 16 should have produced a checkpoint by sample 50")
	}
	if got := snapshotBytes(t, w2); !bytes.Equal(got, want) {
		t.Fatal("recovered warehouse diverges from the original")
	}
	// The recovered warehouse keeps journaling.
	if err := w2.IngestDurable(synthSample(n)); err != nil {
		t.Fatalf("ingest after recovery: %v", err)
	}
}

func TestWarehouseLogCloseCheckpoints(t *testing.T) {
	dir := t.TempDir()
	w := NewWarehouse(0)
	wl, err := OpenWarehouseLog(w, dir, 1000, wal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 30; i++ {
		w.Ingest(synthSample(i))
	}
	if err := wl.Close(); err != nil {
		t.Fatal(err)
	}
	w2 := NewWarehouse(0)
	wl2, err := OpenWarehouseLog(w2, dir, 1000, wal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer wl2.Close()
	rec := wl2.Recovery()
	if rec.Restored != 30 || rec.Replayed != 0 {
		t.Fatalf("after graceful close: restored %d, replayed %d; want 30, 0", rec.Restored, rec.Replayed)
	}
}

func TestJournalFailureDropsSample(t *testing.T) {
	dir := t.TempDir()
	w := NewWarehouse(0)
	wl, err := OpenWarehouseLog(w, dir, 16, wal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	w.Ingest(synthSample(0))
	// Kill every journal lane out from under the warehouse: persistence
	// failures must surface as drops + counted errors, not invisible data
	// loss.
	for i := range wl.lanes {
		wl.lanes[i].log.Close()
	}
	if err := w.IngestDurable(synthSample(1)); err == nil {
		t.Fatal("expected a journal error")
	}
	w.Ingest(synthSample(2)) // void path must not panic either
	if got := w.JournalErrors(); got != 2 {
		t.Errorf("JournalErrors = %d, want 2", got)
	}
	if got := w.Stats().Samples; got != 1 {
		t.Errorf("unjournalable samples became visible: %d stored, want 1", got)
	}
}

func TestWarehouseLogConcurrentIngest(t *testing.T) {
	dir := t.TempDir()
	w := NewWarehouse(0)
	wl, err := OpenWarehouseLog(w, dir, 32, wal.Options{Sync: wal.SyncNever})
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	const agents, per = 8, 40
	for a := 0; a < agents; a++ {
		wg.Add(1)
		go func(a int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				w.Ingest(Sample{
					Server:            trace.ServerID(fmt.Sprintf("c%02d", a)),
					Timestamp:         durableEpoch.Add(time.Duration(i) * time.Minute),
					TotalProcessorPct: 50,
					MemCommittedMB:    512,
				})
			}
		}(a)
	}
	wg.Wait()
	if err := wl.Close(); err != nil {
		t.Fatal(err)
	}
	if got := w.Stats().Samples; got != agents*per {
		t.Fatalf("stored %d samples, want %d", got, agents*per)
	}
	w2 := NewWarehouse(0)
	wl2, err := OpenWarehouseLog(w2, dir, 32, wal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer wl2.Close()
	if got := w2.Stats().Samples; got != agents*per {
		t.Fatalf("recovered %d samples, want %d", got, agents*per)
	}
}

// laneSample fabricates the i-th sample of a 16-server fleet, so every
// lane of a small multi-shard warehouse sees traffic.
func laneSample(i int) Sample {
	return Sample{
		Server:            trace.ServerID(fmt.Sprintf("L%02d", i%16)),
		Timestamp:         durableEpoch.Add(time.Duration(i/16) * 5 * time.Minute),
		TotalProcessorPct: float64(i%89) + 0.5,
		MemCommittedMB:    2048 + float64(i%7)*128,
	}
}

// TestCheckpointCadenceProportional pins the lane checkpoint rule: the
// journal's write cost per sample must not grow with the shard, and an
// empty shard still checkpoints at the checkpointEvery floor.
func TestCheckpointCadenceProportional(t *testing.T) {
	const size, every = 800, 16 // every/2 = 8 per lane, far below size/8
	bytesPerSample := func(prefill int) float64 {
		w := NewWarehouseShards(0, 2)
		for i := 0; i < prefill; i++ {
			w.Ingest(laneSample(i))
		}
		wl, err := OpenWarehouseLog(w, t.TempDir(), every, wal.Options{Sync: wal.SyncNever})
		if err != nil {
			t.Fatal(err)
		}
		defer wl.Close()
		if err := wl.Checkpoint(); err != nil {
			t.Fatal(err)
		}
		before := wl.BytesWritten()
		const n = 2 * size
		for i := prefill; i < prefill+n; i++ {
			if err := w.IngestDurable(laneSample(i)); err != nil {
				t.Fatalf("ingest %d: %v", i, err)
			}
		}
		return float64(wl.BytesWritten()-before) / n
	}
	small, large := bytesPerSample(size), bytesPerSample(4*size)
	if large >= 2*small {
		t.Errorf("journal bytes/sample grew %.2fx (%.0f -> %.0f) for a 4x larger shard; want < 2x", large/small, small, large)
	}

	// At the floor: an empty 2-shard warehouse still compacts every lane.
	w := NewWarehouseShards(0, 2)
	wl, err := OpenWarehouseLog(w, t.TempDir(), every, wal.Options{Sync: wal.SyncNever})
	if err != nil {
		t.Fatal(err)
	}
	defer wl.Close()
	checkpoints := make([]int, len(wl.lanes))
	for i := 0; i < 4*every; i++ {
		s := laneSample(i)
		lane := &wl.lanes[w.shardIndex(s.Server)]
		prev := lane.sinceCkpt
		if err := w.IngestDurable(s); err != nil {
			t.Fatalf("ingest %d: %v", i, err)
		}
		if lane.sinceCkpt <= prev {
			checkpoints[w.shardIndex(s.Server)]++
		}
	}
	for i, n := range checkpoints {
		if n < 1 {
			t.Errorf("lane %d took %d checkpoints at the floor cadence; want >= 1", i, n)
		}
	}
}

// TestCrashReplayBounded stops a lane log without Close (a crash after
// Sync) and checks that recovery replays no more than each lane's
// cadence allows and restores exactly the acked samples.
func TestCrashReplayBounded(t *testing.T) {
	dir := t.TempDir()
	w := NewWarehouse(0)
	wl, err := OpenWarehouseLog(w, dir, 16, wal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	const acked = 1500
	for i := 0; i < acked; i++ {
		if err := w.IngestDurable(laneSample(i)); err != nil {
			t.Fatalf("ingest %d: %v", i, err)
		}
	}
	if err := wl.Sync(); err != nil {
		t.Fatal(err)
	}
	bound := 0
	for i := range wl.lanes {
		bound += max(wl.everyLane, wl.lanes[i].ckptSamples/ckptGrowth)
	}

	w2 := NewWarehouse(0)
	wl2, err := OpenWarehouseLog(w2, dir, 16, wal.Options{})
	if err != nil {
		t.Fatalf("recovery: %v", err)
	}
	defer wl2.Close()
	rec := wl2.Recovery()
	if rec.Replayed > bound {
		t.Errorf("replayed %d records; cadence bound is %d", rec.Replayed, bound)
	}
	if rec.Restored+rec.Replayed != acked {
		t.Errorf("recovered %d+%d samples, want %d acked", rec.Restored, rec.Replayed, acked)
	}
}
