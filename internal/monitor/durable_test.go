package monitor

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"strings"
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

// storedSamples reads every retained sample straight from the shard
// columns, in snapshot order, without going through any codec.
func storedSamples(w *Warehouse) []Sample {
	var out []Sample
	for _, id := range w.Servers() {
		sh := &w.shards[w.shardIndex(id)]
		sh.mu.Lock()
		st := sh.servers[id]
		for i := range st.cpu {
			out = append(out, st.sampleAt(id, i))
		}
		sh.mu.Unlock()
	}
	return out
}

// TestJournalLaneSurvivesNonJSONSamples: samples JSON cannot carry (NaN,
// ±Inf, years outside [0, 9999]) and ones it carries only approximately
// (a sub-minute zone offset) reach a shard before the log attaches. Its
// lane must keep checkpointing, journaling and reopening, and every field
// must come back bit for bit.
func TestJournalLaneSurvivesNonJSONSamples(t *testing.T) {
	dir := t.TempDir()
	w := NewWarehouse(0)
	for _, s := range edgeSamples("edge") {
		w.Ingest(s)
	}
	wl, err := OpenWarehouseLog(w, dir, 16, wal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := wl.Checkpoint(); err != nil {
		t.Fatalf("checkpoint over non-JSON samples: %v", err)
	}
	for i := 0; i < 40; i++ {
		s := edgeSamples("edge")[i%11]
		s.Timestamp = s.Timestamp.Add(time.Duration(i+1) * time.Hour)
		if err := w.IngestDurable(s); err != nil {
			t.Fatalf("journal sample %d to the edge lane: %v", i, err)
		}
	}
	if got := w.JournalErrors(); got != 0 {
		t.Fatalf("JournalErrors = %d, want 0", got)
	}
	want := storedSamples(w)
	wantSnap := snapshotBytes(t, w)
	if err := wl.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}

	w2 := NewWarehouse(0)
	wl2, err := OpenWarehouseLog(w2, dir, 16, wal.Options{})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer wl2.Close()
	got := storedSamples(w2)
	if len(got) != len(want) || len(want) != 11+40 {
		t.Fatalf("reopened %d samples, stored %d, ingested %d", len(got), len(want), 11+40)
	}
	for i := range want {
		if msg := sampleMismatch(got[i], want[i]); msg != "" {
			t.Fatalf("sample %d after reopen: %s", i, msg)
		}
	}
	if !bytes.Equal(snapshotBytes(t, w2), wantSnap) {
		t.Fatal("Snapshot bytes differ across close and reopen")
	}
}

// TestJournalIsTransparent feeds one stream, non-finite values included,
// to a journaled and an unjournaled warehouse: the journal must store
// exactly what the plain warehouse stores, before and after reopen.
func TestJournalIsTransparent(t *testing.T) {
	dir := t.TempDir()
	plain := NewWarehouseShards(0, 3)
	journaled := NewWarehouseShards(0, 3)
	wl, err := OpenWarehouseLog(journaled, dir, 16, wal.Options{Sync: wal.SyncNever})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 600; i++ {
		s := laneSample(i)
		switch i % 7 {
		case 1:
			s.PagesPerSec = math.NaN()
		case 3:
			s.TCPConns = math.Inf(1)
		case 5:
			s.Timestamp = s.Timestamp.AddDate(9000, 0, 0)
		}
		plain.Ingest(s)
		if err := journaled.IngestDurable(s); err != nil {
			t.Fatalf("journal sample %d: %v", i, err)
		}
	}
	if got := journaled.JournalErrors(); got != 0 {
		t.Fatalf("JournalErrors = %d, want 0", got)
	}
	want := snapshotBytes(t, plain)
	if !bytes.Equal(snapshotBytes(t, journaled), want) {
		t.Fatal("journaled warehouse stores something other than the plain one")
	}
	if err := wl.Sync(); err != nil { // a hard stop: replay, not just restore
		t.Fatal(err)
	}
	reopened := NewWarehouseShards(0, 3)
	wl2, err := OpenWarehouseLog(reopened, dir, 16, wal.Options{})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer wl2.Close()
	if !bytes.Equal(snapshotBytes(t, reopened), want) {
		t.Fatal("reopened journal diverges from the plain warehouse")
	}
}

// TestWarehouseLogRejectsJSONCheckpoint: lanes checkpointed as JSON lines
// by an older build fail to open with an error naming the format, and
// nothing from them is ingested.
func TestWarehouseLogRejectsJSONCheckpoint(t *testing.T) {
	dir := t.TempDir()
	w := NewWarehouse(0)
	for i := 0; i < w.Shards(); i++ {
		var ckpt bytes.Buffer
		if err := encodeSamplesJSON(&ckpt, []Sample{synthSample(i), synthSample(i + 4)}); err != nil {
			t.Fatal(err)
		}
		lane, _, err := wal.Open(laneDir(dir, i), wal.Options{})
		if err != nil {
			t.Fatal(err)
		}
		if err := lane.Checkpoint(ckpt.Bytes()); err != nil {
			t.Fatal(err)
		}
		if err := lane.Close(); err != nil {
			t.Fatal(err)
		}
	}
	_, err := OpenWarehouseLog(w, dir, 16, wal.Options{})
	if !errors.Is(err, errSnapshotFormat) || !strings.Contains(err.Error(), "binary sample snapshot") {
		t.Fatalf("open over JSON checkpoints: err = %v, want the snapshot format error", err)
	}
	if got := w.Stats().Samples; got != 0 {
		t.Fatalf("warehouse holds %d samples after a rejected open, want 0", got)
	}
}
