package monitor

import (
	"fmt"
	"testing"
	"time"

	"vmwild/internal/trace"
	"vmwild/internal/wal"
)

// Journal micro-benchmarks, one per traced WAL metric of the bench's
// ingest-burst workload: BenchmarkLaneCheckpoint is the cost behind each
// of its wal.checkpoints, BenchmarkJournalIngest is
// wal.journal_ns_per_sample. Both have the workload's shape: 200 servers
// sampled per minute, 12 preloaded hours (~18k samples per lane of the
// default 8 shards), every Table 1 metric populated.

const (
	burstServers      = 200
	burstPreloadHours = 12
)

func burstIDs(n int) []trace.ServerID {
	ids := make([]trace.ServerID, n)
	for i := range ids {
		ids[i] = trace.ServerID(fmt.Sprintf("bank-%04d", i))
	}
	return ids
}

// burstSample is the i-th sample of a fleet of len(ids) servers reporting
// once a minute, in arrival order.
func burstSample(ids []trace.ServerID, i int) Sample {
	m := i / len(ids)
	cpu := float64((i*37)%101) * 0.97
	mem := 1024 + float64((i*53)%4096)
	return Sample{
		Server:            ids[i%len(ids)],
		Timestamp:         benchEpoch.Add(time.Duration(m) * time.Minute),
		TotalProcessorPct: cpu,
		PrivilegedPct:     cpu * 0.25,
		UserPct:           cpu * 0.75,
		ProcQueueLength:   cpu / 25,
		PagesPerSec:       mem / 100,
		MemCommittedMB:    mem,
		MemCommittedPct:   mem / 163.84,
		DASDFreePct:       100 - cpu/2,
		TCPConns:          cpu * 40,
		TCPConnsV6:        cpu * 4,
	}
}

// BenchmarkLaneCheckpoint: one lane holding one shard's share of the
// preloaded fleet (25 servers × 12 h of minutes = 18,000 samples),
// checkpointed over and over — encode plus the atomic wal.Checkpoint.
func BenchmarkLaneCheckpoint(b *testing.B) {
	ids := burstIDs(burstServers / DefaultIngestShards)
	w := NewWarehouseShards(0, 1)
	for i := 0; i < len(ids)*burstPreloadHours*60; i++ {
		w.Ingest(burstSample(ids, i))
	}
	wl, err := OpenWarehouseLog(w, b.TempDir(), 0, wal.Options{Sync: wal.SyncInterval})
	if err != nil {
		b.Fatal(err)
	}
	defer wl.Close()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := wl.Checkpoint(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkJournalIngest: IngestDurable per sample on a preloaded,
// checkpointed default-shard warehouse at the default checkpoint cadence
// and fsync=interval, so each op carries its WAL record and its amortized
// share of the proportional lane checkpoints.
func BenchmarkJournalIngest(b *testing.B) {
	ids := burstIDs(burstServers)
	w := NewWarehouse(0)
	preload := len(ids) * burstPreloadHours * 60
	for i := 0; i < preload; i++ {
		w.Ingest(burstSample(ids, i))
	}
	wl, err := OpenWarehouseLog(w, b.TempDir(), 0, wal.Options{Sync: wal.SyncInterval})
	if err != nil {
		b.Fatal(err)
	}
	defer wl.Close()
	if err := wl.Checkpoint(); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := w.IngestDurable(burstSample(ids, preload+i)); err != nil {
			b.Fatal(err)
		}
	}
}
