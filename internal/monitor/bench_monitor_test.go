package monitor

import (
	"context"
	"fmt"
	"sync"
	"testing"
	"time"

	"vmwild/internal/trace"
)

// The monitoring-plane benchmarks behind BENCH_monitor.json: load-generator
// ingest throughput over real TCP sockets, the in-process ingest hot path,
// and HourlySeries query cost at two sample densities (the query must not
// scale with retained sample count).

var benchEpoch = time.Date(2012, 6, 4, 0, 0, 0, 0, time.UTC)

// benchSamples fabricates per-minute samples for one server with varied but
// deterministic values.
func benchSamples(server string, n int) []Sample {
	out := make([]Sample, n)
	for i := range out {
		cpu := float64((i*37)%101) * 0.97
		mem := 1024 + float64((i*53)%4096)
		out[i] = Sample{
			Server:            trace.ServerID(server),
			Timestamp:         benchEpoch.Add(time.Duration(i) * time.Minute),
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
	return out
}

// runLoadGen streams perAgent samples from each of `agents` concurrent
// senders into a fresh warehouse over TCP and returns the wall time from
// first byte to last sample visible. It is shared by the throughput
// benchmark and the CI soak test.
func runLoadGen(tb testing.TB, w *Warehouse, agents, perAgent int) time.Duration {
	tb.Helper()
	addr, err := w.Listen("127.0.0.1:0")
	if err != nil {
		tb.Fatal(err)
	}
	batches := make([][]Sample, agents)
	ids := make([]trace.ServerID, agents)
	for a := 0; a < agents; a++ {
		id := fmt.Sprintf("load-%03d", a)
		ids[a] = trace.ServerID(id)
		batches[a] = benchSamples(id, perAgent)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Minute)
	defer cancel()

	start := time.Now()
	var wg sync.WaitGroup
	errs := make(chan error, agents)
	for a := 0; a < agents; a++ {
		wg.Add(1)
		go func(a int) {
			defer wg.Done()
			if err := sendSamples(ctx, addr, batches[a]); err != nil {
				errs <- err
			}
		}(a)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		tb.Fatal(err)
	}
	if err := w.WaitForSamples(ctx, ids, perAgent); err != nil {
		tb.Fatalf("load-gen samples did not land: %v (stats %+v)", err, w.Stats())
	}
	return time.Since(start)
}

// BenchmarkIngestLoadGenerator is the headline number: samples/sec through
// the full wire path (encode, TCP, decode, ingest) with 8 concurrent agents.
func BenchmarkIngestLoadGenerator(b *testing.B) {
	const agents, perAgent = 8, 6000
	b.ReportAllocs()
	var elapsed time.Duration
	for i := 0; i < b.N; i++ {
		w := NewWarehouse(0)
		elapsed += runLoadGen(b, w, agents, perAgent)
		w.Close()
	}
	b.ReportMetric(float64(agents*perAgent*b.N)/elapsed.Seconds(), "samples/sec")
}

// BenchmarkIngestInProcess measures the in-memory insert path alone:
// 16 servers fed round-robin with ever-increasing timestamps (the agents'
// steady state) under a 24h retention so eviction runs too.
func BenchmarkIngestInProcess(b *testing.B) {
	const servers = 16
	ids := make([]trace.ServerID, servers)
	for s := range ids {
		ids[s] = trace.ServerID(fmt.Sprintf("mem-%02d", s))
	}
	w := NewWarehouse(24 * time.Hour)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w.Ingest(Sample{
			Server:            ids[i%servers],
			Timestamp:         benchEpoch.Add(time.Duration(i) * time.Second),
			TotalProcessorPct: float64(i%101) * 0.9,
			MemCommittedMB:    2048,
		})
	}
}

// BenchmarkIngestParallel measures insert-path lock contention: GOMAXPROCS
// goroutines ingesting distinct servers with increasing timestamps, under
// a 24h retention.
func BenchmarkIngestParallel(b *testing.B) {
	w := NewWarehouse(24 * time.Hour)
	var next int64
	var mu sync.Mutex
	b.ReportAllocs()
	b.RunParallel(func(pb *testing.PB) {
		mu.Lock()
		a := next
		next++
		mu.Unlock()
		id := trace.ServerID(fmt.Sprintf("par-%03d", a))
		i := 0
		for pb.Next() {
			w.Ingest(Sample{
				Server:            id,
				Timestamp:         benchEpoch.Add(time.Duration(i) * time.Second),
				TotalProcessorPct: float64(i%101) * 0.9,
				MemCommittedMB:    2048,
			})
			i++
		}
	})
}

// BenchmarkHourlySeries queries a 720-hour retained history at 1 and 10
// samples per hour. Incremental aggregation makes the two cases cost the
// same; the pre-change code scales linearly with density.
func BenchmarkHourlySeries(b *testing.B) {
	for _, density := range []int{1, 10} {
		b.Run(fmt.Sprintf("samplesPerHour=%d", density), func(b *testing.B) {
			const hours = 720
			w := NewWarehouse(0)
			for h := 0; h < hours; h++ {
				for k := 0; k < density; k++ {
					w.Ingest(Sample{
						Server:            "q",
						Timestamp:         benchEpoch.Add(time.Duration(h)*time.Hour + time.Duration(k)*time.Minute),
						TotalProcessorPct: float64((h+k)%100) + 0.5,
						MemCommittedMB:    2048,
					})
				}
			}
			spec := trace.Spec{CPURPE2: 1000, MemMB: 16384}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := w.HourlySeries("q", spec, benchEpoch); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
