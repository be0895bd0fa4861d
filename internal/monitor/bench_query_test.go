package monitor

import (
	"bufio"
	"bytes"
	"context"
	"fmt"
	"math"
	"math/rand"
	"net"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"vmwild/internal/trace"
)

// The query-plane benchmarks behind BENCH_query.json: concurrent query
// throughput through the pipelined protocol (8 clients, 1 vs 16 requests
// in flight per connection), the client-visible fleet pull, Gorilla decode
// cost per sample, and the replica layer's compression ratio on realistic
// trace data.

// benchQueryWarehouse builds a warehouse holding `servers` servers with a
// 30-day hourly history — the paper's planning window, so every series
// query answers 720 hourly samples — plus a running query server. The
// replica layer comes up when the build includes it (the seed revision
// compiles this file too, for the before/after numbers).
func benchQueryWarehouse(b *testing.B, servers int) string {
	b.Helper()
	const hours = 30 * 24
	w := NewWarehouse(0)
	for s := 0; s < servers; s++ {
		id := trace.ServerID(fmt.Sprintf("bench-%02d", s))
		for h := 0; h < hours; h++ {
			w.Ingest(Sample{
				Server:            id,
				Timestamp:         benchEpoch.Add(time.Duration(h) * time.Hour),
				TotalProcessorPct: float64((s*37+h)%101) * 0.97,
				MemCommittedMB:    1024 + float64((h*53)%4096),
			})
		}
	}
	return benchServeQueries(b, w)
}

// benchServeQueries turns the replica layer on (publishing w as it stands)
// and serves w over the query protocol until the benchmark ends.
func benchServeQueries(b *testing.B, w *Warehouse) (addr string) {
	b.Helper()
	if err := w.EnableReplicas(ReplicaConfig{NoBackground: true}); err != nil {
		b.Fatal(err)
	}
	qs := NewQueryServer(w)
	addr, err := qs.Listen("127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { qs.Close(); w.Close() })
	return addr
}

// benchQueryThroughput measures the server's query capacity load-generator
// style: `clients` connections each keep `inflight` pre-marshaled series
// requests on the wire and count newline-delimited responses, so client
// CPU stays out of the server's way (the machine has one core; a full
// client parse per response would measure the client, not the server).
// inflight=1 is the protocol's old lockstep shape; inflight>1 exercises
// pipelining, the worker pool, and response batching.
func benchQueryThroughput(b *testing.B, clients, inflight int) {
	const servers = 8
	addr := benchQueryWarehouse(b, servers)
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Minute)
	defer cancel()

	// One request line per server, ids assigned per send below.
	lines := make([][]byte, servers)
	for s := range lines {
		lines[s] = []byte(fmt.Sprintf(
			`{"op":"series","server":"bench-%02d","cpuRPE2":1000,"memMB":16384,"epoch":%q}`+"\n",
			s, benchEpoch.Format(time.RFC3339)))
	}
	withID := func(id uint64, line []byte) []byte {
		if id == 0 {
			return line
		}
		out := make([]byte, 0, len(line)+16)
		out = append(out, `{"id":`...)
		out = strconv.AppendUint(out, id, 10)
		out = append(out, ',')
		return append(out, line[1:]...)
	}

	b.ReportAllocs()
	b.ResetTimer()
	start := time.Now()
	var wg sync.WaitGroup
	errs := make(chan error, clients)
	var nextID atomic.Uint64
	for g := 0; g < clients; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			conn, err := (&net.Dialer{}).DialContext(ctx, "tcp", addr)
			if err != nil {
				errs <- err
				return
			}
			defer conn.Close()
			n := b.N / clients
			if g < b.N%clients {
				n++
			}
			rd := bufio.NewReaderSize(conn, 256<<10)
			sent, recvd := 0, 0
			for recvd < n {
				// Keep the window full, then drain one response.
				for sent < n && sent-recvd < inflight {
					var id uint64
					if inflight > 1 {
						id = nextID.Add(1)
					}
					if _, err := conn.Write(withID(id, lines[(g+sent)%servers])); err != nil {
						errs <- err
						return
					}
					sent++
				}
				line, err := rd.ReadSlice('\n')
				if err != nil {
					errs <- err
					return
				}
				if !bytes.Contains(line, []byte(`"ok":true`)) {
					errs <- fmt.Errorf("error response: %s", line)
					return
				}
				recvd++
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		b.Fatal(err)
	}
	b.ReportMetric(float64(b.N)/time.Since(start).Seconds(), "queries/sec")
}

// BenchmarkQueryThroughput is the headline: 30-day series queries/sec.
// clients=1/inflight=1 is the seed protocol's effective shape (one
// lockstep connection, as the old FetchSet used); the 8-client runs show
// what connection fan-out and 16-deep pipelining buy on top.
func BenchmarkQueryThroughput(b *testing.B) {
	for _, shape := range []struct{ clients, inflight int }{
		{1, 1}, {8, 1}, {8, 16},
	} {
		b.Run(fmt.Sprintf("clients=%d/inflight=%d", shape.clients, shape.inflight), func(b *testing.B) {
			benchQueryThroughput(b, shape.clients, shape.inflight)
		})
	}
}

// BenchmarkFetchSet is the planner's pull as the planner pays for it: the
// paper's data center A (816 servers) x 30 days of hourly means over
// 15-minute samples, through QueryClient.FetchSet — request encode, server
// aggregation and response encode, and the client's decode into a trace
// set. BenchmarkQueryThroughput above counts newlines on memo hits and so
// by construction sees neither the encode nor the client; this is the
// layer number that reconciles with fetch_set_ms_p50 on the closed-loop
// benchmark's query-fleet workload. Every iteration starts on a fresh
// replica generation (one more sample per server, republished, off the
// clock), as every controller interval does. Uses only the public client,
// so the same file times the revision before the packed payload.
func BenchmarkFetchSet(b *testing.B) {
	const (
		servers = 816
		hours   = 30 * 24
		perHour = 4
		step    = time.Hour / perHour
	)
	w := NewWarehouse(0)
	ids := make([]trace.ServerID, servers)
	specs := make(map[trace.ServerID]trace.Spec, servers)
	sample := func(s, i int) Sample {
		return Sample{
			Server:            ids[s],
			Timestamp:         benchEpoch.Add(time.Duration(i) * step),
			TotalProcessorPct: float64((s*37+i)%1009) * 0.0991,
			MemCommittedMB:    1024 + float64((s+i*53)%4096)/7,
		}
	}
	for s := range ids {
		ids[s] = trace.ServerID(fmt.Sprintf("fleet-%03d", s))
		specs[ids[s]] = trace.Spec{CPURPE2: 11900, MemMB: 131072}
		for i := 0; i < hours*perHour; i++ {
			w.Ingest(sample(s, i))
		}
	}
	c, err := DialQuery(context.Background(), benchServeQueries(b, w))
	if err != nil {
		b.Fatal(err)
	}
	defer c.Close()

	b.ReportAllocs()
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		b.StopTimer()
		for s := range ids {
			w.Ingest(sample(s, hours*perHour+n))
		}
		w.PublishReplicas()
		// The store is ~1 GB of heap; a collection the republish set off
		// would otherwise bill its mark assists to the pull.
		runtime.GC()
		b.StartTimer()
		set, err := c.FetchSet("A", specs, benchEpoch)
		if err != nil {
			b.Fatal(err)
		}
		if got := set.Servers[servers-1].Series.Len(); len(set.Servers) != servers || got < hours {
			b.Fatalf("fetched %d servers, last series %d hours", len(set.Servers), got)
		}
	}
}

// BenchmarkGorillaDecode measures the replica read tax: decoding one
// 512-sample compressed block back into columns, reported per sample.
func BenchmarkGorillaDecode(b *testing.B) {
	const n = 512
	nanos := make([]int64, n)
	cpu := make([]float64, n)
	mem := make([]float64, n)
	rng := rand.New(rand.NewSource(20141208))
	for i := range nanos {
		nanos[i] = benchEpoch.UnixNano() + int64(i)*int64(time.Minute) + rng.Int63n(int64(time.Second))
		cpu[i] = 20 + 15*math.Sin(float64(i)/60) + rng.Float64()*4
		mem[i] = 4096 + float64(rng.Intn(64))
	}
	chunk, err := trace.CompressChunk(nanos, cpu, mem)
	if err != nil {
		b.Fatal(err)
	}
	outN := make([]int64, 0, n)
	outC := make([]float64, 0, n)
	outM := make([]float64, 0, n)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		outN, outC, outM, err = chunk.AppendTo(outN[:0], outC[:0], outM[:0])
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*n), "ns/sample")
}

// BenchmarkReplicaCompression publishes a week of realistic jittered
// diurnal samples and reports the replica layer's hot-column compression:
// raw bytes per compressed byte (higher is better) and compressed bytes
// per sample.
func BenchmarkReplicaCompression(b *testing.B) {
	w := NewWarehouse(0)
	defer w.Close()
	src, err := NewTraceSource(seededServerTrace(b), benchEpoch, 20141208)
	if err != nil {
		b.Fatal(err)
	}
	const minutes = 7*24*60 - 60 // stay inside the trace horizon
	for m := 0; m < minutes; m++ {
		s, err := src.Collect(benchEpoch.Add(time.Duration(m) * time.Minute))
		if err != nil {
			b.Fatal(err)
		}
		w.Ingest(s)
	}
	if err := w.EnableReplicas(ReplicaConfig{NoBackground: true}); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w.PublishReplicas()
		w.Ingest(Sample{
			Server:            "trace-0",
			Timestamp:         benchEpoch.Add(time.Duration(minutes+i) * time.Minute),
			TotalProcessorPct: 10,
			MemCommittedMB:    1024,
		})
	}
	b.StopTimer()
	m := w.Metrics().Replica
	if m.CompressedBytes == 0 {
		b.Fatal("no compressed bytes published")
	}
	b.ReportMetric(float64(m.RawBytes)/float64(m.CompressedBytes), "raw/compressed")
	b.ReportMetric(float64(m.CompressedBytes)/float64(m.Samples), "bytes/sample")
}

// seededServerTrace fabricates the hourly profile TraceSource interpolates
// from: a diurnal CPU curve over a week.
func seededServerTrace(tb testing.TB) *trace.ServerTrace {
	tb.Helper()
	const hours = 7 * 24
	series := &trace.Series{Step: time.Hour, Samples: make([]trace.Usage, hours)}
	for h := 0; h < hours; h++ {
		series.Samples[h] = trace.Usage{
			CPU: 2000 + 1500*math.Sin(float64(h%24)/24*2*math.Pi),
			Mem: 48 * 1024,
		}
	}
	return &trace.ServerTrace{
		ID:     "trace-0",
		Spec:   trace.Spec{CPURPE2: 11900, MemMB: 131072},
		Series: series,
	}
}
