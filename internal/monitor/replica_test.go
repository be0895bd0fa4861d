package monitor

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"vmwild/internal/trace"
)

// equalSeries demands bitwise identity between two hourly series.
func equalSeries(t *testing.T, ctx string, live, rep *trace.Series) {
	t.Helper()
	if live.Len() != rep.Len() {
		t.Fatalf("%s: live %d hours, replica %d hours", ctx, live.Len(), rep.Len())
	}
	for i := range live.Samples {
		l, r := live.Samples[i], rep.Samples[i]
		if math.Float64bits(l.CPU) != math.Float64bits(r.CPU) ||
			math.Float64bits(l.Mem) != math.Float64bits(r.Mem) {
			t.Fatalf("%s: hour %d live (%x, %x) != replica (%x, %x)",
				ctx, i, math.Float64bits(l.CPU), math.Float64bits(l.Mem),
				math.Float64bits(r.CPU), math.Float64bits(r.Mem))
		}
	}
}

func equalPoints(t *testing.T, ctx string, live, rep []RangePoint) {
	t.Helper()
	if len(live) != len(rep) {
		t.Fatalf("%s: live %d points, replica %d points", ctx, len(live), len(rep))
	}
	for i := range live {
		l, r := live[i], rep[i]
		if l.TS != r.TS ||
			math.Float64bits(l.CPU) != math.Float64bits(r.CPU) ||
			math.Float64bits(l.Mem) != math.Float64bits(r.Mem) {
			t.Fatalf("%s: point %d live %+v != replica %+v", ctx, i, l, r)
		}
	}
}

// TestReplicaEquivalenceWall is the exactness contract: whatever a seeded
// adversarial ingest stream does — out-of-order arrivals, duplicate
// timestamps, retention evictions, even unindexable "wild" timestamps —
// every replica answer is bitwise-identical to the live answer once the
// replica has caught up.
func TestReplicaEquivalenceWall(t *testing.T) {
	for _, seed := range []int64{20141208, 7, 3} {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			w := NewWarehouse(36 * time.Hour) // retention tight enough to evict
			if err := w.EnableReplicas(ReplicaConfig{
				NoBackground: true,
				ChunkSamples: 64, // small blocks so multi-chunk paths run
			}); err != nil {
				t.Fatal(err)
			}
			defer w.Close()

			servers := make([]trace.ServerID, 6)
			cursor := make([]time.Time, len(servers))
			for i := range servers {
				servers[i] = trace.ServerID(fmt.Sprintf("srv-%02d", i))
				cursor[i] = epoch.Add(time.Duration(rng.Intn(120)) * time.Minute)
			}
			// One server with timestamps before the indexable range: the
			// replica must fall back to raw clones and still match.
			wild := trace.ServerID("wild-1")
			wildCursor := time.Date(1600, 1, 1, 0, 0, 0, 0, time.UTC)

			total := 4000 + rng.Intn(2000)
			for n := 0; n < total; n++ {
				if rng.Intn(40) == 0 {
					wildCursor = wildCursor.Add(time.Duration(1+rng.Intn(3600)) * time.Second)
					w.Ingest(Sample{
						Server: wild, Timestamp: wildCursor,
						TotalProcessorPct: float64(rng.Intn(101)),
						MemCommittedMB:    rng.Float64() * 1e5,
					})
					continue
				}
				i := rng.Intn(len(servers))
				switch rng.Intn(10) {
				case 0: // duplicate timestamp
				case 1: // out-of-order: step backwards
					cursor[i] = cursor[i].Add(-time.Duration(1+rng.Intn(5000)) * time.Second)
				default:
					cursor[i] = cursor[i].Add(time.Duration(1+rng.Intn(5400)) * time.Second)
				}
				w.Ingest(Sample{
					Server: servers[i], Timestamp: cursor[i],
					TotalProcessorPct: rng.Float64() * 100,
					MemCommittedMB:    rng.Float64() * 1e6,
				})
				if rng.Intn(500) == 0 {
					w.PublishReplicas() // exercise incremental republish mid-stream
				}
			}
			w.PublishReplicas()

			// Top-level views agree.
			liveIDs := w.Servers()
			repIDs, err := w.ReplicaServers()
			if err != nil {
				t.Fatal(err)
			}
			if len(liveIDs) != len(repIDs) {
				t.Fatalf("servers: live %v, replica %v", liveIDs, repIDs)
			}
			for i := range liveIDs {
				if liveIDs[i] != repIDs[i] {
					t.Fatalf("servers[%d]: live %s, replica %s", i, liveIDs[i], repIDs[i])
				}
			}
			liveStat := w.Stats()
			repStat, err := w.ReplicaStats()
			if err != nil {
				t.Fatal(err)
			}
			if liveStat != repStat {
				t.Fatalf("stats: live %+v, replica %+v", liveStat, repStat)
			}

			// The same questions over the wire: a replica answer and a
			// consistent (live) one must be the same response line, byte
			// for byte — one encoder, bit-identical samples.
			addr, _ := startQueryServer(t, w)
			conn, err := net.Dial("tcp", addr)
			if err != nil {
				t.Fatal(err)
			}
			defer conn.Close()
			lines := bufio.NewReader(conn)
			ask := func(req queryRequest) []byte {
				t.Helper()
				if err := json.NewEncoder(conn).Encode(req); err != nil {
					t.Fatal(err)
				}
				line, err := lines.ReadBytes('\n')
				if err != nil {
					t.Fatal(err)
				}
				return line
			}

			spec := trace.Spec{CPURPE2: 11900, MemMB: 131072}
			epochs := []time.Time{
				epoch,                       // hour-aligned: bucket fast path
				epoch.Add(17 * time.Minute), // unaligned: decode-scan fallback
				epoch.Add(-240 * time.Hour), // aligned, far before data
				time.Date(1500, 1, 1, 0, 0, 0, 0, time.UTC), // pre-indexable epoch
			}
			for _, id := range liveIDs {
				liveN := w.SampleCount(id)
				repN, err := w.ReplicaSampleCount(id)
				if err != nil {
					t.Fatal(err)
				}
				if liveN != repN {
					t.Fatalf("%s: live %d samples, replica %d", id, liveN, repN)
				}
				for ei, ep := range epochs {
					for _, lastHours := range []int{0, 24} {
						ctx := fmt.Sprintf("%s epoch[%d] last=%d", id, ei, lastHours)
						req := queryRequest{ID: 1, Op: "series", Server: id, CPURPE2: spec.CPURPE2, MemMB: spec.MemMB, Epoch: ep, LastHours: lastHours}
						repLine := ask(req)
						req.Consistent = true
						if liveLine := ask(req); !bytes.Equal(liveLine, repLine) {
							t.Fatalf("%s: live line %q != replica line %q", ctx, liveLine, repLine)
						}
						live, lerr := w.HourlySeriesWindow(id, spec, ep, lastHours)
						rep, rerr := w.ReplicaHourlySeriesWindow(id, spec, ep, lastHours)
						if (lerr == nil) != (rerr == nil) {
							t.Fatalf("%s: live err %v, replica err %v", ctx, lerr, rerr)
						}
						if lerr != nil {
							if lerr.Error() != rerr.Error() {
								t.Fatalf("%s: live err %q, replica err %q", ctx, lerr, rerr)
							}
							continue
						}
						equalSeries(t, ctx, live, rep)
						// And the line is that series: the client's decoder
						// gives back the bits the in-process read computed.
						resp, err := decodeResponseLine(repLine)
						if err != nil || !resp.OK || resp.samples == nil {
							t.Fatalf("%s: line %q decoded to %+v, %v", ctx, repLine, resp, err)
						}
						equalSeries(t, ctx+" wire", live, hours(resp.samples))
					}
				}
				// Range reads across narrow, wide, and empty windows.
				base := epoch.UnixNano()
				windows := [][2]int64{
					{base, base + int64(time.Hour)},
					{base - int64(24*time.Hour), base + int64(90*24*time.Hour)},
					{base + int64(13*time.Hour), base + int64(14*time.Hour)},
					{base + int64(400*24*time.Hour), base + int64(401*24*time.Hour)},
					{base + int64(time.Hour), base}, // inverted: empty
				}
				for wi, win := range windows {
					ctx := fmt.Sprintf("%s window[%d]", id, wi)
					live, lerr := w.Range(id, win[0], win[1])
					rep, rerr := w.ReplicaRange(id, win[0], win[1])
					if (lerr == nil) != (rerr == nil) {
						t.Fatalf("%s: live err %v, replica err %v", ctx, lerr, rerr)
					}
					if lerr != nil {
						continue
					}
					equalPoints(t, ctx, live, rep)
				}
			}
		})
	}
}

// TestReplicaStaleness pins the staleness contract: a replica serves its
// snapshot until republished, and a consistent read always sees the live
// edge.
func TestReplicaStaleness(t *testing.T) {
	w := NewWarehouse(0)
	if err := w.EnableReplicas(ReplicaConfig{NoBackground: true}); err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	w.Ingest(Sample{Server: "a", Timestamp: epoch, TotalProcessorPct: 10, MemCommittedMB: 100})
	w.PublishReplicas()

	w.Ingest(Sample{Server: "a", Timestamp: epoch.Add(time.Minute), TotalProcessorPct: 20, MemCommittedMB: 200})
	if n, _ := w.ReplicaSampleCount("a"); n != 1 {
		t.Fatalf("replica sees %d samples before republish, want 1", n)
	}
	if n := w.SampleCount("a"); n != 2 {
		t.Fatalf("live sees %d samples, want 2", n)
	}
	m := w.Metrics()
	if m.Replica == nil || !m.Replica.Enabled {
		t.Fatal("replica metrics missing")
	}
	if m.Replica.MaxLagSamples != 1 {
		t.Fatalf("lag = %d, want 1", m.Replica.MaxLagSamples)
	}
	if w.PublishReplicas() != 1 {
		t.Fatal("republish did not publish the stale shard")
	}
	if n, _ := w.ReplicaSampleCount("a"); n != 2 {
		t.Fatalf("replica sees %d samples after republish, want 2", n)
	}
	// An idle warehouse republishes nothing.
	if n := w.PublishReplicas(); n != 0 {
		t.Fatalf("idle republish touched %d shards", n)
	}
}

// TestReplicaIncrementalReuse proves steady in-order ingest republishes in
// O(new samples): sealed chunks are reused pointer-identically, and an
// out-of-order insert (which disturbs the prefix) drops the reuse.
func TestReplicaIncrementalReuse(t *testing.T) {
	w := NewWarehouseShards(0, 1)
	if err := w.EnableReplicas(ReplicaConfig{NoBackground: true, ChunkSamples: 8}); err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	ingest := func(minute int) {
		w.Ingest(Sample{Server: "a", Timestamp: epoch.Add(time.Duration(minute) * time.Minute),
			TotalProcessorPct: 50, MemCommittedMB: 1000})
	}
	for m := 0; m < 20; m++ {
		ingest(m)
	}
	w.PublishReplicas()
	r := w.replicas.Load()
	first := r.shards[0].Load().servers["a"]
	if first.sealedChunks != 2 || first.sealed != 16 {
		t.Fatalf("sealed = %d chunks / %d samples, want 2 / 16", first.sealedChunks, first.sealed)
	}
	for m := 20; m < 40; m++ {
		ingest(m)
	}
	w.PublishReplicas()
	second := r.shards[0].Load().servers["a"]
	for i := 0; i < first.sealedChunks; i++ {
		if second.chunks[i] != first.chunks[i] {
			t.Fatalf("sealed chunk %d was re-encoded instead of reused", i)
		}
	}
	// An out-of-order arrival rewrites the prefix: no reuse next publish.
	ingest(5)
	w.PublishReplicas()
	third := r.shards[0].Load().servers["a"]
	if third.chunks[0] == second.chunks[0] {
		t.Fatal("prefix chunk reused across an out-of-order insert")
	}
	// And the replica still matches the live answer exactly.
	live, err := w.HourlySeries("a", trace.Spec{CPURPE2: 1000}, epoch)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := w.ReplicaHourlySeries("a", trace.Spec{CPURPE2: 1000}, epoch)
	if err != nil {
		t.Fatal(err)
	}
	equalSeries(t, "after out-of-order", live, rep)
}

// TestReplicaConcurrentSoak runs 8 readers against live writers and the
// background publisher — the -race wall for the lock-free read path.
func TestReplicaConcurrentSoak(t *testing.T) {
	w := NewWarehouse(0)
	if err := w.EnableReplicas(ReplicaConfig{
		EverySamples: 64,
		MaxAge:       5 * time.Millisecond,
	}); err != nil {
		t.Fatal(err)
	}
	defer w.Close()

	servers := make([]trace.ServerID, 8)
	for i := range servers {
		servers[i] = trace.ServerID(fmt.Sprintf("soak-%d", i))
		w.Ingest(Sample{Server: servers[i], Timestamp: epoch, TotalProcessorPct: 5, MemCommittedMB: 64})
	}
	w.PublishReplicas()

	var stop atomic.Bool
	var wg sync.WaitGroup
	spec := trace.Spec{CPURPE2: 2000, MemMB: 4096}

	// Writers: steady in-order ingest with occasional out-of-order.
	for wr := 0; wr < 2; wr++ {
		wg.Add(1)
		go func(wr int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(wr)))
			// Ten minutes in, a late arrival (at most 600 s early) never
			// precedes the epoch the readers ask for.
			for m := 10; !stop.Load(); m++ {
				id := servers[rng.Intn(len(servers))]
				ts := epoch.Add(time.Duration(m) * time.Minute)
				if rng.Intn(16) == 0 {
					ts = ts.Add(-time.Duration(rng.Intn(600)) * time.Second)
				}
				w.Ingest(Sample{Server: id, Timestamp: ts,
					TotalProcessorPct: rng.Float64() * 100, MemCommittedMB: rng.Float64() * 1e5})
			}
		}(wr)
	}
	// 8 readers hammering every replica read form.
	for rd := 0; rd < 8; rd++ {
		wg.Add(1)
		go func(rd int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(100 + rd)))
			for !stop.Load() {
				id := servers[rng.Intn(len(servers))]
				switch rng.Intn(5) {
				case 0:
					if _, err := w.ReplicaServers(); err != nil {
						t.Error(err)
						return
					}
				case 1:
					if _, err := w.ReplicaStats(); err != nil {
						t.Error(err)
						return
					}
				case 2:
					s, err := w.ReplicaHourlySeries(id, spec, epoch)
					if err != nil {
						t.Error(err)
						return
					}
					if s.Len() == 0 {
						t.Error("empty series from replica")
						return
					}
				case 3:
					from := epoch.UnixNano() + rng.Int63n(int64(24*time.Hour))
					if _, err := w.ReplicaRange(id, from, from+int64(time.Hour)); err != nil {
						t.Error(err)
						return
					}
				case 4:
					if _, err := w.ReplicaSampleCount(id); err != nil {
						t.Error(err)
						return
					}
				}
			}
		}(rd)
	}
	time.Sleep(300 * time.Millisecond)
	stop.Store(true)
	wg.Wait()

	// The cadence goroutine must have been publishing throughout.
	m := w.Metrics()
	if m.Replica.Publishes < int64(len(w.shards))+1 {
		t.Fatalf("publishes = %d, want background republishing", m.Replica.Publishes)
	}
	// After one final explicit publish, replica and live agree exactly.
	w.PublishReplicas()
	for _, id := range servers {
		live, err := w.HourlySeries(id, spec, epoch)
		if err != nil {
			t.Fatal(err)
		}
		rep, err := w.ReplicaHourlySeries(id, spec, epoch)
		if err != nil {
			t.Fatal(err)
		}
		equalSeries(t, string(id), live, rep)
	}
}

// TestReplicaCompressionRatio pins the memory story on realistic (jittered
// diurnal) data: compressed replica columns must be at least 4x smaller
// than the raw hot columns.
func TestReplicaCompressionRatio(t *testing.T) {
	w := NewWarehouse(0)
	if err := w.EnableReplicas(ReplicaConfig{NoBackground: true}); err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	rng := rand.New(rand.NewSource(20141208))
	for s := 0; s < 4; s++ {
		id := trace.ServerID(fmt.Sprintf("ratio-%d", s))
		for m := 0; m < 7*24*60; m++ { // a week of minutely samples
			ts := epoch.Add(time.Duration(m) * time.Minute)
			hour := float64(m) / 60
			cpu := 20 + 15*math.Sin(hour/24*2*math.Pi) + rng.Float64()*4
			w.Ingest(Sample{Server: id, Timestamp: ts,
				TotalProcessorPct: cpu, MemCommittedMB: 4096 + float64(rng.Intn(64))})
		}
	}
	w.PublishReplicas()
	m := w.Metrics().Replica
	if m.CompressedBytes == 0 || m.RawBytes == 0 {
		t.Fatalf("byte accounting missing: %+v", m)
	}
	if m.CompressedBytes*4 > m.RawBytes {
		t.Fatalf("compression %d -> %d bytes: less than 4x", m.RawBytes, m.CompressedBytes)
	}
}

// TestQueryPipelining drives many concurrent calls over ONE connection and
// checks they all answer correctly through the worker pool.
func TestQueryPipelining(t *testing.T) {
	w := seedWarehouse(t)
	if err := w.EnableReplicas(ReplicaConfig{NoBackground: true}); err != nil {
		t.Fatal(err)
	}
	w.PublishReplicas()
	addr, qs := startQueryServer(t, w)

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	c, err := DialQuery(ctx, addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	spec := trace.Spec{CPURPE2: 1000, MemMB: 8192}
	// Consistent reads always take the worker pool, so the depth and
	// pooled-count assertions below aren't short-circuited by the replica
	// response cache's inline fast path.
	c.Consistent = true
	var wg sync.WaitGroup
	errs := make(chan error, 64)
	for i := 0; i < 64; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			id := trace.ServerID("a")
			want := 200.0 // 20% of 1000 RPE2
			if i%2 == 1 {
				id, want = "b", 400.0
			}
			series, err := c.HourlySeries(id, spec, epoch)
			if err != nil {
				errs <- err
				return
			}
			if series.Len() != 2 || math.Abs(series.Samples[0].CPU-want) > 1e-9 {
				errs <- fmt.Errorf("req %d: got len %d cpu %v, want %v", i, series.Len(), series.Samples[0].CPU, want)
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	m := qs.Metrics()
	if m.PooledRequests < 64 {
		t.Fatalf("pooled = %d, want >= 64", m.PooledRequests)
	}
	if m.MaxPipelineDepth < 2 {
		t.Fatalf("max pipeline depth = %d, want >= 2", m.MaxPipelineDepth)
	}

	// Repeat replica-served questions skip the pool entirely: the first
	// ask populates the generation's response cache, the second is
	// answered inline by the reader goroutine.
	c.Consistent = false
	for i := 0; i < 2; i++ {
		if _, err := c.HourlySeries("a", spec, epoch); err != nil {
			t.Fatal(err)
		}
	}
	if m := qs.Metrics(); m.FastPathHits < 1 {
		t.Fatalf("fast path hits = %d, want >= 1", m.FastPathHits)
	}
}

// TestQueryLegacyLockstep speaks the pre-pipelining protocol (no ids) on a
// raw socket and expects strictly ordered, id-less responses.
func TestQueryLegacyLockstep(t *testing.T) {
	w := seedWarehouse(t)
	addr, _ := startQueryServer(t, w)
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := conn.Write([]byte(`{"op":"servers"}` + "\n" + `{"op":"stats"}` + "\n")); err != nil {
		t.Fatal(err)
	}
	dec := json.NewDecoder(conn)
	var r1, r2 queryResponse
	if err := dec.Decode(&r1); err != nil {
		t.Fatal(err)
	}
	if err := dec.Decode(&r2); err != nil {
		t.Fatal(err)
	}
	if !r1.OK || len(r1.Servers) != 2 || r1.ID != 0 {
		t.Fatalf("first response = %+v", r1)
	}
	if !r2.OK || r2.Stats == nil || r2.Stats.Samples != 240 || r2.ID != 0 {
		t.Fatalf("second response = %+v", r2)
	}
}

// TestQueryConsistentFlag: a stale replica serves the snapshot; the
// consistent flag reads through to the live shards.
func TestQueryConsistentFlag(t *testing.T) {
	w := seedWarehouse(t)
	if err := w.EnableReplicas(ReplicaConfig{NoBackground: true}); err != nil {
		t.Fatal(err)
	}
	w.PublishReplicas()
	// Ingest past the snapshot: live moves, replica stands still.
	w.Ingest(Sample{Server: "a", Timestamp: epoch.Add(3 * time.Hour), TotalProcessorPct: 90, MemCommittedMB: 9000})
	addr, _ := startQueryServer(t, w)

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	c, err := DialQuery(ctx, addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	stale, err := c.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if stale.Samples != 240 {
		t.Fatalf("replica stats = %+v, want the 240-sample snapshot", stale)
	}
	c.Consistent = true
	fresh, err := c.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if fresh.Samples != 241 {
		t.Fatalf("consistent stats = %+v, want 241 live samples", fresh)
	}
}

// TestQueryRangeSkipsBlocks: a narrow range over a long history must skip
// most compressed blocks.
func TestQueryRangeSkipsBlocks(t *testing.T) {
	w := NewWarehouse(0)
	if err := w.EnableReplicas(ReplicaConfig{NoBackground: true, ChunkSamples: 64}); err != nil {
		t.Fatal(err)
	}
	for m := 0; m < 2048; m++ {
		w.Ingest(Sample{Server: "a", Timestamp: epoch.Add(time.Duration(m) * time.Minute),
			TotalProcessorPct: 25, MemCommittedMB: 1024})
	}
	w.PublishReplicas()
	addr, _ := startQueryServer(t, w)
	defer w.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	c, err := DialQuery(ctx, addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	from := epoch.Add(10 * time.Hour).UnixNano()
	points, err := c.Range("a", from, from+int64(time.Hour))
	if err != nil {
		t.Fatal(err)
	}
	if len(points) != 60 {
		t.Fatalf("got %d points, want 60", len(points))
	}
	m := w.Metrics().Replica
	if m.ChunksSkipped == 0 {
		t.Fatal("no blocks skipped on a narrow range")
	}
	if m.ChunksRead > 3 {
		t.Fatalf("decoded %d blocks for a 60-sample window, want <= 3", m.ChunksRead)
	}
}

// TestQueryAdvise runs the advisor endpoint end-to-end over replica data.
func TestQueryAdvise(t *testing.T) {
	w := NewWarehouse(0)
	if err := w.EnableReplicas(ReplicaConfig{NoBackground: true}); err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	rng := rand.New(rand.NewSource(7))
	// 3 servers x 21 days of hourly samples: long enough for the
	// advisor's predictability screens and the planner pass.
	for s := 0; s < 3; s++ {
		id := trace.ServerID(fmt.Sprintf("adv-%d", s))
		for h := 0; h < 21*24; h++ {
			cpu := 15 + 10*math.Sin(float64(h%24)/24*2*math.Pi) + rng.Float64()*5
			if cpu < 0 {
				cpu = 0
			}
			w.Ingest(Sample{Server: id, Timestamp: epoch.Add(time.Duration(h) * time.Hour),
				TotalProcessorPct: cpu, MemCommittedMB: 8192})
		}
	}
	w.PublishReplicas()
	addr, _ := startQueryServer(t, w)

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	c, err := DialQuery(ctx, addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	adv, err := c.Advise(trace.Spec{CPURPE2: 2000, MemMB: 16384}, epoch, 0)
	if err != nil {
		t.Fatal(err)
	}
	if adv.Mode == "" || len(adv.Reasons) == 0 {
		t.Fatalf("advice missing mode/reasons: %+v", adv)
	}
	if adv.Servers != 3 || adv.Hours != 21*24 {
		t.Fatalf("advice window = %d servers x %d hours", adv.Servers, adv.Hours)
	}
	if adv.PlanError != "" {
		t.Fatalf("placement pass failed: %s", adv.PlanError)
	}
	if adv.Provisioned < 1 {
		t.Fatalf("provisioned = %d, want >= 1", adv.Provisioned)
	}
}

// TestServersMemoMerge checks the per-shard memoized Servers list against a
// straight rebuild as servers arrive.
func TestServersMemoMerge(t *testing.T) {
	w := NewWarehouse(0)
	seen := make(map[trace.ServerID]bool)
	rng := rand.New(rand.NewSource(3))
	for n := 0; n < 200; n++ {
		id := trace.ServerID(fmt.Sprintf("m-%03d", rng.Intn(60)))
		seen[id] = true
		w.Ingest(Sample{Server: id, Timestamp: epoch.Add(time.Duration(n) * time.Second),
			TotalProcessorPct: 1, MemCommittedMB: 1})
		got := w.Servers()
		if len(got) != len(seen) {
			t.Fatalf("after %d ingests: %d servers, want %d", n+1, len(got), len(seen))
		}
		for i := 1; i < len(got); i++ {
			if got[i-1] >= got[i] {
				t.Fatalf("unsorted/duplicated at %d: %v", i, got)
			}
		}
		for _, id := range got {
			if !seen[id] {
				t.Fatalf("unknown server %s", id)
			}
		}
	}
}
