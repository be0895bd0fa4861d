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
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"vmwild/internal/trace"
)

// equalSeries demands bitwise identity between two hourly series.
func equalSeries(t *testing.T, ctx string, want, got *trace.Series) {
	t.Helper()
	if want.Len() != got.Len() {
		t.Fatalf("%s: want %d hours, got %d hours", ctx, want.Len(), got.Len())
	}
	for i := range want.Samples {
		l, r := want.Samples[i], got.Samples[i]
		if math.Float64bits(l.CPU) != math.Float64bits(r.CPU) ||
			math.Float64bits(l.Mem) != math.Float64bits(r.Mem) {
			t.Fatalf("%s: hour %d want (%x, %x) != got (%x, %x)",
				ctx, i, math.Float64bits(l.CPU), math.Float64bits(l.Mem),
				math.Float64bits(r.CPU), math.Float64bits(r.Mem))
		}
	}
}

func equalPoints(t *testing.T, ctx string, want, got []RangePoint) {
	t.Helper()
	if len(want) != len(got) {
		t.Fatalf("%s: want %d points, got %d points", ctx, len(want), len(got))
	}
	for i := range want {
		l, r := want[i], got[i]
		if l.TS != r.TS ||
			math.Float64bits(l.CPU) != math.Float64bits(r.CPU) ||
			math.Float64bits(l.Mem) != math.Float64bits(r.Mem) {
			t.Fatalf("%s: point %d want %+v != got %+v", ctx, i, l, r)
		}
	}
}

// rangePoints is Range over the reference: the retained samples with
// from <= ts < to, in storage order.
func (r *refStore) rangePoints(id trace.ServerID, from, to int64) []RangePoint {
	var out []RangePoint
	for _, s := range r.servers[id] {
		if !s.Timestamp.Before(time.Unix(0, from)) && s.Timestamp.Before(time.Unix(0, to)) {
			out = append(out, RangePoint{TS: s.Timestamp.UnixNano(), CPU: s.TotalProcessorPct, Mem: s.MemCommittedMB})
		}
	}
	return out
}

// liveEqualsReference checks every read of id against the reference:
// hourly series at each epoch (errors included) bit for bit, in process and
// as the memoized response body, and a raw range over all time.
func liveEqualsReference(t *testing.T, w *Warehouse, ref *refStore, id trace.ServerID, epochs ...time.Time) {
	t.Helper()
	for _, ep := range epochs {
		ctx := fmt.Sprintf("%s at epoch %v", id, ep)
		want, wantErr := ref.hourly(id, storeSpec, ep)
		live, liveErr := w.HourlySeries(id, storeSpec, ep)
		body, bodyErr := w.seriesJSON(id, storeSpec, ep, 0)
		for _, err := range []error{liveErr, bodyErr} {
			if (err == nil) != (wantErr == nil) || (err != nil && err.Error() != wantErr.Error()) {
				t.Fatalf("%s: err %v, reference err %v", ctx, err, wantErr)
			}
		}
		if wantErr == nil {
			equalSeries(t, ctx, hours(want), live)
			if !bytes.Equal(body, seriesBody(want)) {
				t.Fatalf("%s: memoized body differs from the reference's", ctx)
			}
		}
	}
	live, err := w.Range(id, math.MinInt64, math.MaxInt64)
	if err != nil {
		t.Fatal(err)
	}
	equalPoints(t, string(id)+" range", ref.rangePoints(id, math.MinInt64, math.MaxInt64), live)
}

// TestReplicaEquivalenceWall is the exactness contract: whatever a seeded
// adversarial ingest stream does — out-of-order arrivals, duplicate
// timestamps, retention evictions, even unindexable "wild" timestamps —
// every read, in process and over the wire, is bitwise-identical to the
// from-scratch reference fed the same stream. Reads once came from a
// snapshot replica; they are now live, and the deprecated replica calls
// older callers still make are interleaved to pin that they change no
// answer.
func TestReplicaEquivalenceWall(t *testing.T) {
	for _, seed := range []int64{20141208, 7, 3} {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			const retention = 36 * time.Hour // tight enough to evict
			w := NewWarehouse(retention)
			if err := w.EnableReplicas(ReplicaConfig{}); err != nil {
				t.Fatal(err)
			}
			defer w.Close()
			ref := newRefStore(retention)
			ingested := 0
			ingest := func(s Sample) {
				w.Ingest(s)
				ref.ingest(s)
				if ingested++; ingested%512 == 0 && w.PublishReplicas() != 0 {
					t.Fatal("PublishReplicas published a replica")
				}
			}

			servers := make([]trace.ServerID, 6)
			cursor := make([]time.Time, len(servers))
			for i := range servers {
				servers[i] = trace.ServerID(fmt.Sprintf("srv-%02d", i))
				cursor[i] = epoch.Add(time.Duration(rng.Intn(120)) * time.Minute)
			}
			// One server with timestamps before the indexable range: its
			// store is irregular and must still match.
			wild := trace.ServerID("wild-1")
			wildCursor := time.Date(1600, 1, 1, 0, 0, 0, 0, time.UTC)

			total := 4000 + rng.Intn(2000)
			for n := 0; n < total; n++ {
				if rng.Intn(40) == 0 {
					wildCursor = wildCursor.Add(time.Duration(1+rng.Intn(3600)) * time.Second)
					ingest(Sample{
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
				ingest(Sample{
					Server: servers[i], Timestamp: cursor[i],
					TotalProcessorPct: rng.Float64() * 100,
					MemCommittedMB:    rng.Float64() * 1e6,
				})
			}

			// Top-level views agree.
			liveIDs := w.Servers()
			if len(liveIDs) != len(ref.servers) {
				t.Fatalf("servers: live %v, reference has %d", liveIDs, len(ref.servers))
			}
			for i, id := range liveIDs {
				if _, ok := ref.servers[id]; !ok || (i > 0 && liveIDs[i-1] >= id) {
					t.Fatalf("servers[%d]: %s unknown to the reference or out of order", i, id)
				}
			}
			wantStat := Stat{Servers: len(ref.servers), Dropped: ref.evicted + ref.dropped}
			for _, list := range ref.servers {
				wantStat.Samples += len(list)
			}
			if got := w.Stats(); got != wantStat {
				t.Fatalf("stats: live %+v, reference %+v", got, wantStat)
			}
			if m := w.Metrics(); m.Replica != nil {
				t.Fatalf("metrics report replica work: %+v", *m.Replica)
			}

			// The same questions over the wire: the response line is the
			// reference's series (or error), byte for byte.
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
				epoch.Add(17 * time.Minute), // unaligned: scan fallback
				epoch.Add(-240 * time.Hour), // aligned, far before data
				time.Date(1500, 1, 1, 0, 0, 0, 0, time.UTC), // pre-indexable epoch
			}
			for _, id := range liveIDs {
				if got, want := w.SampleCount(id), len(ref.servers[id]); got != want {
					t.Fatalf("%s: live %d samples, reference %d", id, got, want)
				}
				for ei, ep := range epochs {
					for _, lastHours := range []int{0, 24} {
						ctx := fmt.Sprintf("%s epoch[%d] last=%d", id, ei, lastHours)
						line := ask(queryRequest{ID: 1, Op: "series", Server: id, CPURPE2: spec.CPURPE2, MemMB: spec.MemMB, Epoch: ep, LastHours: lastHours})
						want, werr := ref.hourly(id, spec, ep)
						live, lerr := w.HourlySeriesWindow(id, spec, ep, lastHours)
						if (lerr == nil) != (werr == nil) {
							t.Fatalf("%s: live err %v, reference err %v", ctx, lerr, werr)
						}
						if werr != nil {
							wantLine, _ := json.Marshal(queryResponse{ID: 1, Error: werr.Error()})
							if lerr.Error() != werr.Error() || !bytes.Equal(line, append(wantLine, '\n')) {
								t.Fatalf("%s: live err %q, line %q; reference err %q", ctx, lerr, line, werr)
							}
							continue
						}
						want = windowTail(want, lastHours)
						equalSeries(t, ctx, hours(want), live)
						wantLine := append(append([]byte(`{"id":1,`), seriesBody(want)...), '\n')
						if !bytes.Equal(line, wantLine) {
							t.Fatalf("%s: line %q, want %q", ctx, line, wantLine)
						}
						// And the line is that series: the client's decoder
						// gives back the reference's bits.
						resp, err := decodeResponseLine(line)
						if err != nil || !resp.OK || resp.samples == nil {
							t.Fatalf("%s: line %q decoded to %+v, %v", ctx, line, resp, err)
						}
						equalSeries(t, ctx+" wire", hours(want), hours(resp.samples))
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
					live, err := w.Range(id, win[0], win[1])
					if err != nil {
						t.Fatal(err)
					}
					equalPoints(t, fmt.Sprintf("%s window[%d]", id, wi), ref.rangePoints(id, win[0], win[1]), live)
				}
			}
		})
	}
}

// TestHourlySeriesFarEpoch reads five hourly samples through an epoch
// more than 292 years before them, where time.Time.Sub saturates: the
// scan must still place each sample in its own hour, matching the read at
// an aligned epoch bit for bit.
func TestHourlySeriesFarEpoch(t *testing.T) {
	w := NewWarehouse(0)
	for h := 0; h < 5; h++ {
		w.Ingest(Sample{Server: "far", Timestamp: epoch.Add(time.Duration(h) * time.Hour),
			TotalProcessorPct: float64(10 * (h + 1)), MemCommittedMB: float64(100 * (h + 1))})
	}
	spec := trace.Spec{CPURPE2: 1000, MemMB: 4096}
	aligned, err := w.HourlySeries("far", spec, epoch)
	if err != nil {
		t.Fatal(err)
	}
	if aligned.Len() != 5 {
		t.Fatalf("aligned read: %d hours, want 5", aligned.Len())
	}
	for _, far := range []time.Time{
		time.Date(1500, 1, 1, 0, 0, 0, 0, time.UTC),
		time.Date(1500, 1, 1, 0, 0, 0, 999_999_999, time.UTC), // borrows a second
	} {
		got, err := w.HourlySeries("far", spec, far)
		if err != nil {
			t.Fatal(err)
		}
		equalSeries(t, "epoch "+far.String(), aligned, got)
	}
	// A store spanning more hours than a time.Duration holds fails the
	// read rather than allocating them all.
	w.Ingest(Sample{Server: "wide", Timestamp: epoch, TotalProcessorPct: 1, MemCommittedMB: 1})
	w.Ingest(Sample{Server: "wide", Timestamp: epoch.AddDate(300, 0, 0), TotalProcessorPct: 1, MemCommittedMB: 1})
	if _, err := w.HourlySeries("wide", spec, epoch); err == nil || !strings.Contains(err.Error(), "would span") {
		t.Fatalf("300-year store: err = %v, want the span refused", err)
	}
}

// seriesAsker asks series questions over one raw connection with ids, so
// a question the memo holds is answered inline by the reader goroutine
// and any other goes through the worker pool.
type seriesAsker struct {
	t     *testing.T
	conn  net.Conn
	lines *bufio.Reader
	id    uint64
}

func newSeriesAsker(t *testing.T, addr string) *seriesAsker {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	return &seriesAsker{t: t, conn: conn, lines: bufio.NewReader(conn)}
}

// check asks one question and demands the line a fresh in-process read of
// w answers at the same point: the series' seriesBody, or its error.
func (a *seriesAsker) check(ctx string, w *Warehouse, id trace.ServerID, spec trace.Spec, ep time.Time, lastHours int) {
	a.t.Helper()
	a.id++
	req := queryRequest{ID: a.id, Op: "series", Server: id, CPURPE2: spec.CPURPE2, MemMB: spec.MemMB, Epoch: ep, LastHours: lastHours}
	if err := json.NewEncoder(a.conn).Encode(req); err != nil {
		a.t.Fatal(err)
	}
	line, err := a.lines.ReadBytes('\n')
	if err != nil {
		a.t.Fatal(err)
	}
	want := []byte(`{"id":` + strconv.FormatUint(a.id, 10) + ",")
	if s, err := w.HourlySeriesWindow(id, spec, ep, lastHours); err != nil {
		resp, _ := json.Marshal(queryResponse{ID: a.id, Error: err.Error()})
		want = resp
	} else {
		want = append(want, seriesBody(s.Samples)...)
	}
	if want = append(want, '\n'); !bytes.Equal(line, want) {
		a.t.Fatalf("%s: %s last=%d at %v: line %q, want %q", ctx, id, lastHours, ep, line, want)
	}
}

// TestSeriesMemoNeverStale interleaves every kind of store change with
// series and window reads over the wire, each question asked twice (a
// memo miss through the pool, then a hit answered inline), and demands
// every answer be the bytes a fresh in-process read gives at that point.
// The questions are asked before each change too, so a memo that served
// across a generation would answer with the old bytes.
func TestSeriesMemoNeverStale(t *testing.T) {
	const retention = 6 * time.Hour
	w := NewWarehouseShards(retention, 2)
	defer w.Close()
	addr, qs := startQueryServer(t, w)
	a := newSeriesAsker(t, addr)

	servers := []trace.ServerID{"m-a", "m-b", "m-new"}
	spec := trace.Spec{CPURPE2: 2000, MemMB: 4096}
	ask := func(step string) {
		t.Helper()
		for _, id := range servers {
			for _, ep := range []time.Time{epoch, epoch.Add(-3 * time.Hour), epoch.Add(11 * time.Minute)} {
				for _, last := range []int{0, 2} {
					a.check(step, w, id, spec, ep, last)
					a.check(step+" (repeat)", w, id, spec, ep, last)
				}
			}
		}
	}
	in := func(id trace.ServerID, at time.Duration, loc *time.Location, cpu float64) {
		w.Ingest(Sample{Server: id, Timestamp: epoch.Add(at).In(loc), TotalProcessorPct: cpu, MemCommittedMB: 100 + cpu})
	}
	for m := 0; m < 4*60; m += 15 {
		in("m-a", time.Duration(m)*time.Minute, time.UTC, float64(m%71))
		in("m-b", time.Duration(m)*time.Minute, time.UTC, float64(m%53))
	}
	ask("seeded")
	in("m-a", 4*time.Hour+5*time.Minute, time.UTC, 33)
	ask("in-order insert")
	in("m-a", 90*time.Minute+1, time.UTC, 99)
	ask("late sample")
	before := w.Stats().Dropped
	in("m-b", 6*time.Hour+20*time.Minute, time.UTC, 7)
	if w.Stats().Dropped == before {
		t.Fatal("the retention edge evicted nothing")
	}
	ask("eviction")
	in("m-new", 2*time.Hour, time.UTC, 12)
	ask("new server")
	in("m-a", 4*time.Hour+40*time.Minute, time.FixedZone("", 3600), 61)
	if st := storeOf(w, "m-a"); st.offs == nil || st.irregular {
		t.Fatal("the zone change did not reach the store's offset column")
	}
	ask("zone change")

	m := qs.Metrics()
	if m.FastPathHits == 0 || m.PooledRequests == 0 {
		t.Fatalf("fast path %d, pooled %d: want both paths exercised", m.FastPathHits, m.PooledRequests)
	}
}

// TestSeriesMemoNeverStaleConcurrent is the -race variant: writers keep
// changing other servers of the one shard, so its generation moves under
// every read and memo store, while the test's own goroutine changes the
// server it asks about and checks each answer as above.
func TestSeriesMemoNeverStaleConcurrent(t *testing.T) {
	w := NewWarehouseShards(24*time.Hour, 1) // bounds the writers' stores
	defer w.Close()
	addr, _ := startQueryServer(t, w)
	a := newSeriesAsker(t, addr)
	c := dialQueryT(t, addr)

	var stop atomic.Bool
	var wg sync.WaitGroup
	for wr := 0; wr < 2; wr++ {
		wg.Add(1)
		go func(wr int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(wr)))
			id := trace.ServerID(fmt.Sprintf("noise-%d", wr))
			for m := 0; !stop.Load(); m++ {
				w.Ingest(Sample{Server: id, Timestamp: epoch.Add(time.Duration(m) * time.Minute),
					TotalProcessorPct: rng.Float64() * 100, MemCommittedMB: rng.Float64() * 1e4})
			}
		}(wr)
	}
	defer func() { stop.Store(true); wg.Wait() }()

	const id = "mine"
	spec := trace.Spec{CPURPE2: 1500, MemMB: 2048}
	rng := rand.New(rand.NewSource(20141208))
	for n := 0; n < 300; n++ {
		at := time.Duration(n) * 7 * time.Minute
		if n%9 == 8 {
			at -= time.Duration(rng.Intn(120)) * time.Minute // late
		}
		w.Ingest(Sample{Server: id, Timestamp: epoch.Add(at), TotalProcessorPct: rng.Float64() * 100, MemCommittedMB: 512})
		for _, last := range []int{0, 3} {
			a.check(fmt.Sprint("step ", n), w, id, spec, epoch, last)
			a.check(fmt.Sprint("step ", n, " (repeat)"), w, id, spec, epoch, last)
		}
		got, err := c.HourlySeries(id, spec, epoch)
		if err != nil {
			t.Fatal(err)
		}
		want, err := w.HourlySeries(id, spec, epoch)
		if err != nil {
			t.Fatal(err)
		}
		equalSeries(t, fmt.Sprint("client step ", n), want, got)
	}
}

// TestReplicaConcurrentSoak runs 8 readers over every read form against
// live writers and a caller of the deprecated PublishReplicas — the -race
// wall for reads beside ingest — then checks that the buckets the
// concurrent late arrivals kept equal a reference fed the retained
// samples in storage order.
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
	// The publisher a replica-era caller runs on its own cadence.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for !stop.Load() {
			if w.PublishReplicas() != 0 {
				t.Error("PublishReplicas published a replica")
				return
			}
			time.Sleep(time.Millisecond)
		}
	}()
	// 8 readers hammering every read form.
	for rd := 0; rd < 8; rd++ {
		wg.Add(1)
		go func(rd int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(100 + rd)))
			for !stop.Load() {
				id := servers[rng.Intn(len(servers))]
				switch rng.Intn(6) {
				case 0:
					if len(w.Servers()) != len(servers) {
						t.Error("servers list lost a server")
						return
					}
				case 1:
					if w.Stats().Servers != len(servers) {
						t.Error("stats lost a server")
						return
					}
				case 2:
					s, err := w.HourlySeries(id, spec, epoch)
					if err != nil {
						t.Error(err)
						return
					}
					if s.Len() == 0 {
						t.Error("empty series")
						return
					}
				case 3:
					from := epoch.UnixNano() + rng.Int63n(int64(24*time.Hour))
					if _, err := w.Range(id, from, from+int64(time.Hour)); err != nil {
						t.Error(err)
						return
					}
				case 4:
					if w.SampleCount(id) == 0 {
						t.Error("no samples")
						return
					}
				case 5:
					if _, err := w.seriesJSON(id, spec, epoch, rng.Intn(3)); err != nil {
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

	var buf bytes.Buffer
	if err := w.Snapshot(&buf); err != nil {
		t.Fatal(err)
	}
	ref := newRefStore(0)
	rest := bytes.TrimPrefix(buf.Bytes(), []byte(snapshotMagic))
	for len(rest) > 0 {
		s, tail, err := decodeRecord(rest, map[string]trace.ServerID{})
		if err != nil {
			t.Fatal(err)
		}
		ref.ingest(s)
		rest = tail
	}
	for _, id := range servers {
		liveEqualsReference(t, w, ref, id, epoch, epoch.Add(7*time.Minute))
	}
}

// TestQueryPipelining drives many concurrent calls over ONE connection and
// checks they all answer correctly through the worker pool.
func TestQueryPipelining(t *testing.T) {
	w := seedWarehouse(t)
	addr, qs := startQueryServer(t, w)

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	c, err := DialQuery(ctx, addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	// Every call asks a question of its own (the memory size is part of
	// the memo key and not of the answer), so none is answered inline from
	// the series memo and the depth and pooled-count assertions below see
	// every call.
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
			series, err := c.HourlySeries(id, trace.Spec{CPURPE2: 1000, MemMB: float64(8192 + i)}, epoch)
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

	// Repeat questions skip the pool entirely: the first ask populates the
	// shard generation's memo, the second is answered inline by the
	// reader goroutine.
	spec := trace.Spec{CPURPE2: 1000, MemMB: 8192}
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

// TestQueryConsistentFlag: the "consistent" field is retired because every
// read is live. A sample ingested after the server came up is in the very
// next answer, and a client that still sends the field is answered the
// same.
func TestQueryConsistentFlag(t *testing.T) {
	w := seedWarehouse(t)
	addr, _ := startQueryServer(t, w)
	c := dialQueryT(t, addr)
	if st, err := c.Stats(); err != nil || st.Samples != 240 {
		t.Fatalf("stats = %+v, %v; want the 240 seeded samples", st, err)
	}
	w.Ingest(Sample{Server: "a", Timestamp: epoch.Add(3 * time.Hour), TotalProcessorPct: 90, MemCommittedMB: 9000})
	fresh, err := c.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if fresh.Samples != 241 {
		t.Fatalf("stats = %+v, want 241 live samples", fresh)
	}
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := conn.Write([]byte(`{"op":"stats","consistent":true}` + "\n")); err != nil {
		t.Fatal(err)
	}
	var resp queryResponse
	if err := json.NewDecoder(conn).Decode(&resp); err != nil || !resp.OK || resp.Stats == nil || resp.Stats.Samples != 241 {
		t.Fatalf("old client's stats = %+v, %v", resp, err)
	}
}

// TestQueryRange: a narrow range over a long history returns exactly the
// samples inside it.
func TestQueryRange(t *testing.T) {
	w := NewWarehouse(0)
	for m := 0; m < 2048; m++ {
		w.Ingest(Sample{Server: "a", Timestamp: epoch.Add(time.Duration(m) * time.Minute),
			TotalProcessorPct: 25, MemCommittedMB: 1024})
	}
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
	for i, p := range points {
		if p.TS != from+int64(i)*int64(time.Minute) || p.CPU != 25 || p.Mem != 1024 {
			t.Fatalf("point %d = %+v", i, p)
		}
	}
}

// TestQueryAdvise runs the advisor endpoint end-to-end.
func TestQueryAdvise(t *testing.T) {
	w := NewWarehouse(0)
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
