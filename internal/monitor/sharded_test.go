package monitor

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"os"
	"sort"
	"strconv"
	"sync"
	"testing"
	"time"

	"vmwild/internal/fsx"
	"vmwild/internal/trace"
	"vmwild/internal/wal"
)

// ---- equivalence wall ----
//
// refStore is a from-scratch reference for the sharded warehouse: a plain
// sorted []Sample per server with the pre-shard bubble-insert and
// retention semantics, and an hourly aggregation recomputed on every call.
// The equivalence test feeds identical randomized streams to both and
// demands bit-identical output, which pins down the tentpole invariant:
// the incrementally maintained hour buckets must equal a from-scratch
// left-to-right recompute at every point in the stream.

type refStore struct {
	retention time.Duration
	servers   map[trace.ServerID][]Sample
	// irregular marks the servers whose store has left the dense bucket
	// layout for good (a wild instant or offset, or a span past
	// maxDenseHours); their reads always scan.
	irregular map[trace.ServerID]bool
	evicted   int
	dropped   int
}

func newRefStore(retention time.Duration) *refStore {
	return &refStore{retention: retention, servers: make(map[trace.ServerID][]Sample), irregular: make(map[trace.ServerID]bool)}
}

func (r *refStore) ingest(s Sample) {
	if s.Validate() != nil {
		r.dropped++
		return
	}
	list := r.servers[s.Server]
	pos := sort.Search(len(list), func(i int) bool { return list[i].Timestamp.After(s.Timestamp) })
	list = append(list, Sample{})
	copy(list[pos+1:], list[pos:])
	list[pos] = s
	if r.retention > 0 {
		cutoff := list[len(list)-1].Timestamp.Add(-r.retention)
		drop := 0
		for drop < len(list) && list[drop].Timestamp.Before(cutoff) {
			drop++
		}
		r.evicted += drop
		list = list[drop:]
	}
	_, off := s.Timestamp.Zone()
	if !timeIndexable(s.Timestamp) || off != int(int32(off)) ||
		(len(list) > 0 && hourIndex(list[len(list)-1].Timestamp)-hourIndex(list[0].Timestamp) >= maxDenseHours) {
		r.irregular[s.Server] = true
	}
	r.servers[s.Server] = list
}

// hourly mirrors the warehouse's two query paths exactly: the aligned-epoch
// bucket read (sums accumulated left to right in storage order, scaled once
// per hour) and the legacy scan (each sample scaled before summation).
func (r *refStore) hourly(id trace.ServerID, spec trace.Spec, epoch time.Time) ([]trace.Usage, error) {
	list := r.servers[id]
	if len(list) == 0 {
		return nil, fmt.Errorf("monitor: no samples for %s", id)
	}
	if spec.CPURPE2 <= 0 {
		return nil, errNoCPURating
	}
	if !r.irregular[id] && timeIndexable(epoch) && epoch.UnixNano()%hourNanos == 0 && !list[0].Timestamp.Before(epoch) {
		firstH := hourIndex(list[0].Timestamp)
		lastH := hourIndex(list[len(list)-1].Timestamp)
		type agg struct {
			sumPct, sumMem float64
			n              int
		}
		hours := make(map[int64]*agg)
		for _, s := range list {
			h := hourIndex(s.Timestamp)
			b := hours[h]
			if b == nil {
				b = &agg{}
				hours[h] = b
			}
			b.sumPct += s.TotalProcessorPct
			b.sumMem += s.MemCommittedMB
			b.n++
		}
		out := make([]trace.Usage, lastH-firstH+1)
		for h, b := range hours {
			nn := float64(b.n)
			out[h-firstH] = trace.Usage{CPU: b.sumPct / nn / 100 * spec.CPURPE2, Mem: b.sumMem / nn}
		}
		return out, nil
	}
	if list[0].Timestamp.Before(epoch) {
		return nil, errPrecedeEpoch
	}
	first := int(list[0].Timestamp.Sub(epoch) / time.Hour)
	last := int(list[len(list)-1].Timestamp.Sub(epoch) / time.Hour)
	type bucket struct {
		cpu, mem float64
		n        int
	}
	buckets := make([]bucket, last-first+1)
	for _, s := range list {
		j := int(s.Timestamp.Sub(epoch)/time.Hour) - first
		buckets[j].cpu += s.TotalProcessorPct / 100 * spec.CPURPE2
		buckets[j].mem += s.MemCommittedMB
		buckets[j].n++
	}
	out := make([]trace.Usage, len(buckets))
	for i, b := range buckets {
		if b.n > 0 {
			out[i] = trace.Usage{CPU: b.cpu / float64(b.n), Mem: b.mem / float64(b.n)}
		}
	}
	return out, nil
}

func (r *refStore) snapshotBytes(t *testing.T) []byte {
	t.Helper()
	ids := make([]trace.ServerID, 0, len(r.servers))
	for id := range r.servers {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	buf := []byte(snapshotMagic)
	for _, id := range ids {
		for _, s := range r.servers[id] {
			buf = appendRecord(buf, &s)
		}
	}
	return buf
}

// eqStream replays one seeded randomized stream — out-of-order arrivals,
// duplicate timestamps, occasional invalid samples, a mix of single and
// batched ingest — into both stores and cross-checks every read surface.
func eqStream(t *testing.T, seed int64, shards int, retention time.Duration) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	w := NewWarehouseShards(retention, shards)
	ref := newRefStore(retention)

	const nServers = 6
	ids := make([]trace.ServerID, nServers)
	clocks := make([]time.Time, nServers)
	for i := range ids {
		ids[i] = trace.ServerID(fmt.Sprintf("eq-%d", i))
		clocks[i] = benchEpoch.Add(time.Duration(i) * time.Minute)
	}

	feed := func(s Sample) { // arrival order must be identical in both stores
		ref.ingest(s)
	}
	var pending []Sample
	flush := func() {
		for _, s := range pending {
			feed(s)
		}
		w.IngestBatch(pending)
		pending = pending[:0]
	}
	for ev := 0; ev < 2000; ev++ {
		k := rng.Intn(nServers)
		clocks[k] = clocks[k].Add(time.Duration(1+rng.Intn(300)) * time.Second)
		ts := clocks[k]
		switch {
		case rng.Float64() < 0.20: // late arrival, possibly pre-retention
			ts = ts.Add(-time.Duration(rng.Intn(3*3600)) * time.Second)
		case rng.Float64() < 0.05: // duplicate timestamp
			ts = ts.Add(-time.Duration(1+rng.Intn(300)) * time.Second)
		}
		s := Sample{
			Server:            ids[k],
			Timestamp:         ts,
			TotalProcessorPct: rng.Float64() * 100,
			MemCommittedMB:    512 + rng.Float64()*4096,
			PagesPerSec:       rng.Float64() * 100,
		}
		if rng.Float64() < 0.02 {
			s.TotalProcessorPct = 150 // invalid: both sides must drop it
		}
		if rng.Float64() < 0.4 {
			pending = append(pending, s)
			if len(pending) >= 1+rng.Intn(40) {
				flush()
			}
		} else {
			feed(s)
			w.Ingest(s)
		}
	}
	flush()

	// Cardinality surfaces.
	servers := w.Servers()
	if len(servers) != len(ref.servers) {
		t.Fatalf("Servers() = %d ids, want %d", len(servers), len(ref.servers))
	}
	total := 0
	for _, id := range servers {
		n := w.SampleCount(id)
		if n != len(ref.servers[id]) {
			t.Fatalf("SampleCount(%s) = %d, want %d", id, n, len(ref.servers[id]))
		}
		total += n
	}
	st := w.Stats()
	if st.Samples != total || st.Servers != len(servers) {
		t.Fatalf("Stats() = %+v, want %d samples / %d servers", st, total, len(servers))
	}
	if st.Dropped != ref.evicted+ref.dropped {
		t.Fatalf("Stats().Dropped = %d, want %d evicted + %d invalid", st.Dropped, ref.evicted, ref.dropped)
	}

	// Hourly aggregation across specs and epochs, both query paths.
	lateAligned := benchEpoch.Add(48 * time.Hour) // aligned but after the data starts
	for _, spec := range []trace.Spec{{CPURPE2: 1000, MemMB: 16384}, {CPURPE2: 2500, MemMB: 8192}, {CPURPE2: 0}} {
		for _, epoch := range []time.Time{benchEpoch, benchEpoch.Add(17 * time.Minute), lateAligned} {
			for _, id := range servers {
				want, wantErr := ref.hourly(id, spec, epoch)
				got, gotErr := w.HourlySeries(id, spec, epoch)
				if (wantErr == nil) != (gotErr == nil) {
					t.Fatalf("HourlySeries(%s, rpe2=%v, epoch=%v) err = %v, want %v",
						id, spec.CPURPE2, epoch, gotErr, wantErr)
				}
				if wantErr != nil {
					if gotErr.Error() != wantErr.Error() {
						t.Fatalf("HourlySeries(%s) error %q, want %q", id, gotErr, wantErr)
					}
					continue
				}
				if len(got.Samples) != len(want) {
					t.Fatalf("HourlySeries(%s, epoch=%v) = %d hours, want %d", id, epoch, len(got.Samples), len(want))
				}
				for h := range want {
					if got.Samples[h] != want[h] {
						t.Fatalf("HourlySeries(%s, rpe2=%v, epoch=%v) hour %d = %+v, want %+v",
							id, spec.CPURPE2, epoch, h, got.Samples[h], want[h])
					}
				}
			}
		}
	}

	// Snapshot must serialize the identical retained samples in the
	// identical order regardless of shard count.
	var buf bytes.Buffer
	if err := w.Snapshot(&buf); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), ref.snapshotBytes(t)) {
		t.Fatal("Snapshot bytes diverge from the reference store")
	}
}

func TestHourlySeriesEquivalence(t *testing.T) {
	for _, shards := range []int{1, 2, 5, 8} {
		for _, retention := range []time.Duration{0, 7 * time.Hour} {
			for seed := int64(1); seed <= 3; seed++ {
				t.Run(fmt.Sprintf("shards=%d/retention=%v/seed=%d", shards, retention, seed), func(t *testing.T) {
					eqStream(t, seed, shards, retention)
				})
			}
		}
	}
}

// ---- concurrency wall ----

// TestShardedWarehouseConcurrency drives every write path (Ingest,
// IngestBatch, TCP batch frames) and every read path concurrently under
// the race detector, then checks nothing was lost or double-counted.
func TestShardedWarehouseConcurrency(t *testing.T) {
	w := NewWarehouseShards(0, 8)
	addr, err := w.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()

	const per = 400
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()

	var writers sync.WaitGroup
	errs := make(chan error, 16)
	spawn := func(name string, fn func(id trace.ServerID) error) {
		writers.Add(1)
		go func() {
			defer writers.Done()
			if err := fn(trace.ServerID(name)); err != nil {
				errs <- fmt.Errorf("%s: %w", name, err)
			}
		}()
	}
	allIDs := make([]trace.ServerID, 0, 8)
	for i := 0; i < 3; i++ {
		id := fmt.Sprintf("cw-ingest-%d", i)
		allIDs = append(allIDs, trace.ServerID(id))
		spawn(id, func(id trace.ServerID) error {
			for j := 0; j < per; j++ {
				w.Ingest(Sample{Server: id, Timestamp: benchEpoch.Add(time.Duration(j) * time.Second),
					TotalProcessorPct: 50, MemCommittedMB: 1024})
			}
			return nil
		})
	}
	for i := 0; i < 3; i++ {
		id := fmt.Sprintf("cw-batch-%d", i)
		allIDs = append(allIDs, trace.ServerID(id))
		spawn(id, func(id trace.ServerID) error {
			batch := benchSamples(string(id), per)
			for len(batch) > 0 {
				n := min(37, len(batch))
				w.IngestBatch(batch[:n])
				batch = batch[n:]
			}
			return nil
		})
	}
	for i := 0; i < 2; i++ {
		id := fmt.Sprintf("cw-tcp-%d", i)
		allIDs = append(allIDs, trace.ServerID(id))
		spawn(id, func(id trace.ServerID) error {
			return sendSamples(ctx, addr, benchSamples(string(id), per))
		})
	}

	stop := make(chan struct{})
	var readers sync.WaitGroup
	spec := trace.Spec{CPURPE2: 1000, MemMB: 16384}
	for r := 0; r < 4; r++ {
		readers.Add(1)
		go func(r int) {
			defer readers.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				switch (r + i) % 5 {
				case 0:
					w.Stats()
				case 1:
					w.Servers()
				case 2:
					w.SampleCount(allIDs[i%len(allIDs)])
				case 3:
					// "no samples" races with the first ingest; only the
					// error's presence is defined here.
					w.HourlySeries(allIDs[i%len(allIDs)], spec, benchEpoch) //nolint:errcheck
				case 4:
					w.Snapshot(io.Discard) //nolint:errcheck
				}
			}
		}(r)
	}

	writers.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if err := w.WaitForSamples(ctx, allIDs, per); err != nil {
		t.Fatalf("samples did not land: %v (stats %+v)", err, w.Stats())
	}
	close(stop)
	readers.Wait()

	st := w.Stats()
	if want := len(allIDs) * per; st.Samples != want || st.Servers != len(allIDs) || st.Dropped != 0 {
		t.Fatalf("Stats() = %+v, want %d samples / %d servers / 0 dropped", st, want, len(allIDs))
	}
	total := 0
	for _, id := range w.Servers() {
		total += w.SampleCount(id)
	}
	if total != st.Samples {
		t.Fatalf("per-server counts sum to %d, Stats says %d", total, st.Samples)
	}
}

// ---- accept-loop backoff ----

// flakyListener fails the first failFirst Accept calls (forever when -1),
// then hands out queued connections.
type flakyListener struct {
	mu        sync.Mutex
	calls     int
	failFirst int
	conns     chan net.Conn
}

func newFlakyListener(failFirst int) *flakyListener {
	return &flakyListener{failFirst: failFirst, conns: make(chan net.Conn, 4)}
}

func (l *flakyListener) Accept() (net.Conn, error) {
	l.mu.Lock()
	l.calls++
	n := l.calls
	l.mu.Unlock()
	if l.failFirst < 0 || n <= l.failFirst {
		return nil, errors.New("accept: too many open files")
	}
	c, ok := <-l.conns
	if !ok {
		return nil, net.ErrClosed
	}
	return c, nil
}

func (l *flakyListener) Close() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	select {
	case <-l.conns:
	default:
	}
	close(l.conns)
	return nil
}

func (l *flakyListener) Addr() net.Addr { return &net.TCPAddr{IP: net.IPv4(127, 0, 0, 1)} }

func (l *flakyListener) acceptCalls() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.calls
}

// TestWarehouseAcceptBackoff pins the hot-spin fix: a listener stuck in a
// persistent error state must see a handful of paced Accept retries, not
// millions of spins.
func TestWarehouseAcceptBackoff(t *testing.T) {
	w := NewWarehouse(0)
	lis := newFlakyListener(-1)
	w.lis = lis
	w.wg.Add(1)
	go w.acceptLoop()
	time.Sleep(250 * time.Millisecond)
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	// 250ms of 5-10-20-40-80-160ms backoff allows ~7 attempts; leave slack.
	if calls := lis.acceptCalls(); calls > 15 {
		t.Fatalf("accept loop spun %d times in 250ms; backoff is not pacing it", calls)
	}
}

func TestQueryAcceptBackoff(t *testing.T) {
	qs := NewQueryServer(NewWarehouse(0))
	lis := newFlakyListener(-1)
	qs.mu.Lock()
	qs.lis = lis
	qs.mu.Unlock()
	qs.wg.Add(1)
	go qs.acceptLoop(lis)
	time.Sleep(250 * time.Millisecond)
	if err := qs.Close(); err != nil {
		t.Fatal(err)
	}
	if calls := lis.acceptCalls(); calls > 15 {
		t.Fatalf("query accept loop spun %d times in 250ms; backoff is not pacing it", calls)
	}
}

// TestWarehouseAcceptRecovers proves the loop keeps serving after transient
// Accept failures (and that a success resets the backoff path): two errors,
// then a real connection whose sample must still land.
func TestWarehouseAcceptRecovers(t *testing.T) {
	w := NewWarehouse(0)
	lis := newFlakyListener(2)
	w.lis = lis
	w.wg.Add(1)
	go w.acceptLoop()
	defer w.Close()

	client, server := net.Pipe()
	lis.conns <- server
	frame := appendFrame(nil, "agent-1", 1, []Sample{{Server: "recovered", Timestamp: benchEpoch,
		TotalProcessorPct: 42, MemCommittedMB: 256}})
	go func() {
		client.Write(frame) //nolint:errcheck
		client.Close()
	}()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := w.WaitForSamples(ctx, []trace.ServerID{"recovered"}, 1); err != nil {
		t.Fatalf("sample never landed after accept errors: %v (accepts: %d)", err, lis.acceptCalls())
	}
}

// ---- read-deadline error handling ----

// deadlineErrConn refuses to arm read deadlines, as a broken socket would.
type deadlineErrConn struct {
	net.Conn
}

func (deadlineErrConn) SetReadDeadline(time.Time) error {
	return errors.New("setsockopt: bad file descriptor")
}

// TestServeConnDeadlineError verifies both servers close a connection whose
// read deadline cannot be armed instead of looping without a timeout.
func TestServeConnDeadlineError(t *testing.T) {
	check := func(t *testing.T, serve func(conn net.Conn), server net.Conn, client net.Conn) {
		t.Helper()
		done := make(chan struct{})
		go func() {
			serve(deadlineErrConn{server})
			close(done)
		}()
		select {
		case <-done:
		case <-time.After(5 * time.Second):
			t.Fatal("serveConn kept running on a conn that cannot arm its read deadline")
		}
		client.SetReadDeadline(time.Now().Add(time.Second)) //nolint:errcheck
		if _, err := client.Read(make([]byte, 1)); err == nil {
			t.Fatal("server side was not closed")
		}
	}
	t.Run("warehouse", func(t *testing.T) {
		w := NewWarehouse(0)
		w.ReadTimeout = time.Minute
		client, server := net.Pipe()
		defer client.Close()
		w.wg.Add(1)
		check(t, w.serveConn, server, client)
	})
	t.Run("query", func(t *testing.T) {
		qs := NewQueryServer(NewWarehouse(0))
		qs.ReadTimeout = time.Minute
		client, server := net.Pipe()
		defer client.Close()
		qs.wg.Add(1)
		check(t, qs.serveConn, server, client)
	})
}

// ---- sender cancellation ----

// TestReliableSenderCancel proves a stalled warehouse cannot hang a
// backfill: the peer accepts but never reads or acks, and cancellation
// must fail the flush promptly rather than after the full timeout.
func TestReliableSenderCancel(t *testing.T) {
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer lis.Close()
	hold := make(chan struct{})
	defer close(hold)
	go func() {
		conn, err := lis.Accept()
		if err != nil {
			return
		}
		defer conn.Close()
		<-hold // never read: the sender's socket buffers fill and block
	}()

	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(100 * time.Millisecond)
		cancel()
	}()
	start := time.Now()
	err = sendSamples(ctx, lis.Addr().String(), benchSamples("cancel", 50000))
	if err == nil {
		t.Fatal("Flush returned nil against a peer that never reads")
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("cancellation took %v; the deadline poke is not working", elapsed)
	}
}

// ---- load-generator soak (run under -race in CI) ----

func TestLoadGeneratorSoak(t *testing.T) {
	perAgent := 300
	if v := os.Getenv("MONITOR_SOAK_SAMPLES"); v != "" {
		if n, err := strconv.Atoi(v); err == nil && n > 0 {
			perAgent = n
		}
	}
	const agents = 8
	w := NewWarehouse(0)
	defer w.Close()
	runLoadGen(t, w, agents, perAgent)
	st := w.Stats()
	if st.Samples != agents*perAgent || st.Servers != agents || st.Dropped != 0 {
		t.Fatalf("Stats() = %+v, want %d samples / %d servers / 0 dropped", st, agents*perAgent, agents)
	}
	spec := trace.Spec{CPURPE2: 1000, MemMB: 16384}
	for _, id := range w.Servers() {
		if _, err := w.HourlySeries(id, spec, benchEpoch); err != nil {
			t.Fatalf("HourlySeries(%s): %v", id, err)
		}
	}
}

// ---- WAL layout migration ----

// TestWarehouseLogLegacyMigration builds a pre-shard root-level WAL
// (checkpoint + trailing records) and opens it with the laned layout: the
// history must survive, the root files must be gone, and the lanes must be
// authoritative from then on.
func TestWarehouseLogLegacyMigration(t *testing.T) {
	dir := t.TempDir()
	seed := NewWarehouse(0)
	for i := 0; i < 10; i++ {
		seed.Ingest(synthSample(i))
	}
	var ckpt bytes.Buffer
	if err := seed.Snapshot(&ckpt); err != nil {
		t.Fatal(err)
	}
	root, _, err := wal.Open(dir, wal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := root.Checkpoint(ckpt.Bytes()); err != nil {
		t.Fatal(err)
	}
	for i := 10; i < 20; i++ {
		s := synthSample(i)
		if err := root.Append(appendRecord(nil, &s)); err != nil {
			t.Fatal(err)
		}
	}
	if err := root.Close(); err != nil {
		t.Fatal(err)
	}

	w := NewWarehouse(0)
	wl, err := OpenWarehouseLog(w, dir, 64, wal.Options{})
	if err != nil {
		t.Fatalf("migration open: %v", err)
	}
	rec := wl.Recovery()
	if rec.Restored != 10 || rec.Replayed != 10 {
		t.Fatalf("migrated %d restored + %d replayed, want 10 + 10", rec.Restored, rec.Replayed)
	}
	legacy, laneDirs, marker, err := scanWALDir(fsx.OS, dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(legacy) != 0 || marker {
		t.Fatalf("migration left root files %v (marker=%v)", legacy, marker)
	}
	if len(laneDirs) != w.Shards() {
		t.Fatalf("%d lane dirs after migration, want %d", len(laneDirs), w.Shards())
	}
	// The lanes keep journaling, and a post-migration reopen restores
	// everything from them alone.
	if err := w.IngestDurable(synthSample(20)); err != nil {
		t.Fatalf("ingest after migration: %v", err)
	}
	want := snapshotBytes(t, w)
	if err := wl.Close(); err != nil {
		t.Fatal(err)
	}
	w2 := NewWarehouse(0)
	wl2, err := OpenWarehouseLog(w2, dir, 64, wal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer wl2.Close()
	rec2 := wl2.Recovery()
	if rec2.Restored != 21 || rec2.Replayed != 0 {
		t.Fatalf("reopen recovered %d + %d, want 21 + 0", rec2.Restored, rec2.Replayed)
	}
	if got := snapshotBytes(t, w2); !bytes.Equal(got, want) {
		t.Fatal("post-migration reopen diverges from the pre-close warehouse")
	}
}

// TestWarehouseLogShardCountChange reopens an 8-lane log with a 3-shard
// warehouse: the incompatible layout must be folded and re-laned without
// losing a sample, because lane assignment depends on the shard count.
func TestWarehouseLogShardCountChange(t *testing.T) {
	dir := t.TempDir()
	w8 := NewWarehouseShards(0, 8)
	wl8, err := OpenWarehouseLog(w8, dir, 16, wal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 30; i++ {
		if err := w8.IngestDurable(synthSample(i)); err != nil {
			t.Fatalf("ingest %d: %v", i, err)
		}
	}
	want := snapshotBytes(t, w8)
	if err := wl8.Close(); err != nil {
		t.Fatal(err)
	}

	w3 := NewWarehouseShards(0, 3)
	wl3, err := OpenWarehouseLog(w3, dir, 16, wal.Options{})
	if err != nil {
		t.Fatalf("shard-count-change open: %v", err)
	}
	defer wl3.Close()
	rec := wl3.Recovery()
	if rec.Restored+rec.Replayed != 30 {
		t.Fatalf("recovered %d + %d samples across the fold, want 30", rec.Restored, rec.Replayed)
	}
	if got := snapshotBytes(t, w3); !bytes.Equal(got, want) {
		t.Fatal("shard-count change lost or reordered samples")
	}
	_, laneDirs, _, err := scanWALDir(fsx.OS, dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(laneDirs) != 3 {
		t.Fatalf("%d lane dirs after re-laning, want 3", len(laneDirs))
	}
	if err := w3.IngestDurable(synthSample(30)); err != nil {
		t.Fatalf("ingest after re-laning: %v", err)
	}
}
