package monitor

import (
	"bufio"
	"bytes"
	"context"
	"fmt"
	"math"
	"net"
	"sync/atomic"
	"testing"
	"time"

	"vmwild/internal/trace"
)

// pollUntil spins on cond every 5ms until it holds or the deadline passes.
func pollUntil(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func validSample(server string, minute int) Sample {
	return Sample{
		Server:            trace.ServerID(server),
		Timestamp:         epoch.Add(time.Duration(minute) * time.Minute),
		TotalProcessorPct: 25,
		MemCommittedMB:    1024,
	}
}

func TestTokenBucketFrozenBudget(t *testing.T) {
	tb := newTokenBucket(0, 5, nil)
	if got := tb.take(3); got != 3 {
		t.Fatalf("take(3) = %d, want 3", got)
	}
	if got := tb.take(10); got != 2 {
		t.Fatalf("take(10) = %d, want the remaining 2", got)
	}
	if got := tb.take(1); got != 0 {
		t.Fatalf("frozen bucket refilled: take(1) = %d", got)
	}
}

func TestTokenBucketRefill(t *testing.T) {
	now := epoch
	tb := newTokenBucket(10, 5, func() time.Time { return now })
	if got := tb.take(5); got != 5 {
		t.Fatalf("initial burst: take(5) = %d", got)
	}
	if got := tb.take(1); got != 0 {
		t.Fatalf("empty bucket granted %d", got)
	}
	now = now.Add(500 * time.Millisecond) // refills 5 tokens at rate 10/s
	if got := tb.take(10); got != 5 {
		t.Fatalf("after 500ms at 10/s: take(10) = %d, want 5", got)
	}
	now = now.Add(time.Hour) // refill clamps at burst
	if got := tb.take(100); got != 5 {
		t.Fatalf("burst cap: take(100) = %d, want 5", got)
	}
}

func TestIngestLimiterShedsExactly(t *testing.T) {
	w := NewWarehouse(0)
	w.SetIngestLimit(0, 5) // frozen budget: exactly 5 admitted, ever
	addr, err := w.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()

	samples := make([]Sample, 10)
	for i := range samples {
		samples[i] = validSample(fmt.Sprintf("srv-%02d", i), i)
	}
	if err := SendBatch(context.Background(), addr, samples); err != nil {
		t.Fatal(err)
	}
	pollUntil(t, "5 admitted samples", func() bool { return w.Stats().Samples == 5 })

	m := w.Metrics()
	if m.ShedIngest != 5 {
		t.Fatalf("ShedIngest = %d, want 5", m.ShedIngest)
	}
	var perShard int64
	for _, sh := range m.Shards {
		perShard += sh.Shed
	}
	if perShard != 5 {
		t.Fatalf("per-shard shed sums to %d, want 5", perShard)
	}

	// The limiter must not touch the in-process path: recovery and
	// journal replay bypass admission.
	w.Ingest(validSample("in-process", 99))
	if got := w.Stats().Samples; got != 6 {
		t.Fatalf("in-process ingest was limited: samples = %d, want 6", got)
	}
}

func TestEnvelopeRoundTrip(t *testing.T) {
	samples := []byte(`[{"server":"a","ts":"2012-06-04T00:00:00Z"}]`)
	line := appendEnvelope(nil, "agent-1", 42, samples)
	line = bytes.TrimSuffix(line, []byte{'\n'})
	if !bytes.HasPrefix(line, envelopePrefix) {
		t.Fatalf("envelope does not carry the dispatch prefix: %s", line)
	}
	agent, seq, got, err := decodeEnvelope(line)
	if err != nil {
		t.Fatal(err)
	}
	if agent != "agent-1" || seq != 42 || !bytes.Equal(got, samples) {
		t.Fatalf("round trip mangled the envelope: %q %d %s", agent, seq, got)
	}

	// Any flipped byte in the samples region must fail the CRC.
	for i := range line {
		mutated := append([]byte(nil), line...)
		mutated[i] ^= 0x20
		if _, _, _, err := decodeEnvelope(mutated); err == nil {
			// A flip can land in whitespace-insensitive JSON territory
			// only if it still decodes AND re-CRCs — which the CRC over
			// raw sample bytes rules out for the samples region.
			if a, s, b, _ := decodeEnvelope(mutated); a == agent && s == seq && bytes.Equal(b, samples) {
				continue // flip landed outside every covered field and changed nothing material
			}
			t.Fatalf("flip at byte %d went undetected: %s", i, mutated)
		}
	}
}

func TestAckRoundTrip(t *testing.T) {
	line := appendAck(nil, ackResult{seq: 7, ok: 120, shed: 3})
	got, err := decodeAck(bytes.TrimSuffix(line, []byte{'\n'}))
	if err != nil {
		t.Fatal(err)
	}
	if got != (ackResult{seq: 7, ok: 120, shed: 3}) {
		t.Fatalf("ack round trip = %+v", got)
	}
	if _, err := decodeAck([]byte(`{"ok":1}`)); err == nil {
		t.Fatal("ack without sequence accepted")
	}
	if _, err := decodeAck([]byte(`{"ack":7,"ok":120,"shed":3}`)); err == nil {
		t.Fatal("ack without crc accepted")
	}
	// A single flipped digit in a count must not pass: the sender folds ack
	// counts straight into its books, so corruption here would skew the
	// sent-vs-ingested reconciliation silently.
	for i := 0; i < len(line)-1; i++ {
		mutated := append([]byte(nil), bytes.TrimSuffix(line, []byte{'\n'})...)
		mutated[i] ^= 0x02
		if got, err := decodeAck(mutated); err == nil && got != (ackResult{seq: 7, ok: 120, shed: 3}) {
			t.Fatalf("ack flip at byte %d went undetected: %s -> %+v", i, mutated, got)
		}
	}
}

// sendEnvelope writes one envelope over conn and reads the ack back.
func sendEnvelope(t *testing.T, conn net.Conn, br *bufio.Reader, agent string, seq uint64, samples []Sample) ackResult {
	t.Helper()
	fc := floatCachePool.Get().(*floatCache)
	defer floatCachePool.Put(fc)
	array, err := appendBatchFrame(nil, samples, fc)
	if err != nil {
		t.Fatal(err)
	}
	env := appendEnvelope(nil, agent, seq, bytes.TrimSuffix(array, []byte{'\n'}))
	conn.SetDeadline(time.Now().Add(5 * time.Second))
	if _, err := conn.Write(env); err != nil {
		t.Fatal(err)
	}
	line, err := br.ReadBytes('\n')
	if err != nil {
		t.Fatal(err)
	}
	ack, err := decodeAck(bytes.TrimSpace(line))
	if err != nil {
		t.Fatal(err)
	}
	return ack
}

func TestEnvelopeAckAndDedup(t *testing.T) {
	w := NewWarehouse(0)
	addr, err := w.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()

	conn := dialT(t, addr)
	br := bufio.NewReader(conn)
	samples := []Sample{validSample("a", 0), validSample("a", 1), validSample("b", 0)}

	ack := sendEnvelope(t, conn, br, "agent-1", 1, samples)
	if ack != (ackResult{seq: 1, ok: 3, shed: 0}) {
		t.Fatalf("first ack = %+v", ack)
	}
	// A duplicate retry (same seq) must replay the ORIGINAL ack without
	// re-ingesting — exactly-once under lost acks.
	ack = sendEnvelope(t, conn, br, "agent-1", 1, samples)
	if ack != (ackResult{seq: 1, ok: 3, shed: 0}) {
		t.Fatalf("replayed ack = %+v", ack)
	}
	if got := w.Stats().Samples; got != 3 {
		t.Fatalf("duplicate envelope double-ingested: samples = %d, want 3", got)
	}
	if m := w.Metrics(); m.AckedSamples != 3 {
		t.Fatalf("AckedSamples = %d, want 3", m.AckedSamples)
	}

	// The next sequence ingests normally, also across a reconnect.
	conn2 := dialT(t, addr)
	ack = sendEnvelope(t, conn2, bufio.NewReader(conn2), "agent-1", 2, samples[:1])
	if ack != (ackResult{seq: 2, ok: 1, shed: 0}) {
		t.Fatalf("second ack = %+v", ack)
	}
	if got := w.Stats().Samples; got != 4 {
		t.Fatalf("samples = %d, want 4", got)
	}
}

func TestEnvelopeCorruptFrameClosesConn(t *testing.T) {
	w := NewWarehouse(0)
	addr, err := w.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()

	conn := dialT(t, addr)
	samples := []byte(`[{"server":"a","ts":"2012-06-04T00:00:00Z"}]`)
	env := appendEnvelope(nil, "agent-1", 1, samples)
	env[len(env)-10] ^= 0x01 // flip a bit inside the samples array
	if _, err := conn.Write(env); err != nil {
		t.Fatal(err)
	}
	expectClosed(t, conn, "corrupt envelope")
	if m := w.Metrics(); m.CorruptFrames == 0 {
		t.Fatal("corrupt frame not counted")
	}
	if got := w.Stats().Samples; got != 0 {
		t.Fatalf("corrupt frame ingested %d samples", got)
	}
}

func TestReliableSenderReconciles(t *testing.T) {
	w := NewWarehouse(0)
	w.SetIngestLimit(0, 60) // the server sheds everything past 60
	addr, err := w.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()

	s := &ReliableSender{Addr: addr, AgentID: "r-1", Seed: 7, MaxPending: 100, Chunk: 32}
	defer s.Close()
	for i := 0; i < 150; i++ {
		s.Queue(validSample(fmt.Sprintf("srv-%03d", i%8), i))
	}
	if err := s.Flush(context.Background(), 3); err != nil {
		t.Fatal(err)
	}
	c := s.Counters()
	if c.Queued != 150 || c.DroppedQueue != 50 || c.Pending != 0 {
		t.Fatalf("queue accounting: %+v", c)
	}
	if c.Acked != 60 || c.ServerShed != 40 {
		t.Fatalf("server accounting: %+v", c)
	}
	if got := c.Acked + c.ServerShed + c.DroppedQueue + c.Pending; got != c.Queued {
		t.Fatalf("counters do not reconcile: %d != queued %d (%+v)", got, c.Queued, c)
	}
	if got := int64(w.Stats().Samples); got != c.Acked {
		t.Fatalf("warehouse holds %d samples, sender acked %d", got, c.Acked)
	}
}

// TestReliableSenderDropsUnencodableSamples: Validate passes NaN and ±Inf,
// which the wire cannot carry. Such a sample is dropped and counted when its
// chunk is frozen — even a chunk of nothing else — and the valid samples
// queued around it still ship.
func TestReliableSenderDropsUnencodableSamples(t *testing.T) {
	w := NewWarehouse(0)
	addr, err := w.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()

	bad := func(minute int, v float64) Sample {
		s := validSample("bad", minute)
		s.PagesPerSec = v
		return s
	}
	s := &ReliableSender{Addr: addr, AgentID: "nan", Chunk: 4}
	defer s.Close()
	for _, x := range []Sample{
		validSample("ok", 0), bad(1, math.NaN()), validSample("ok", 2), bad(3, math.Inf(1)),
		bad(4, math.Inf(-1)), bad(5, math.NaN()), bad(6, math.NaN()), bad(7, math.NaN()),
		validSample("ok", 8),
	} {
		s.Queue(x)
	}
	if err := s.Flush(context.Background(), 3); err != nil {
		t.Fatal(err)
	}
	c := s.Counters()
	if c.Acked != 3 || c.DroppedQueue != 6 || c.Pending != 0 {
		t.Fatalf("ledger %+v, want 3 acked, 6 dropped, nothing pending", c)
	}
	if got := c.Acked + c.ServerShed + c.DroppedQueue + c.Pending; got != c.Queued {
		t.Fatalf("counters do not reconcile: %d != queued %d (%+v)", got, c.Queued, c)
	}
	if got := w.SampleCount("ok"); got != 3 {
		t.Fatalf("warehouse holds %d of the 3 valid samples", got)
	}
}

func TestWarehouseMaxConnsKeepsListenerLive(t *testing.T) {
	w := NewWarehouse(0)
	w.MaxConns = 2
	addr, err := w.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()

	writeSample := func(conn net.Conn, server string) {
		t.Helper()
		fc := floatCachePool.Get().(*floatCache)
		defer floatCachePool.Put(fc)
		line, err := appendBatchFrame(nil, []Sample{validSample(server, 0)}, fc)
		if err != nil {
			t.Fatal(err)
		}
		conn.SetWriteDeadline(time.Now().Add(5 * time.Second))
		if _, err := conn.Write(line); err != nil {
			t.Fatal(err)
		}
	}

	c1, c2 := dialT(t, addr), dialT(t, addr)
	writeSample(c1, "one")
	writeSample(c2, "two")
	pollUntil(t, "both gated conns served", func() bool { return w.Stats().Samples == 2 })

	// Third dial succeeds at TCP level (kernel backlog) but is not served
	// while both slots are held: its sample must not appear.
	c3 := dialT(t, addr)
	writeSample(c3, "three")
	time.Sleep(100 * time.Millisecond)
	if got := w.Stats().Samples; got != 2 {
		t.Fatalf("over-cap connection was served: samples = %d", got)
	}

	// Freeing one slot lets the queued connection in — the listener is
	// alive at the cap, not wedged.
	c1.Close()
	pollUntil(t, "queued conn served after slot freed", func() bool { return w.Stats().Samples == 3 })
	if w.MaxConns != 2 || w.ConnCount() > 2 {
		t.Fatalf("ConnCount = %d, exceeds cap 2", w.ConnCount())
	}
}

func TestQueryMaxConnsKeepsListenerLive(t *testing.T) {
	qs := NewQueryServer(seedWarehouse(t))
	qs.MaxConns = 1
	addr, err := qs.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer qs.Close()

	c1, err := DialQuery(context.Background(), addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c1.Close()
	if _, err := c1.Stats(); err != nil {
		t.Fatal(err)
	}

	c2, err := DialQuery(context.Background(), addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	done := make(chan error, 1)
	go func() {
		_, err := c2.Stats()
		done <- err
	}()
	select {
	case err := <-done:
		t.Fatalf("second connection served past MaxConns=1 (err=%v)", err)
	case <-time.After(100 * time.Millisecond):
	}
	c1.Close()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("queued query conn failed after slot freed: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("queued query conn never served after slot freed")
	}
}

func TestQueryRejectUnderPressure(t *testing.T) {
	qs := NewQueryServer(seedWarehouse(t))
	var pressured atomic.Bool
	pressured.Store(true)
	qs.RejectWhen = pressured.Load
	qs.WriteTimeout = time.Second
	addr, err := qs.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer qs.Close()

	c, err := DialQuery(context.Background(), addr)
	if err != nil {
		t.Fatal(err)
	}
	c.Timeout = 5 * time.Second
	if _, err := c.Stats(); err == nil {
		t.Fatal("pressured query server answered instead of rejecting")
	}
	c.Close()
	if m := qs.Metrics(); m.Rejected == 0 {
		t.Fatal("rejected connection not counted")
	}

	pressured.Store(false)
	c2, err := DialQuery(context.Background(), addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	if _, err := c2.Stats(); err != nil {
		t.Fatalf("query failed after pressure lifted: %v", err)
	}
}

// writeDeadlineErrConn makes SetWriteDeadline fail — the query-side mirror
// of the read-deadline hardening test.
type writeDeadlineErrConn struct {
	net.Conn
}

func (c writeDeadlineErrConn) SetWriteDeadline(time.Time) error {
	return fmt.Errorf("deadline not supported")
}

func TestQueryWriteDeadlineErrorClosesConn(t *testing.T) {
	qs := NewQueryServer(seedWarehouse(t))
	qs.WriteTimeout = time.Second
	client, server := net.Pipe()
	defer client.Close()

	done := make(chan struct{})
	qs.wg.Add(1)
	go func() {
		qs.serveConn(writeDeadlineErrConn{server})
		close(done)
	}()

	client.SetDeadline(time.Now().Add(5 * time.Second))
	if _, err := client.Write([]byte(`{"op":"stats"}` + "\n")); err != nil {
		t.Fatal(err)
	}
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("serveConn kept running after SetWriteDeadline failure")
	}
	if m := qs.Metrics(); m.SlowClients == 0 {
		t.Fatal("deadline-arm failure not counted as slow client")
	}
}

// deadlineRecConn records the write deadlines armed on it.
type deadlineRecConn struct {
	net.Conn
	armed chan time.Time
}

func (c deadlineRecConn) SetWriteDeadline(d time.Time) error {
	c.armed <- d
	return c.Conn.SetWriteDeadline(d)
}

// TestQueryWriteTimeoutDefault: with WriteTimeout unset, a response still
// goes out under a deadline batchWriteTimeout ahead — the warehouse's rule —
// so a planner that stops reading cannot pin a pool worker in Write.
func TestQueryWriteTimeoutDefault(t *testing.T) {
	qs := NewQueryServer(seedWarehouse(t))
	client, server := net.Pipe()
	defer client.Close()
	conn := deadlineRecConn{Conn: server, armed: make(chan time.Time, 8)}
	done := make(chan struct{})
	qs.wg.Add(1)
	go func() {
		qs.serveConn(conn)
		close(done)
	}()

	client.SetDeadline(time.Now().Add(5 * time.Second))
	start := time.Now()
	if _, err := client.Write([]byte(`{"op":"stats"}` + "\n")); err != nil {
		t.Fatal(err)
	}
	if _, err := bufio.NewReader(client).ReadBytes('\n'); err != nil {
		t.Fatal(err)
	}
	select {
	case d := <-conn.armed:
		if ahead := d.Sub(start); ahead < batchWriteTimeout-time.Second || ahead > batchWriteTimeout+time.Second {
			t.Fatalf("write deadline %v ahead, want ~%v", ahead, batchWriteTimeout)
		}
	default:
		t.Fatal("response written with no write deadline")
	}
	client.Close()
	<-done
}

func TestQueryHalfClosedPeerClosesConn(t *testing.T) {
	qs := NewQueryServer(seedWarehouse(t))
	qs.WriteTimeout = 200 * time.Millisecond
	client, server := net.Pipe()
	defer client.Close()

	done := make(chan struct{})
	qs.wg.Add(1)
	go func() {
		qs.serveConn(server)
		close(done)
	}()

	// Send a request and never read the response: the unbuffered pipe
	// blocks the server's write until the deadline cuts it.
	client.SetWriteDeadline(time.Now().Add(5 * time.Second))
	if _, err := client.Write([]byte(`{"op":"stats"}` + "\n")); err != nil {
		t.Fatal(err)
	}
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("serveConn spun on a peer that stopped reading")
	}
	if m := qs.Metrics(); m.SlowClients == 0 {
		t.Fatal("stalled write not counted as slow client")
	}
}

type funcSource func(time.Time) (Sample, error)

func (f funcSource) Collect(t time.Time) (Sample, error) { return f(t) }

func TestAgentDropAccounting(t *testing.T) {
	// An unreachable warehouse: dials fail fast, the queue caps at
	// MaxPending, and every displaced sample must be counted.
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := lis.Addr().String()
	lis.Close()

	n := 0
	agent := &Agent{
		Source: funcSource(func(ts time.Time) (Sample, error) {
			n++
			if n > 40 {
				return Sample{}, fmt.Errorf("done")
			}
			return validSample("a", n), nil
		}),
		Addr:       addr,
		Interval:   time.Millisecond,
		Backoff:    time.Millisecond,
		BackoffMax: 2 * time.Millisecond,
		MaxPending: 4,
		Seed:       7,
	}
	if err := agent.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	if got := agent.Dropped(); got != 40-4 {
		t.Fatalf("Dropped() = %d, want %d (40 collected, 4 retained)", got, 40-4)
	}
}

func TestJitterBackoffBounds(t *testing.T) {
	rng := backoffRand(7, "test")
	b := 100 * time.Millisecond
	for i := 0; i < 1000; i++ {
		d := jitterBackoff(rng, b)
		if d < b/2 || d >= b {
			t.Fatalf("jitterBackoff(%v) = %v outside [b/2, b)", b, d)
		}
	}
	// Same identity, same schedule.
	a1, a2 := backoffRand(7, "x"), backoffRand(7, "x")
	for i := 0; i < 100; i++ {
		if d1, d2 := jitterBackoff(a1, b), jitterBackoff(a2, b); d1 != d2 {
			t.Fatalf("same seed diverged at draw %d: %v vs %v", i, d1, d2)
		}
	}
}
