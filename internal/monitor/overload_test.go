package monitor

import (
	"bufio"
	"bytes"
	"context"
	"fmt"
	"net"
	"sync/atomic"
	"testing"
	"time"

	"vmwild/internal/trace"
	"vmwild/internal/wal"
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

// testAgents numbers the agent IDs sendSamples uses: the warehouse
// remembers every ID it has seen, so each sender needs its own.
var testAgents atomic.Int64

// sendSamples ships samples through a fresh ReliableSender and returns
// once every frame is acked.
func sendSamples(ctx context.Context, addr string, samples []Sample) error {
	s := &ReliableSender{
		Addr:       addr,
		AgentID:    fmt.Sprintf("test-agent-%d", testAgents.Add(1)),
		MaxPending: len(samples),
	}
	defer s.Close()
	for i := range samples {
		s.Queue(samples[i])
	}
	return s.Flush(ctx, 3)
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
	if err := sendSamples(context.Background(), addr, samples); err != nil {
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
	samples := []Sample{validSample("a", 0), validSample("b", 1)}
	frame := appendFrame(nil, "agent-1", 42, samples)
	if frame[0] == '{' || frame[0] == '[' {
		t.Fatalf("frame starts with JSON's %q", frame[0])
	}
	var f frameBatch
	intern := make(map[string]trace.ServerID)
	if err := f.decode(frame, intern); err != nil {
		t.Fatal(err)
	}
	if f.agent != "agent-1" || f.seq != 42 || len(f.samples) != 2 || f.samples[0] != samples[0] || f.samples[1] != samples[1] {
		t.Fatalf("round trip mangled the frame: %q %d %+v", f.agent, f.seq, f.samples)
	}

	// The CRC covers magic, length and payload: any flipped byte, the
	// CRC's own included, must be refused.
	for i := range frame {
		mutated := bytes.Clone(frame)
		mutated[i] ^= 0x20
		if err := f.decode(mutated, intern); err == nil {
			t.Fatalf("flip at byte %d went undetected", i)
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

// sendEnvelope writes one frame over conn and reads the ack back.
func sendEnvelope(t *testing.T, conn net.Conn, br *bufio.Reader, agent string, seq uint64, samples []Sample) ackResult {
	t.Helper()
	conn.SetDeadline(time.Now().Add(5 * time.Second))
	if _, err := conn.Write(appendFrame(nil, agent, seq, samples)); err != nil {
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
	env := appendFrame(nil, "agent-1", 1, []Sample{validSample("a", 0)})
	env[len(env)-10] ^= 0x01 // flip a bit inside the sample record
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

// TestReliableSenderCarriesEverySample: every sample Validate accepts —
// NaN, ±Inf, -0, a subnormal, year 12000, a +05:30 offset — travels from
// the sender to disk. All are acked, none dropped, and the log reopens to
// the exact record bytes that were sent.
func TestReliableSenderCarriesEverySample(t *testing.T) {
	dir := t.TempDir()
	w := NewWarehouse(0)
	wl, err := OpenWarehouseLog(w, dir, 1<<20, wal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	addr, err := w.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	sent := edgeSamples("edge")
	s := &ReliableSender{Addr: addr, AgentID: "edge", Chunk: 4}
	for _, x := range sent {
		s.Queue(x)
	}
	if err := s.Flush(context.Background(), 3); err != nil {
		t.Fatal(err)
	}
	s.Close()
	c := s.Counters()
	if c.Acked != c.Queued || c.DroppedQueue != 0 || c.ServerShed != 0 || c.Pending != 0 {
		t.Fatalf("ledger %+v, want every one of %d samples acked", c, len(sent))
	}
	w.Close()
	wl.Close()

	w2 := NewWarehouse(0)
	wl2, err := OpenWarehouseLog(w2, dir, 1<<20, wal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer wl2.Close()
	got := storedSamples(w2)
	if len(got) != len(sent) {
		t.Fatalf("reopened %d samples, sent %d", len(got), len(sent))
	}
	want := map[string]int{}
	for i := range sent {
		want[string(appendRecord(nil, &sent[i]))]++
	}
	for i := range got {
		rec := string(appendRecord(nil, &got[i]))
		if want[rec] == 0 {
			t.Fatalf("recovered sample %+v was never sent", got[i])
		}
		want[rec]--
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
		frame := appendFrame(nil, server, 1, []Sample{validSample(server, 0)})
		conn.SetWriteDeadline(time.Now().Add(5 * time.Second))
		if _, err := conn.Write(frame); err != nil {
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
	// MaxPending, and every displaced sample must be counted — and so
	// must the ones still queued when the source runs dry.
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
	if got := agent.Dropped(); got != 40 {
		t.Fatalf("Dropped() = %d, want 40 (36 displaced, 4 never sent)", got)
	}
}

// TestAgentCountsUnsentWhenSourceRunsDry: the warehouse goes away midway
// and the source runs dry while it is down. Every collected sample is then
// either stored or counted in Dropped.
func TestAgentCountsUnsentWhenSourceRunsDry(t *testing.T) {
	w := NewWarehouse(0)
	addr, err := w.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	const collected, up = 30, 10
	n := 0
	agent := &Agent{
		Source: funcSource(func(ts time.Time) (Sample, error) {
			n++
			if n == up+1 {
				w.Close() // every earlier tick's flush has been acked
			}
			if n > collected {
				return Sample{}, fmt.Errorf("done")
			}
			return validSample("a", n), nil
		}),
		Addr:       addr,
		Interval:   time.Millisecond,
		Backoff:    time.Millisecond,
		BackoffMax: 2 * time.Millisecond,
	}
	if err := agent.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	stored := int64(w.Stats().Samples)
	if stored != up {
		t.Fatalf("stored %d samples before the warehouse closed, want %d", stored, up)
	}
	if got := stored + agent.Dropped(); got != collected {
		t.Fatalf("stored %d + Dropped() %d = %d, want the %d collected", stored, agent.Dropped(), got, collected)
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
