package monitor

import (
	"bufio"
	"bytes"
	"context"
	"encoding/base64"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"slices"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"vmwild/internal/trace"
)

// The query protocol is how consolidation planning pulls data out of the
// warehouse (Section 3.1: "We get monitored data for consolidation planning
// from the data warehouse hosted by the central server"). It is JSON
// lines over TCP: one request object per line, one response object back.
//
// Operations:
//
//	{"op":"servers"}                        -> {"ok":true,"servers":[...]}
//	{"op":"stats"}                          -> {"ok":true,"stats":{...}}
//	{"op":"series","server":"x",
//	 "cpuRPE2":2000,"memMB":16384,
//	 "epoch":"2012-06-04T00:00:00Z"}        -> {"ok":true,"usage":"..."}
//	{"op":"range","server":"x",
//	 "from":1338768000000000000,
//	 "to":1338771600000000000}              -> {"ok":true,"points":[...]}
//	{"op":"advise","cpuRPE2":2000,
//	 "memMB":16384,"epoch":"..."}           -> {"ok":true,"advice":{...}}
//	{"op":"set","epoch":"...",
//	 "specs":{"x":2000,...}}                -> {"ok":true,"bytes":B} + body
//
// Pipelining: a request may carry a positive "id". Identified requests are
// fanned out to a bounded worker pool and may be answered OUT OF ORDER;
// each response echoes the id it answers. Requests without an id keep the
// original strict request/response lockstep, so pre-pipelining clients work
// unchanged. The two styles can share a connection, but an id-less request
// only orders against other id-less ones.
//
// Every read is served from the live shards, so an answer reflects every
// sample acked before the request arrived. Series answers are memoized per
// shard generation (Warehouse.seriesJSON): a repeat question on an
// unchanged shard is a map lookup.
//
// A series travels as bits, not decimal text: "usage" is one base64 string
// (standard alphabet, padded) over 16 bytes per hour — the hourly mean's CPU
// then Mem float64, each little-endian IEEE 754 — oldest hour first. The
// wire carries the bits the warehouse computed: -0, subnormals, NaN
// payloads and infinities arrive as they were computed, and neither end
// formats or parses a float. A series response is always exactly
//
//	{"id":N,"ok":true,"usage":"<base64>"}
//
// (no id on a lockstep request), which is what lets the client recognise
// the line and decode it without a JSON parse; see decodeSeriesLine.
//
// A set is every server's series in server order, CPU scaled by the rating
// "specs" maps the server to; a monitored server missing there fails it.
// Its line is followed by a body of exactly B raw bytes: per server a
// uvarint ID length, the ID, a uvarint hour count, then the hours as the
// same 16-byte pairs. B is bounded by maxResponseBytes (64 MiB, ~5.8k
// servers of 30 days; the paper's largest data center has 1,390).
//
// Errors come back as {"ok":false,"error":"..."} with no body and keep the
// connection usable for further requests.

// queryRequest is the wire format of one request.
type queryRequest struct {
	// ID, when positive, opts this request into pipelined handling: the
	// response may come out of order and echoes the same id.
	ID      uint64         `json:"id,omitempty"`
	Op      string         `json:"op"`
	Server  trace.ServerID `json:"server,omitempty"`
	CPURPE2 float64        `json:"cpuRPE2,omitempty"`
	MemMB   float64        `json:"memMB,omitempty"`
	Epoch   time.Time      `json:"epoch,omitempty"`
	// LastHours restricts a series to its trailing window (0 = all).
	LastHours int `json:"lastHours,omitempty"`
	// From/To bound a range read in UnixNano, half-open [from, to).
	From int64 `json:"from,omitempty"`
	To   int64 `json:"to,omitempty"`
	// WindowHours bounds the advise op's sizing window (0 = all); Host
	// names the catalog target model (default the reference blade).
	WindowHours int    `json:"windowHours,omitempty"`
	Host        string `json:"host,omitempty"`
	// Specs maps each server to its CPU rating for a set.
	Specs map[trace.ServerID]float64 `json:"specs,omitempty"`
}

// queryResponse is the wire format of one response, on both ends of the
// connection. Each end has one way around encoding/json for the series
// payload, which is most of the bytes the protocol moves.
type queryResponse struct {
	ID      uint64           `json:"id,omitempty"`
	OK      bool             `json:"ok"`
	Error   string           `json:"error,omitempty"`
	Servers []trace.ServerID `json:"servers,omitempty"`
	Stats   *Stat            `json:"stats,omitempty"`
	// Usage is a series' packed hourly samples (see appendUsage).
	Usage  string       `json:"usage,omitempty"`
	Points []RangePoint `json:"points,omitempty"`
	Advice *Advice      `json:"advice,omitempty"`
	// Bytes is the length of the set body that follows the line.
	Bytes int `json:"bytes,omitempty"`

	// body, when set server-side, is the pre-marshaled response line after
	// its opening brace (every series answer, memoized per shard
	// generation); the writer splices the id in front instead of marshaling
	// the struct. Never serialized itself.
	body []byte
	// raw, when set server-side, is the set body written after the line.
	raw []byte
	// samples, when set client-side, is Usage already unpacked: the reader
	// recognised a series line and skipped the JSON parse (decodeSeriesLine).
	samples []trace.Usage
	// set, when set client-side, is the decoded set body.
	set []setSeries
}

// usageWireBytes is one hourly sample on the wire: CPU then Mem, float64
// little-endian.
const usageWireBytes = 16

// usageBlock is how many samples are packed or unpacked per base64 call.
// Its byte length is a multiple of 3, so encoded blocks concatenate with no
// padding between them and the result is the encoding of the whole.
const (
	usageBlock      = 48
	usageBlockBytes = usageBlock * usageWireBytes
	usageBlockChars = usageBlockBytes / 3 * 4
)

// appendUsage appends the wire form of samples — base64 over their
// little-endian float64 pairs — to dst. It is the one series encoder.
func appendUsage(dst []byte, samples []trace.Usage) []byte {
	dst = slices.Grow(dst, base64.StdEncoding.EncodedLen(len(samples)*usageWireBytes))
	var raw [usageBlockBytes]byte
	for len(samples) > 0 {
		k := min(usageBlock, len(samples))
		putUsage(raw[:], samples[:k])
		dst = base64.StdEncoding.AppendEncode(dst, raw[:k*usageWireBytes])
		samples = samples[k:]
	}
	return dst
}

// putUsage writes samples' wire pairs to the front of raw.
func putUsage(raw []byte, samples []trace.Usage) {
	for i, u := range samples {
		binary.LittleEndian.PutUint64(raw[i*usageWireBytes:], math.Float64bits(u.CPU))
		binary.LittleEndian.PutUint64(raw[i*usageWireBytes+8:], math.Float64bits(u.Mem))
	}
}

// getUsage is putUsage's inverse: it fills dst from the front of raw.
func getUsage(dst []trace.Usage, raw []byte) {
	for i := range dst {
		dst[i] = trace.Usage{
			CPU: math.Float64frombits(binary.LittleEndian.Uint64(raw[i*usageWireBytes:])),
			Mem: math.Float64frombits(binary.LittleEndian.Uint64(raw[i*usageWireBytes+8:])),
		}
	}
}

// seriesBody is a series response line after its opening brace — exactly
// the bytes json.Marshal(queryResponse{OK: true, Usage: ...}) produces,
// minus that brace — ready for writeResp to splice an id in front.
func seriesBody(samples []trace.Usage) []byte {
	const head, tail = `"ok":true,"usage":"`, `"}`
	body := make([]byte, 0, len(head)+base64.StdEncoding.EncodedLen(len(samples)*usageWireBytes)+len(tail))
	body = append(body, head...)
	body = appendUsage(body, samples)
	return append(body, tail...)
}

var errUsagePayload = errors.New("monitor: malformed series payload")

// unpackUsage is appendUsage's inverse. Anything but a whole number of
// samples in one padded base64 string is an error, never a short series.
func unpackUsage(b64 []byte) ([]trace.Usage, error) {
	n := len(b64) / 4 * 3
	for p := 1; p <= 2 && p <= len(b64) && b64[len(b64)-p] == '='; p++ {
		n--
	}
	if len(b64)%4 != 0 || n%usageWireBytes != 0 {
		return nil, errUsagePayload
	}
	out := make([]trace.Usage, n/usageWireBytes)
	var raw [usageBlockBytes]byte
	for rest := out; len(rest) > 0; {
		k := min(usageBlock, len(rest))
		chunk := b64[:min(usageBlockChars, len(b64))]
		b64 = b64[len(chunk):]
		// The decoder skips \r and \n; the count check refuses what it skipped.
		if m, err := base64.StdEncoding.Decode(raw[:], chunk); err != nil || m != k*usageWireBytes {
			return nil, errUsagePayload
		}
		getUsage(rest[:k], raw[:])
		rest = rest[k:]
	}
	return out, nil
}

// decodeSeriesLine is the client's fast path for the one line shape that
// carries nearly all of the protocol's bytes,
//
//	{"id":N,"ok":true,"usage":"<base64>"}
//
// optionally newline-terminated. Like the ingest decoder in wire.go it
// accepts exactly what the server emits or declines: on any deviation — a
// zero or zero-led id, another key, an escape, a byte outside the base64
// alphabet, a payload that is not whole samples — ok is false and the line
// is encoding/json's to judge, so the two can never disagree on a line
// (FuzzSeriesLine holds them to that).
func decodeSeriesLine(line []byte) (id uint64, samples []trace.Usage, ok bool) {
	const head, mid, tail = `{"id":`, `,"ok":true,"usage":"`, `"}`
	line = bytes.TrimSuffix(line, []byte{'\n'})
	if !bytes.HasPrefix(line, []byte(head)) || !bytes.HasSuffix(line, []byte(tail)) {
		return 0, nil, false
	}
	rest := line[len(head) : len(line)-len(tail)]
	i := 0
	for i < len(rest) && rest[i] >= '0' && rest[i] <= '9' {
		id = id*10 + uint64(rest[i]-'0')
		i++
	}
	// 19 digits cannot overflow a uint64; ids count requests on one
	// connection and never get there.
	if i == 0 || i > 19 || rest[0] == '0' || !bytes.HasPrefix(rest[i:], []byte(mid)) {
		return 0, nil, false
	}
	samples, err := unpackUsage(rest[i+len(mid):])
	if err != nil {
		return 0, nil, false
	}
	return id, samples, true
}

// decodeResponseLine decodes one response line: series lines through the
// fast path, everything else — and anything the fast path declined —
// through encoding/json.
func decodeResponseLine(line []byte) (queryResponse, error) {
	if id, samples, ok := decodeSeriesLine(line); ok {
		return queryResponse{ID: id, OK: true, samples: samples}, nil
	}
	var resp queryResponse
	err := json.Unmarshal(line, &resp)
	return resp, err
}

// setSeries is one server's entry in a set body.
type setSeries struct {
	id    trace.ServerID
	hours []trace.Usage
}

var errSetBody = errors.New("monitor: malformed set body")

// appendSetEntry appends one server's entry to a set body: uvarint ID
// length, the ID, uvarint hour count, then the hours' wire pairs.
func appendSetEntry(dst []byte, id trace.ServerID, hours []trace.Usage) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(id)))
	dst = append(dst, id...)
	dst = binary.AppendUvarint(dst, uint64(len(hours)))
	n := len(dst)
	dst = slices.Grow(dst, len(hours)*usageWireBytes)[:n+len(hours)*usageWireBytes]
	putUsage(dst[n:], hours)
	return dst
}

// decodeSetBody reads an n-byte set body off rd, appendSetEntry's strict
// inverse: a varint that is not minimal, an empty ID, an ID or hour count
// that runs past the body, or a stream that ends early is an error.
func decodeSetBody(rd *bufio.Reader, n int) ([]setSeries, error) {
	if n < 0 || n > maxResponseBytes {
		return nil, errSetBody
	}
	uvarint := func() (int, error) {
		b, _ := rd.Peek(min(n, binary.MaxVarintLen64))
		v, k := binary.Uvarint(b)
		var minimal [binary.MaxVarintLen64]byte
		if k <= 0 || binary.PutUvarint(minimal[:], v) != k || v > uint64(n-k) {
			return 0, errSetBody
		}
		rd.Discard(k) //nolint:errcheck // peeked
		n -= k
		return int(v), nil
	}
	var out []setSeries
	var raw [usageBlockBytes]byte
	for n > 0 {
		l, err := uvarint()
		id, perr := rd.Peek(l)
		if err != nil || l == 0 || perr != nil {
			return nil, errSetBody
		}
		s := setSeries{id: trace.ServerID(id)}
		rd.Discard(l) //nolint:errcheck // peeked
		n -= l
		h, err := uvarint()
		if err != nil || h > n/usageWireBytes {
			return nil, errSetBody
		}
		n -= h * usageWireBytes
		s.hours = make([]trace.Usage, h)
		for i := 0; i < h; i += usageBlock {
			block := s.hours[i:min(i+usageBlock, h)]
			if _, err := io.ReadFull(rd, raw[:len(block)*usageWireBytes]); err != nil {
				return nil, err
			}
			getUsage(block, raw[:])
		}
		out = append(out, s)
	}
	return out, nil
}

// DefaultQueryWorkers sizes the pipelined worker pool when Workers is 0.
const DefaultQueryWorkers = 8

// queryWork is one pooled request awaiting a worker.
type queryWork struct {
	qc  *queryConn
	req queryRequest
	enq time.Time
}

// QueryServer exposes a warehouse over the query protocol.
type QueryServer struct {
	warehouse *Warehouse

	// ReadTimeout severs a client connection that stays silent longer
	// than this (0 disables) — a planner that hangs mid-protocol cannot
	// pin a handler goroutine forever.
	ReadTimeout time.Duration
	// MaxLineBytes bounds one request line (default DefaultMaxLineBytes);
	// a connection exceeding it is closed. Malformed requests within the
	// bound get an error response and the connection stays usable.
	MaxLineBytes int
	// WriteTimeout bounds each response write (0 falls back to
	// batchWriteTimeout, as the warehouse's does) — a client that stops
	// draining responses is cut, not waited on forever.
	WriteTimeout time.Duration
	// MaxConns caps concurrently served query connections (0 =
	// unbounded); like the warehouse gate, the slot is taken before
	// Accept so excess dials queue in the kernel backlog. Set before
	// Listen.
	MaxConns int
	// Workers sizes the pooled-request worker fleet shared by all
	// connections (0 = DefaultQueryWorkers). Set before Listen. The pool
	// bounds the pipelined fan-out: a connection can have any number of
	// ids in flight, but at most Workers requests compute at once and the
	// rest queue (blocking that connection's reader when the queue
	// fills — backpressure, not unbounded buffering).
	Workers int
	// RejectWhen, when set, is consulted on every accept: true refuses
	// the connection with an error response. Wired to
	// Warehouse.UnderPressure this sheds query load before ingest —
	// a planner can retry a fetch; a shed sample is gone.
	RejectWhen func() bool
	// BackoffSeed roots the accept-loop retry jitter; zero is valid.
	BackoffSeed int64

	rejected    atomic.Int64
	slowClients atomic.Int64

	pooled      atomic.Int64 // requests served through the worker pool
	fastPath    atomic.Int64 // pipelined requests answered inline from the series memo
	inflight    atomic.Int64 // pooled requests currently queued or computing
	maxDepth    atomic.Int64 // high-water inflight
	queueWaitNs atomic.Int64 // cumulative enqueue-to-dequeue wait

	workCh chan queryWork

	sem      chan struct{}
	mu       sync.Mutex
	lis      net.Listener
	conns    map[net.Conn]struct{}
	wg       sync.WaitGroup
	shutdown chan struct{}
}

// NewQueryServer wraps a warehouse.
func NewQueryServer(w *Warehouse) *QueryServer {
	return &QueryServer{
		warehouse: w,
		conns:     make(map[net.Conn]struct{}),
		shutdown:  make(chan struct{}),
	}
}

// Listen starts serving queries on addr and returns the bound address.
func (qs *QueryServer) Listen(addr string) (string, error) {
	lis, err := net.Listen("tcp", addr)
	if err != nil {
		return "", fmt.Errorf("monitor: query listen: %w", err)
	}
	if qs.MaxConns > 0 {
		qs.sem = make(chan struct{}, qs.MaxConns)
	}
	workers := qs.Workers
	if workers <= 0 {
		workers = DefaultQueryWorkers
	}
	// A short queue past the workers absorbs bursts; beyond it the
	// enqueuing connection's read loop blocks.
	qs.workCh = make(chan queryWork, 4*workers)
	for i := 0; i < workers; i++ {
		qs.wg.Add(1)
		go qs.worker()
	}
	qs.mu.Lock()
	qs.lis = lis
	qs.mu.Unlock()
	qs.wg.Add(1)
	go qs.acceptLoop(lis)
	return lis.Addr().String(), nil
}

func (qs *QueryServer) acceptLoop(lis net.Listener) {
	defer qs.wg.Done()
	backoff := acceptBackoffMin
	rng := backoffRand(qs.BackoffSeed, "query-accept")
	for {
		// Slot before Accept: at the cap, excess dials wait in the
		// kernel backlog instead of spawning handlers.
		if qs.sem != nil {
			select {
			case qs.sem <- struct{}{}:
			case <-qs.shutdown:
				return
			}
		}
		conn, err := lis.Accept()
		if err != nil {
			qs.releaseSlot()
			// Back off on transient accept errors so a listener stuck in
			// a persistent error state (EMFILE, say) does not spin a
			// core; any successful accept resets the delay. The seeded
			// jitter desynchronizes a fleet of servers restarting into
			// the same error.
			select {
			case <-qs.shutdown:
				return
			case <-time.After(jitterBackoff(rng, backoff)):
				backoff = min(backoff*2, acceptBackoffMax)
				continue
			}
		}
		backoff = acceptBackoffMin
		if qs.RejectWhen != nil && qs.RejectWhen() {
			// Priority shedding: refuse query work while the ingest tier
			// is under pressure, with an explicit error so the planner
			// backs off knowingly.
			qs.rejected.Add(1)
			conn.SetWriteDeadline(time.Now().Add(writeTimeout(qs.WriteTimeout)))
			resp, _ := json.Marshal(queryResponse{Error: "server under pressure, retry later"})
			conn.Write(append(resp, '\n')) //nolint:errcheck
			conn.Close()
			qs.releaseSlot()
			continue
		}
		qs.mu.Lock()
		qs.conns[conn] = struct{}{}
		qs.mu.Unlock()
		qs.wg.Add(1)
		go qs.serveConn(conn)
	}
}

func (qs *QueryServer) releaseSlot() {
	if qs.sem != nil {
		<-qs.sem
	}
}

// Metrics reports the query tier's operational counters.
func (qs *QueryServer) Metrics() QueryMetrics {
	qs.mu.Lock()
	conns := len(qs.conns)
	qs.mu.Unlock()
	workers := qs.Workers
	if workers <= 0 {
		workers = DefaultQueryWorkers
	}
	return QueryMetrics{
		Conns:            conns,
		MaxConns:         qs.MaxConns,
		Rejected:         qs.rejected.Load(),
		SlowClients:      qs.slowClients.Load(),
		Workers:          workers,
		PooledRequests:   qs.pooled.Load(),
		FastPathHits:     qs.fastPath.Load(),
		PipelineDepth:    qs.inflight.Load(),
		MaxPipelineDepth: qs.maxDepth.Load(),
		QueueWaitMicros:  qs.queueWaitNs.Load() / 1000,
	}
}

// queryConn serializes response writes for one connection: the inline
// lockstep path and any number of pool workers may interleave on it.
// Responses accumulate in a buffered writer and flush when the connection
// has no request left unanswered — under pipelining, one write syscall
// carries a batch of responses instead of one each.
type queryConn struct {
	qs   *QueryServer
	conn net.Conn
	wmu  sync.Mutex
	bw   *bufio.Writer
	// unanswered counts requests read off this connection whose response
	// has not been written yet; the writer that drops it to zero flushes.
	unanswered atomic.Int64
}

// writeResp marshals and writes one response line; false means the peer is
// stalled or gone and the connection has been cut. Every request read from
// the connection must be balanced by exactly one writeResp call.
func (qc *queryConn) writeResp(resp queryResponse) bool {
	var data []byte
	if resp.body == nil {
		var err error
		data, err = json.Marshal(resp)
		if err != nil {
			// Response values are always marshalable; treat like a cut peer.
			return false
		}
		data = append(data, '\n')
	}
	qc.wmu.Lock()
	defer qc.wmu.Unlock()
	if err := qc.conn.SetWriteDeadline(time.Now().Add(writeTimeout(qc.qs.WriteTimeout))); err != nil {
		// A connection that cannot arm its write deadline must not write
		// without one — mirror of the read-side rule.
		qc.qs.slowClients.Add(1)
		qc.conn.Close()
		return false
	}
	var werr error
	if resp.body != nil {
		// Pre-marshaled body: splice {"id":N, + body (or just { + body for
		// an id-less response) straight into the write buffer — byte-
		// identical to marshaling the struct, with no per-response line.
		var hdrArr [32]byte
		hdr := hdrArr[:0]
		if resp.ID > 0 {
			hdr = append(hdr, `{"id":`...)
			hdr = strconv.AppendUint(hdr, resp.ID, 10)
			hdr = append(hdr, ',')
		} else {
			hdr = append(hdr, '{')
		}
		if _, werr = qc.bw.Write(hdr); werr == nil {
			if _, werr = qc.bw.Write(resp.body); werr == nil {
				werr = qc.bw.WriteByte('\n')
			}
		}
	} else if _, werr = qc.bw.Write(data); werr == nil {
		_, werr = qc.bw.Write(resp.raw)
	}
	// The decrement happens under wmu, so at most one writer sees zero and
	// it is the one whose response is last in the buffer.
	if werr == nil && qc.unanswered.Add(-1) == 0 {
		werr = qc.bw.Flush()
	}
	if werr != nil {
		// Half-closed or stalled peer: close rather than spin. The
		// client re-dials; the response is recomputable.
		qc.qs.slowClients.Add(1)
		qc.conn.Close()
		return false
	}
	return true
}

// worker drains the pooled-request queue until shutdown.
func (qs *QueryServer) worker() {
	defer qs.wg.Done()
	for {
		select {
		case <-qs.shutdown:
			return
		case work := <-qs.workCh:
			qs.queueWaitNs.Add(time.Since(work.enq).Nanoseconds())
			resp := qs.handle(work.req)
			resp.ID = work.req.ID
			work.qc.writeResp(resp)
			resp.release()
			qs.inflight.Add(-1)
		}
	}
}

// finishBatch releases one "unanswered" hold. When it was the last, every
// response written so far leaves in a single syscall. A flush error is
// left for the next write to surface — the connection is torn down there.
func (qc *queryConn) finishBatch() {
	qc.wmu.Lock()
	if qc.unanswered.Add(-1) == 0 {
		qc.bw.Flush()
	}
	qc.wmu.Unlock()
}

func (qs *QueryServer) serveConn(conn net.Conn) {
	defer qs.wg.Done()
	defer func() {
		conn.Close()
		qs.mu.Lock()
		delete(qs.conns, conn)
		qs.mu.Unlock()
		qs.releaseSlot()
	}()
	maxLine := qs.MaxLineBytes
	if maxLine <= 0 {
		maxLine = DefaultMaxLineBytes
	}
	// Line-based request reading mirrors the warehouse ingestion path: a
	// malformed request line is answered with an error and the connection
	// stays usable; an oversized or timed-out line ends the connection.
	rd := bufio.NewReaderSize(conn, min(32<<10, maxLine))
	var overflow []byte
	qc := &queryConn{qs: qs, conn: conn, bw: bufio.NewWriterSize(conn, 32<<10)}
	// While more requests are already buffered, the reader holds an extra
	// "unanswered" token so inline responses accumulate in the write
	// buffer and go out in one syscall when the input drains, instead of
	// one flush per response.
	tokenHeld := false
	release := func() {
		if tokenHeld {
			tokenHeld = false
			qc.finishBatch()
		}
	}
	for {
		if qs.ReadTimeout > 0 {
			if err := conn.SetReadDeadline(time.Now().Add(qs.ReadTimeout)); err != nil {
				// A connection that cannot arm its read deadline must
				// not keep looping without one.
				return
			}
		}
		raw, err := readQueryLine(rd, &overflow, maxLine)
		if err != nil {
			// EOF, read timeout, or a line beyond MaxLineBytes.
			return
		}
		line := bytes.TrimSpace(raw)
		// The token is acquired before answering and released only once
		// the input buffer is dry, so the reader never blocks holding it.
		more := rd.Buffered() > 0
		if more && !tokenHeld {
			tokenHeld = true
			qc.unanswered.Add(1)
		}
		if len(line) == 0 {
			if !more {
				release()
			}
			continue
		}
		// Count the request before answering it: writeResp flushes when
		// every request read so far has its response in the buffer.
		qc.unanswered.Add(1)
		var req queryRequest
		if err := json.Unmarshal(line, &req); err != nil {
			if !qc.writeResp(queryResponse{Error: fmt.Sprintf("malformed request: %v", err)}) {
				return
			}
			goto answered
		}
		if req.ID == 0 {
			// Lockstep path: compute and answer inline, in order.
			resp := qs.handle(req)
			ok := qc.writeResp(resp)
			resp.release()
			if !ok {
				return
			}
			goto answered
		}
		// Fast path: a series question its shard has already answered at
		// the current generation is a map lookup — answer it from the
		// reader goroutine rather than paying two channel handoffs to have
		// a worker do the same lookup.
		if req.Op == "series" && req.Server != "" {
			spec := trace.Spec{CPURPE2: req.CPURPE2, MemMB: req.MemMB}
			if c, ok := qs.warehouse.seriesJSONPeek(req.Server, spec, req.Epoch, req.LastHours); ok {
				qs.fastPath.Add(1)
				resp := queryResponse{ID: req.ID, OK: true, body: c.body}
				if c.err != nil {
					resp = queryResponse{ID: req.ID, Error: c.err.Error()}
				}
				if !qc.writeResp(resp) {
					return
				}
				goto answered
			}
		}
		// Pipelined path: hand off to the pool and keep reading. The
		// send blocks when the queue is full — bounded backpressure.
		qs.pooled.Add(1)
		{
			d := qs.inflight.Add(1)
			for {
				m := qs.maxDepth.Load()
				if d <= m || qs.maxDepth.CompareAndSwap(m, d) {
					break
				}
			}
		}
		select {
		case qs.workCh <- queryWork{qc: qc, req: req, enq: time.Now()}:
		case <-qs.shutdown:
			qs.inflight.Add(-1)
			return
		}
	answered:
		if !more {
			release()
		}
	}
}

// readQueryLine returns the next newline-terminated line — a request on the
// server, a response on the client — tolerating lines larger than the
// reader's buffer up to maxLine (scratch carries the reassembly buffer
// between calls). A trailing unterminated line at EOF is returned as a
// final line, matching the scanner this replaced.
func readQueryLine(rd *bufio.Reader, scratch *[]byte, maxLine int) ([]byte, error) {
	line, err := rd.ReadSlice('\n')
	if err == nil || (err == io.EOF && len(line) > 0) {
		return line, nil
	}
	if err != bufio.ErrBufferFull {
		return nil, err
	}
	buf := append((*scratch)[:0], line...)
	for {
		line, err = rd.ReadSlice('\n')
		buf = append(buf, line...)
		if len(buf) > maxLine {
			return nil, errors.New("monitor: line too long")
		}
		switch {
		case err == nil, err == io.EOF && len(buf) > 0:
			*scratch = buf
			return buf, nil
		case err == bufio.ErrBufferFull:
			// keep reassembling
		default:
			return nil, err
		}
	}
}

func (qs *QueryServer) handle(req queryRequest) queryResponse {
	w := qs.warehouse
	switch req.Op {
	case "servers":
		return queryResponse{OK: true, Servers: w.Servers()}
	case "stats":
		s := w.Stats()
		return queryResponse{OK: true, Stats: &s}
	case "series":
		if req.Server == "" {
			return queryResponse{Error: "series: missing server"}
		}
		body, err := w.seriesJSON(req.Server, trace.Spec{CPURPE2: req.CPURPE2, MemMB: req.MemMB}, req.Epoch, req.LastHours)
		if err != nil {
			return queryResponse{Error: err.Error()}
		}
		return queryResponse{OK: true, body: body}
	case "range":
		if req.Server == "" {
			return queryResponse{Error: "range: missing server"}
		}
		points, err := w.Range(req.Server, req.From, req.To)
		if err != nil {
			return queryResponse{Error: err.Error()}
		}
		return queryResponse{OK: true, Points: points}
	case "advise":
		advice, err := w.Advise(AdviseRequest{
			Spec:        trace.Spec{CPURPE2: req.CPURPE2, MemMB: req.MemMB},
			Epoch:       req.Epoch,
			WindowHours: req.WindowHours,
			Host:        req.Host,
		})
		if err != nil {
			return queryResponse{Error: err.Error()}
		}
		return queryResponse{OK: true, Advice: advice}
	case "set":
		body, err := qs.setBody(req)
		if err != nil {
			return queryResponse{Error: err.Error()}
		}
		return queryResponse{OK: true, Bytes: len(body), raw: body}
	default:
		return queryResponse{Error: fmt.Sprintf("unknown op %q", req.Op)}
	}
}

// setBody answers a set request. Each server's hours pass through one
// pooled slice on their way into the body; no per-server series outlives
// its entry.
func (qs *QueryServer) setBody(req queryRequest) ([]byte, error) {
	scratch := usageScratchPool.Get().(*[]trace.Usage)
	defer usageScratchPool.Put(scratch)
	var body []byte
	if b, ok := setBodyPool.Get().(*[]byte); ok {
		body = *b
	}
	ids := qs.warehouse.Servers()
	for _, id := range ids {
		cpu, ok := req.Specs[id]
		if !ok {
			return nil, fmt.Errorf("monitor: no spec for server %s", id)
		}
		var err error
		if *scratch, err = qs.warehouse.hours(*scratch, id, trace.Spec{CPURPE2: cpu}, req.Epoch, 0); err != nil {
			return nil, err
		}
		if len(body) == 0 {
			// A fleet's series run to about one length: size from the first.
			body = slices.Grow(body, len(ids)*(len(id)+len(*scratch)*usageWireBytes+2*binary.MaxVarintLen32))
		}
		if body = appendSetEntry(body, id, *scratch); len(body) > maxResponseBytes {
			return nil, fmt.Errorf("monitor: set body exceeds %d bytes", maxResponseBytes)
		}
	}
	return body, nil
}

// setBodyPool recycles set bodies once written: a fleet's is ~9 MB, and a
// fresh one per pull is that much zeroed memory and collector work.
var setBodyPool sync.Pool

// release hands a written set body back to setBodyPool.
func (resp queryResponse) release() {
	if resp.raw != nil {
		b := resp.raw[:0]
		setBodyPool.Put(&b)
	}
}

// Close stops the query listener, severs live client connections and waits
// for the handlers and pool workers to drain.
func (qs *QueryServer) Close() error {
	close(qs.shutdown)
	qs.mu.Lock()
	lis := qs.lis
	for conn := range qs.conns {
		conn.Close()
	}
	qs.mu.Unlock()
	var err error
	if lis != nil {
		err = lis.Close()
	}
	qs.wg.Wait()
	return err
}

// QueryClient is the planner-side client of the query protocol. It holds
// one pipelined connection and is safe for concurrent use: every request
// carries an id, a reader goroutine demultiplexes responses, and any
// number of calls may be in flight at once.
type QueryClient struct {
	// Timeout bounds each request/response exchange (0 disables) so a
	// hung server cannot stall the control loop indefinitely. A FetchSet is
	// one exchange, so it bounds the whole fleet pull.
	Timeout time.Duration

	conn net.Conn
	bw   *bufio.Writer
	enc  *json.Encoder
	wmu  sync.Mutex
	// sending counts calls that have a request to write but have not
	// written it yet; the writer that drops it to zero flushes, so
	// concurrent calls batch their requests into one syscall.
	sending atomic.Int64

	nextID atomic.Uint64

	mu      sync.Mutex
	pending map[uint64]chan queryResponse
	readErr error

	readerOnce sync.Once
	done       chan struct{}
}

// maxResponseBytes bounds one response line, and one set body; a longer
// one ends the connection, as an oversized request does on the server. A
// year of hourly series is under 200 KB and a month of per-minute range
// points under 3 MB; a set body of 30-day series holds ~5.8k servers.
const maxResponseBytes = 64 << 20

// DialQuery connects to a query server.
func DialQuery(ctx context.Context, addr string) (*QueryClient, error) {
	conn, err := (&net.Dialer{}).DialContext(ctx, "tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("monitor: dial query server: %w", err)
	}
	return newQueryClient(conn), nil
}

func newQueryClient(conn net.Conn) *QueryClient {
	bw := bufio.NewWriterSize(conn, 16<<10)
	return &QueryClient{
		conn:    conn,
		bw:      bw,
		enc:     json.NewEncoder(bw),
		pending: make(map[uint64]chan queryResponse),
		done:    make(chan struct{}),
	}
}

// Close releases the connection; in-flight calls fail.
func (c *QueryClient) Close() error { return c.conn.Close() }

// startReader begins demultiplexing responses by id. Started lazily so a
// client that is dialed but never used costs no goroutine.
func (c *QueryClient) startReader() {
	go func() {
		// A 30-day series line is 15 KB; longer lines (a year of hours, a
		// wide range read) are reassembled in overflow.
		rd := bufio.NewReaderSize(c.conn, 64<<10)
		var overflow []byte
		for {
			line, err := readQueryLine(rd, &overflow, maxResponseBytes)
			var resp queryResponse
			if err == nil {
				resp, err = decodeResponseLine(line)
			}
			if err == nil && resp.Bytes != 0 {
				// The set body is read even when its call has timed out, so
				// the stream stays in step.
				resp.set, err = decodeSetBody(rd, resp.Bytes)
			}
			if err != nil {
				// The stream is lost past this point — EOF, an oversized
				// line, bytes that are not a response or a set body: every
				// call fails and the connection ends.
				c.mu.Lock()
				if c.readErr == nil {
					c.readErr = fmt.Errorf("monitor: read response: %w", err)
				}
				c.mu.Unlock()
				close(c.done)
				c.conn.Close()
				return
			}
			c.mu.Lock()
			ch := c.pending[resp.ID]
			delete(c.pending, resp.ID)
			c.mu.Unlock()
			if ch != nil {
				ch <- resp
			}
		}
	}()
}

// send writes one request. Under concurrent use the requests of calls
// queued behind each other leave in one write.
func (c *QueryClient) send(req queryRequest) error {
	c.sending.Add(1)
	c.wmu.Lock()
	defer c.wmu.Unlock()
	if c.Timeout > 0 {
		if err := c.conn.SetWriteDeadline(time.Now().Add(c.Timeout)); err != nil {
			// A connection that cannot arm its write deadline must not write
			// without one — the server's rule. Requests other calls have
			// buffered behind this one cannot leave either, so the
			// connection ends and they fail through the reader.
			c.sending.Add(-1)
			c.conn.Close()
			return err
		}
	}
	err := c.enc.Encode(req)
	// Flush only when no other call is waiting to append its request —
	// the last writer in line carries the batch out.
	if c.sending.Add(-1) == 0 {
		if ferr := c.bw.Flush(); err == nil {
			err = ferr
		}
	}
	return err
}

func (c *QueryClient) roundTrip(req queryRequest) (queryResponse, error) {
	c.readerOnce.Do(c.startReader)
	id := c.nextID.Add(1)
	req.ID = id
	ch := make(chan queryResponse, 1)
	c.mu.Lock()
	if c.readErr != nil {
		err := c.readErr
		c.mu.Unlock()
		return queryResponse{}, err
	}
	c.pending[id] = ch
	c.mu.Unlock()

	if err := c.send(req); err != nil {
		c.mu.Lock()
		delete(c.pending, id)
		c.mu.Unlock()
		return queryResponse{}, fmt.Errorf("monitor: send query: %w", err)
	}

	var timeout <-chan time.Time
	if c.Timeout > 0 {
		t := time.NewTimer(c.Timeout)
		defer t.Stop()
		timeout = t.C
	}
	select {
	case resp := <-ch:
		if !resp.OK {
			return queryResponse{}, fmt.Errorf("monitor: query failed: %s", resp.Error)
		}
		return resp, nil
	case <-timeout:
		// Abandon the id; a late response is dropped by the reader.
		c.mu.Lock()
		delete(c.pending, id)
		c.mu.Unlock()
		return queryResponse{}, errors.New("monitor: query timeout")
	case <-c.done:
		c.mu.Lock()
		err := c.readErr
		c.mu.Unlock()
		return queryResponse{}, err
	}
}

// Servers lists the monitored servers.
func (c *QueryClient) Servers() ([]trace.ServerID, error) {
	resp, err := c.roundTrip(queryRequest{Op: "servers"})
	if err != nil {
		return nil, err
	}
	return resp.Servers, nil
}

// Stats fetches warehouse totals.
func (c *QueryClient) Stats() (Stat, error) {
	resp, err := c.roundTrip(queryRequest{Op: "stats"})
	if err != nil {
		return Stat{}, err
	}
	if resp.Stats == nil {
		return Stat{}, errors.New("monitor: stats response without payload")
	}
	return *resp.Stats, nil
}

// HourlySeries fetches one server's aggregated demand series.
func (c *QueryClient) HourlySeries(id trace.ServerID, spec trace.Spec, epoch time.Time) (*trace.Series, error) {
	return c.HourlySeriesWindow(id, spec, epoch, 0)
}

// HourlySeriesWindow fetches the trailing lastHours hours of a server's
// aggregated demand series (0 = everything).
func (c *QueryClient) HourlySeriesWindow(id trace.ServerID, spec trace.Spec, epoch time.Time, lastHours int) (*trace.Series, error) {
	resp, err := c.roundTrip(queryRequest{
		Op:        "series",
		Server:    id,
		CPURPE2:   spec.CPURPE2,
		MemMB:     spec.MemMB,
		Epoch:     epoch,
		LastHours: lastHours,
	})
	if err != nil {
		return nil, err
	}
	samples := resp.samples
	if samples == nil {
		// A series line the fast path declined came through encoding/json.
		if samples, err = unpackUsage([]byte(resp.Usage)); err != nil {
			return nil, err
		}
	}
	return trace.NewSeries(time.Hour, samples)
}

// Range fetches the raw samples with from <= ts < to (UnixNano).
func (c *QueryClient) Range(id trace.ServerID, from, to int64) ([]RangePoint, error) {
	resp, err := c.roundTrip(queryRequest{Op: "range", Server: id, From: from, To: to})
	if err != nil {
		return nil, err
	}
	return resp.Points, nil
}

// Advise asks the server for a consolidation recommendation computed over
// its data: workload attributes, the recommended mode, and a
// placement plan's headline numbers.
func (c *QueryClient) Advise(spec trace.Spec, epoch time.Time, windowHours int) (*Advice, error) {
	resp, err := c.roundTrip(queryRequest{
		Op:          "advise",
		CPURPE2:     spec.CPURPE2,
		MemMB:       spec.MemMB,
		Epoch:       epoch,
		WindowHours: windowHours,
	})
	if err != nil {
		return nil, err
	}
	if resp.Advice == nil {
		return nil, errors.New("monitor: advise response without payload")
	}
	return resp.Advice, nil
}

// FetchSet pulls every monitored server into a trace set, given each
// server's hardware spec — the remote analogue of Warehouse.CollectSet and
// the input to consolidation planning — in one set request, ordered by
// server ID.
func (c *QueryClient) FetchSet(name string, specs map[trace.ServerID]trace.Spec, epoch time.Time) (*trace.Set, error) {
	req := queryRequest{Op: "set", Epoch: epoch, Specs: make(map[trace.ServerID]float64, len(specs))}
	for id, spec := range specs {
		req.Specs[id] = spec.CPURPE2
	}
	resp, err := c.roundTrip(req)
	if err != nil {
		return nil, err
	}
	set := &trace.Set{Name: name, Servers: make([]*trace.ServerTrace, len(resp.set))}
	for i, s := range resp.set {
		// A server the request named no spec for fails Validate.
		set.Servers[i] = &trace.ServerTrace{ID: s.id, Spec: specs[s.id], Series: &trace.Series{Step: time.Hour, Samples: s.hours}}
	}
	if err := set.Validate(); err != nil {
		return nil, err
	}
	return set, nil
}
