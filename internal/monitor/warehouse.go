package monitor

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"fmt"
	"net"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"vmwild/internal/fsx"
	"vmwild/internal/trace"
	"vmwild/internal/wal"
)

// DefaultMaxLineBytes bounds one JSON line on an ingestion or query
// connection. An agent sample is a few hundred bytes and a batch frame a
// few hundred KB at most; anything near this limit is garbage or an
// attack, and the connection is dropped rather than buffered without
// bound.
const DefaultMaxLineBytes = 1 << 20

// DefaultIngestShards is the shard count NewWarehouse uses. It is a fixed
// constant rather than NumCPU so that shard assignment — and therefore the
// per-shard WAL layout — is identical across machines.
const DefaultIngestShards = 8

// maxIngestShards caps the configurable shard count; beyond this the
// per-shard WAL directory fan-out stops paying for itself.
const maxIngestShards = 256

var (
	errNoCPURating  = errors.New("monitor: spec has no CPU rating")
	errPrecedeEpoch = errors.New("monitor: samples precede epoch")
)

// journalFn is the write-ahead hook type; stored behind an atomic pointer
// so the ingest hot path reads it without a lock.
type journalFn func(Sample) error

// shard is one lock domain of the warehouse: a subset of servers chosen by
// ServerID hash, with its own mutex, sample/eviction counters, and
// struct-of-arrays stores. The padding keeps adjacent shard mutexes off
// the same cache line.
type shard struct {
	mu      sync.Mutex
	servers map[trace.ServerID]*serverStore
	samples int
	evicted int
	// shed counts this shard's samples refused by the ingest limiter;
	// atomic because shedding happens without taking the shard lock.
	shed atomic.Int64
	// mutations counts every insert into this shard (bumped under mu,
	// read without it). The replica publisher compares it against the
	// generation it last published to decide staleness — the lag unit is
	// samples.
	mutations atomic.Uint64
	// idGen/idCache memoize this shard's sorted server IDs: idGen bumps
	// when a server first appears, and Servers() merges the per-shard
	// caches instead of rescanning unchanged shards.
	idGen   atomic.Uint64
	idCache atomic.Pointer[serverCache]
	_       [64]byte
}

// sortedIDs returns this shard's server IDs in sorted order, rebuilt only
// when a server has appeared since the last call. The returned slice is
// shared and must not be mutated.
func (sh *shard) sortedIDs() []trace.ServerID {
	gen := sh.idGen.Load()
	if c := sh.idCache.Load(); c != nil && c.gen == gen {
		return c.ids
	}
	sh.mu.Lock()
	ids := make([]trace.ServerID, 0, len(sh.servers))
	for id := range sh.servers {
		ids = append(ids, id)
	}
	sh.mu.Unlock()
	slices.Sort(ids)
	// gen was read before the scan, so a server landing mid-scan may be
	// cached under too old a generation — one extra rebuild later, never a
	// stale hit.
	sh.idCache.Store(&serverCache{gen: gen, ids: ids})
	return ids
}

// mergeSortedIDs k-way merges sorted per-shard ID lists. Shards partition
// servers by hash, so the lists are disjoint and the merge is a plain
// interleave.
func mergeSortedIDs(lists [][]trace.ServerID, total int) []trace.ServerID {
	out := make([]trace.ServerID, 0, total)
	heads := make([]int, len(lists))
	for len(out) < total {
		best := -1
		for i := range lists {
			if heads[i] >= len(lists[i]) {
				continue
			}
			if best < 0 || lists[i][heads[i]] < lists[best][heads[best]] {
				best = i
			}
		}
		out = append(out, lists[best][heads[best]])
		heads[best]++
	}
	return out
}

// serverCache is the memoized sorted server list; gen ties it to the
// newest-server generation it was built from.
type serverCache struct {
	gen uint64
	ids []trace.ServerID
}

// Warehouse is the central monitoring store: it accepts JSON samples over
// TCP — one object per line, or a batch frame holding a JSON array of
// objects — retains them under a retention policy, and aggregates them
// into the hourly-average series consolidation planning consumes. Storage
// is sharded by ServerID hash so concurrent agents and query clients do
// not contend on one lock.
type Warehouse struct {
	// Retention drops samples older than this relative to the newest
	// sample of the same server (0 keeps everything). The paper's
	// planners use the most recent 30 days.
	Retention time.Duration
	// ReadTimeout severs an agent connection that stays silent longer
	// than this (0 disables). Agents reconnect with backoff, so a hung
	// peer costs a file descriptor for at most one timeout.
	ReadTimeout time.Duration
	// MaxLineBytes bounds one JSON line (default DefaultMaxLineBytes);
	// a connection exceeding it is closed. Malformed lines within the
	// bound are counted as dropped and the connection stays usable.
	MaxLineBytes int
	// WriteTimeout bounds each envelope acknowledgment write (0 falls
	// back to batchWriteTimeout). A client too slow to drain its acks is
	// counted and disconnected rather than pinning a handler.
	WriteTimeout time.Duration
	// MaxConns caps concurrently served agent connections (0 = unbounded).
	// The gate is taken BEFORE Accept, so excess dials queue in the
	// kernel's accept backlog — backpressure, not a spun-up goroutine per
	// dial. Set before Listen.
	MaxConns int
	// BackoffSeed roots the accept-loop retry jitter so tests can pin the
	// schedule; zero is a valid seed.
	BackoffSeed int64
	// Clock abstracts time for the ingest limiter's refill (nil uses
	// time.Now) — the seam that makes shed counts reproducible in tests.
	Clock func() time.Time

	shards []shard

	journal     atomic.Pointer[journalFn]
	droppedMisc atomic.Int64 // invalid, unparseable, or journal-failed samples
	journalErrs atomic.Int64

	// diskDegraded latches when the journal reports the disk is full or
	// poisoned: network ingest sheds (counted in shedDisk) while queries
	// keep being served, until ResumeIngest. Latched rather than probed so
	// the warehouse fails a bounded number of journal writes, not one per
	// arriving sample.
	diskDegraded atomic.Bool
	shedDisk     atomic.Int64 // network samples shed while disk-degraded

	limiter       atomic.Pointer[tokenBucket]
	shedIngest    atomic.Int64 // network samples refused by the limiter
	ackedSamples  atomic.Int64 // samples admitted through acked envelopes
	corruptFrames atomic.Int64 // envelopes rejected by parse or CRC
	slowClients   atomic.Int64 // connections cut on a stalled ack write

	ackMu   sync.Mutex
	lastAck map[string]ackResult // per-agent last envelope result, for exactly-once retries

	serverGen  atomic.Uint64 // bumped after a new server's map insert
	serverList atomic.Pointer[serverCache]

	// replicas, once enabled, is the read-only snapshot layer queries are
	// served from without touching shard locks.
	replicas atomic.Pointer[replicaSet]

	connMu   sync.Mutex
	conns    map[net.Conn]struct{}
	connSem  chan struct{} // MaxConns admission gate, created by Listen
	lis      net.Listener
	wg       sync.WaitGroup
	shutdown chan struct{}
}

// NewWarehouse creates an empty warehouse with DefaultIngestShards shards.
func NewWarehouse(retention time.Duration) *Warehouse {
	return NewWarehouseShards(retention, DefaultIngestShards)
}

// NewWarehouseShards creates an empty warehouse with the given shard
// count. Values outside [1, 256] are clamped. One shard reproduces the
// old single-lock behavior; more shards trade memory for ingest and query
// concurrency.
func NewWarehouseShards(retention time.Duration, shards int) *Warehouse {
	if shards < 1 {
		shards = DefaultIngestShards
	}
	if shards > maxIngestShards {
		shards = maxIngestShards
	}
	w := &Warehouse{
		Retention: retention,
		shards:    make([]shard, shards),
		conns:     make(map[net.Conn]struct{}),
		lastAck:   make(map[string]ackResult),
		shutdown:  make(chan struct{}),
	}
	for i := range w.shards {
		w.shards[i].servers = make(map[trace.ServerID]*serverStore)
	}
	return w
}

// Shards reports the shard count (needed by the per-shard WAL to lay out
// its journal lanes).
func (w *Warehouse) Shards() int { return len(w.shards) }

// shardIndex maps a server to its shard with FNV-1a — stable across
// processes, which the per-shard WAL layout depends on.
func (w *Warehouse) shardIndex(id trace.ServerID) int {
	if len(w.shards) == 1 {
		return 0
	}
	h := uint32(2166136261)
	for i := 0; i < len(id); i++ {
		h ^= uint32(id[i])
		h *= 16777619
	}
	return int(h % uint32(len(w.shards)))
}

// Listen starts accepting agents on addr (use "127.0.0.1:0" for an
// ephemeral port) and returns the bound address.
func (w *Warehouse) Listen(addr string) (string, error) {
	lis, err := net.Listen("tcp", addr)
	if err != nil {
		return "", fmt.Errorf("monitor: listen: %w", err)
	}
	if w.MaxConns > 0 {
		w.connSem = make(chan struct{}, w.MaxConns)
	}
	w.lis = lis
	w.wg.Add(1)
	go w.acceptLoop()
	return lis.Addr().String(), nil
}

// acceptBackoff paces retries after transient Accept errors: exponential
// from 5ms to 1s, reset by any successful accept. Without it a listener
// stuck in a persistent error state (EMFILE, say) spins a core at 100%.
const (
	acceptBackoffMin = 5 * time.Millisecond
	acceptBackoffMax = 1 * time.Second
)

func (w *Warehouse) acceptLoop() {
	defer w.wg.Done()
	backoff := acceptBackoffMin
	rng := backoffRand(w.BackoffSeed, "warehouse-accept")
	for {
		// Take a connection slot BEFORE accepting: at MaxConns live
		// handlers the loop parks here and excess dials queue in the
		// kernel accept backlog — backpressure the client feels as a slow
		// dial, instead of an unbounded goroutine per connection.
		if w.connSem != nil {
			select {
			case w.connSem <- struct{}{}:
			case <-w.shutdown:
				return
			}
		}
		conn, err := w.lis.Accept()
		if err != nil {
			w.releaseConnSlot()
			select {
			case <-w.shutdown:
				return
			case <-time.After(jitterBackoff(rng, backoff)):
				backoff = min(backoff*2, acceptBackoffMax)
				continue
			}
		}
		backoff = acceptBackoffMin
		w.connMu.Lock()
		w.conns[conn] = struct{}{}
		w.connMu.Unlock()
		w.wg.Add(1)
		go w.serveConn(conn)
	}
}

func (w *Warehouse) releaseConnSlot() {
	if w.connSem != nil {
		<-w.connSem
	}
}

// ConnCount reports the live agent connections being served.
func (w *Warehouse) ConnCount() int {
	w.connMu.Lock()
	defer w.connMu.Unlock()
	return len(w.conns)
}

// UnderPressure reports whether the connection gate is nearly saturated
// (≥ 80% of MaxConns live) or the warehouse is disk-degraded. The query
// tier uses it to reject new query connections first — shedding reads
// before writes, because a planner can retry a fetch but a shed sample is
// gone.
func (w *Warehouse) UnderPressure() bool {
	if w.diskDegraded.Load() {
		return true
	}
	if w.MaxConns <= 0 {
		return false
	}
	return w.ConnCount()*5 >= w.MaxConns*4
}

// DiskDegraded reports whether the warehouse is in shed-ingest read-only
// mode after the journal hit a disk-full or poisoned-storage condition.
func (w *Warehouse) DiskDegraded() bool { return w.diskDegraded.Load() }

// ShedDisk reports how many network samples were shed while disk-degraded.
func (w *Warehouse) ShedDisk() int64 { return w.shedDisk.Load() }

// ResumeIngest clears the disk-degraded latch after the operator freed
// space (or the journal was rotated to healthy storage). Samples shed in
// the interim are gone — agents saw them refused, never acked.
func (w *Warehouse) ResumeIngest() { w.diskDegraded.Store(false) }

// noteJournalError inspects a journal failure and latches degraded mode on
// the conditions where retrying per-sample would burn the write path for
// nothing: a full disk (retryable only after an operator acts) or poisoned
// storage (never retryable in place).
func (w *Warehouse) noteJournalError(err error) {
	if fsx.IsNoSpace(err) || errors.Is(err, wal.ErrPoisoned) {
		w.diskDegraded.Store(true)
	}
}

func (w *Warehouse) serveConn(conn net.Conn) {
	defer w.wg.Done()
	defer func() {
		conn.Close()
		w.connMu.Lock()
		delete(w.conns, conn)
		w.connMu.Unlock()
		w.releaseConnSlot()
	}()
	maxLine := w.MaxLineBytes
	if maxLine <= 0 {
		maxLine = DefaultMaxLineBytes
	}
	// Line-based ingestion with a bounded buffer: one malformed line is
	// one dropped sample (or one dropped batch), not a poisoned stream,
	// and an oversized line ends the connection instead of growing the
	// buffer without bound.
	sc := bufio.NewScanner(conn)
	// Scanner treats max(cap(buf), limit) as the token bound, so the
	// initial buffer must not exceed the configured limit. Batch frames
	// run to ~128 KiB, so starting near that size skips the grow-and-copy
	// ladder on every connection.
	sc.Buffer(make([]byte, 0, min(128*1024, maxLine)), maxLine)
	// Server IDs repeat on every sample of a connection; interning them
	// makes the steady-state decode allocation-free per sample.
	intern := make(map[string]trace.ServerID, 16)
	batch := takeBatch()
	defer putBatch(batch)
	for {
		if w.ReadTimeout > 0 {
			if err := conn.SetReadDeadline(time.Now().Add(w.ReadTimeout)); err != nil {
				// A connection that cannot arm its read deadline must
				// not keep looping without one.
				return
			}
		}
		// Close pokes the read deadline after closing shutdown; checking
		// here, after arming ours, means a poke is never overwritten
		// unseen, and the envelope in hand has been finished and acked.
		select {
		case <-w.shutdown:
			return
		default:
		}
		if !sc.Scan() {
			// EOF, read timeout, or a line beyond MaxLineBytes.
			return
		}
		line := bytes.TrimSpace(sc.Bytes())
		if len(line) == 0 {
			continue
		}
		if bytes.HasPrefix(line, envelopePrefix) {
			// Acked envelope: parse, CRC-check, admit, acknowledge. A
			// protocol error closes the connection so the sender retries
			// the whole frame instead of trusting a mangled one.
			if !w.serveEnvelope(conn, line, batch[:0], intern) {
				return
			}
			continue
		}
		if line[0] == '[' {
			// Batch frame: a JSON array of sample objects on one line.
			var err error
			batch, err = decodeBatch(line, batch[:0], intern)
			if err != nil {
				w.droppedMisc.Add(1)
				continue
			}
			granted := w.admit(batch)
			w.IngestBatch(batch[:granted])
			continue
		}
		s, err := decodeSample(line, intern)
		if err != nil {
			w.droppedMisc.Add(1)
			continue
		}
		if w.admit([]Sample{s}) == 0 {
			continue
		}
		w.Ingest(s)
	}
}

// SetIngestLimit installs (or with burst <= 0 removes) the token-bucket
// admission limiter on the network ingest paths: rate samples per second
// refilling up to burst. rate == 0 with a positive burst freezes the
// budget — exactly burst samples admitted, ever — which makes shed counts
// deterministic for the chaos wall. In-process Ingest/IngestBatch calls,
// snapshot Restore and journal replay are never limited: the limiter
// protects the socket door, not recovery.
func (w *Warehouse) SetIngestLimit(rate float64, burst int) {
	if burst <= 0 {
		w.limiter.Store(nil)
		return
	}
	w.limiter.Store(newTokenBucket(rate, burst, w.Clock))
}

// admit runs a decoded network batch through the disk-degraded gate and
// the ingest limiter, returning how many leading samples were admitted.
// The shed suffix is counted — globally and per shard — never silently
// lost.
func (w *Warehouse) admit(batch []Sample) int {
	if w.diskDegraded.Load() {
		// Read-only mode: nothing gets journaled, so nothing gets acked.
		// Envelope senders see shed == len(batch) and hold their data.
		w.shedDisk.Add(int64(len(batch)))
		for i := range batch {
			w.shards[w.shardIndex(batch[i].Server)].shed.Add(1)
		}
		return 0
	}
	tb := w.limiter.Load()
	if tb == nil {
		return len(batch)
	}
	granted := tb.take(len(batch))
	if shed := batch[granted:]; len(shed) > 0 {
		w.shedIngest.Add(int64(len(shed)))
		for i := range shed {
			w.shards[w.shardIndex(shed[i].Server)].shed.Add(1)
		}
	}
	return granted
}

// serveEnvelope handles one acked envelope line; false means the
// connection must close (protocol violation or unwritable ack).
func (w *Warehouse) serveEnvelope(conn net.Conn, line []byte, batch []Sample, intern map[string]trace.ServerID) bool {
	agent, seq, rawSamples, err := decodeEnvelope(line)
	if err != nil {
		w.corruptFrames.Add(1)
		return false
	}
	batch, err = decodeBatch(rawSamples, batch, intern)
	if err != nil {
		// The CRC passed, so the sender really framed an undecodable
		// array — same contract as a corrupt frame: refuse and close.
		w.corruptFrames.Add(1)
		return false
	}

	// Exactly-once: a duplicate sequence re-acks the ORIGINAL counts
	// without touching storage, so a retry after a lost ack neither
	// double-ingests nor double-counts. The map is per-agent, and the
	// sender never advances seq until the previous one is acked.
	w.ackMu.Lock()
	res, replay := w.lastAck[agent]
	if !replay || res.seq != seq {
		granted := w.admit(batch)
		// The ack may only claim what the journal actually made durable: a
		// disk that fills mid-envelope sheds the batch's tail instead of
		// acking samples that were never stored.
		ok := w.ingestBatchDurable(batch[:granted])
		w.ackedSamples.Add(int64(ok))
		res = ackResult{seq: seq, ok: ok, shed: len(batch) - ok}
		w.lastAck[agent] = res
	}
	w.ackMu.Unlock()

	if err := conn.SetWriteDeadline(time.Now().Add(writeTimeout(w.WriteTimeout))); err != nil {
		w.slowClients.Add(1)
		return false
	}
	if _, err := conn.Write(appendAck(nil, res)); err != nil {
		// The samples are in; the ack is lost. The sender retries the
		// seq and the dedup map replays this exact ack.
		w.slowClients.Add(1)
		return false
	}
	return true
}

// Close stops the listener, drains the agent connections and waits for
// their handlers to end. Each handler finishes — and acks — the envelope
// it is serving, then stops reading, so every envelope a sender wrote is
// either acked or left for it to retry; agents reconnect with backoff.
func (w *Warehouse) Close() error {
	close(w.shutdown)
	var err error
	if w.lis != nil {
		err = w.lis.Close()
	}
	w.connMu.Lock()
	for conn := range w.conns {
		conn.SetReadDeadline(time.Unix(1, 0))
	}
	w.connMu.Unlock()
	w.wg.Wait()
	return err
}

// SetJournal routes every accepted sample through j before it becomes
// visible — the write-ahead hook behind WarehouseLog. The journal is
// responsible for making the sample durable and then inserting it (see
// WarehouseLog); a journal error drops the sample, because a sample that
// cannot be made durable must not be acknowledged. Set it before any
// ingestion begins.
func (w *Warehouse) SetJournal(j func(Sample) error) {
	if j == nil {
		w.journal.Store(nil)
		return
	}
	fn := journalFn(j)
	w.journal.Store(&fn)
}

// JournalErrors reports how many accepted samples were dropped because the
// journal could not persist them.
func (w *Warehouse) JournalErrors() int {
	return int(w.journalErrs.Load())
}

// Ingest stores one sample, applying validation and retention. It is safe
// for concurrent use and is also the in-process ingestion path.
func (w *Warehouse) Ingest(s Sample) {
	w.IngestDurable(s)
}

// IngestDurable stores one sample like Ingest and additionally reports
// whether it was accepted: a validation failure or a journal write failure
// drops the sample and returns the cause. A nil return from a journaled
// warehouse means the sample has been persisted per the journal's fsync
// policy — the acknowledgment boundary the crash-injection wall tests.
func (w *Warehouse) IngestDurable(s Sample) error {
	if err := s.Validate(); err != nil {
		w.droppedMisc.Add(1)
		return err
	}
	if j := w.journal.Load(); j != nil {
		if err := (*j)(s); err != nil {
			w.droppedMisc.Add(1)
			w.journalErrs.Add(1)
			w.noteJournalError(err)
			return err
		}
		return nil
	}
	w.insert(s)
	return nil
}

// insert adds one validated sample to its shard under the retention
// policy. A new server's generation bumps land before the shard lock is
// released, so whoever sees its samples also sees it in Servers().
func (w *Warehouse) insert(s Sample) {
	sh := &w.shards[w.shardIndex(s.Server)]
	sh.mu.Lock()
	if sh.insertLocked(w.Retention, s) {
		sh.idGen.Add(1)
		w.serverGen.Add(1)
	}
	sh.mu.Unlock()
}

// insertLocked stores s in this shard (caller holds sh.mu) and reports
// whether the server is new to the shard.
func (sh *shard) insertLocked(retention time.Duration, s Sample) (isNew bool) {
	st := sh.servers[s.Server]
	if st == nil {
		st = new(serverStore)
		sh.servers[s.Server] = st
		isNew = true
	}
	d := st.add(s, retention)
	sh.samples += 1 - d
	sh.evicted += d
	sh.mutations.Add(1)
	return isNew
}

// batchScratch holds the counting-sort workspace IngestBatch reuses across
// calls through a pool.
type batchScratch struct {
	idx    []int32 // shard per sample, -1 for invalid
	counts []int32
	order  []int32
}

var batchScratchPool = sync.Pool{New: func() any { return new(batchScratch) }}

// growInt32 resizes s to n elements, reusing its backing array when it
// fits. Contents are unspecified.
func growInt32(s []int32, n int) []int32 {
	if cap(s) < n {
		return make([]int32, n)
	}
	return s[:n]
}

// ingestBatchDurable is the envelope path's journal-aware ingest: it
// returns how many leading samples actually landed, so the ack never
// claims durability the journal refused. On the first journal failure the
// rest of the batch is shed — counted in shedDisk and per shard — without
// probing the broken disk once per sample, and the error latches degraded
// mode when it is typed as disk-full or poisoned storage.
func (w *Warehouse) ingestBatchDurable(samples []Sample) int {
	j := w.journal.Load()
	if j == nil {
		w.IngestBatch(samples)
		return len(samples)
	}
	for i := range samples {
		if err := samples[i].Validate(); err != nil {
			// An invalid sample is acked (the sender must not retry it)
			// but dropped, exactly as on the journal-free path.
			w.droppedMisc.Add(1)
			continue
		}
		if err := (*j)(samples[i]); err != nil {
			w.journalErrs.Add(1)
			w.noteJournalError(err)
			shed := samples[i:]
			w.shedDisk.Add(int64(len(shed)))
			for k := range shed {
				w.shards[w.shardIndex(shed[k].Server)].shed.Add(1)
			}
			return i
		}
	}
	return len(samples)
}

// IngestBatch stores a batch of samples with one shard-lock acquisition
// per touched shard, grouping samples by shard with a counting sort that
// preserves arrival order within each server. With a journal attached it
// degrades to the per-sample durable path, preserving the
// checkpoint-before-append contract.
func (w *Warehouse) IngestBatch(samples []Sample) {
	if len(samples) == 0 {
		return
	}
	if j := w.journal.Load(); j != nil {
		for i := range samples {
			if err := samples[i].Validate(); err != nil {
				w.droppedMisc.Add(1)
				continue
			}
			if err := (*j)(samples[i]); err != nil {
				w.droppedMisc.Add(1)
				w.journalErrs.Add(1)
				w.noteJournalError(err)
			}
		}
		return
	}

	sc := batchScratchPool.Get().(*batchScratch)
	idx := growInt32(sc.idx, len(samples))
	counts := growInt32(sc.counts, len(w.shards))
	clear(counts)
	order := growInt32(sc.order, len(samples))

	for i := range samples {
		if err := samples[i].Validate(); err != nil {
			w.droppedMisc.Add(1)
			idx[i] = -1
			continue
		}
		k := int32(w.shardIndex(samples[i].Server))
		idx[i] = k
		counts[k]++
	}
	// Prefix-sum counts into start offsets, then place each sample's
	// index in its shard's run — stable, so per-server order survives.
	start := int32(0)
	for k := range counts {
		c := counts[k]
		counts[k] = start
		start += c
	}
	for i := range samples {
		if idx[i] < 0 {
			continue
		}
		order[counts[idx[i]]] = int32(i)
		counts[idx[i]]++
	}

	pos := 0
	for k := range w.shards {
		end := int(counts[k]) // counts[k] is now the end offset of run k
		if pos == end {
			continue
		}
		sh := &w.shards[k]
		shardNew := 0
		sh.mu.Lock()
		for _, o := range order[pos:end] {
			if sh.insertLocked(w.Retention, samples[o]) {
				shardNew++
			}
		}
		if shardNew > 0 { // before the unlock, as in insert
			sh.idGen.Add(uint64(shardNew))
			w.serverGen.Add(uint64(shardNew))
		}
		sh.mu.Unlock()
		pos = end
	}

	sc.idx, sc.counts, sc.order = idx, counts, order
	batchScratchPool.Put(sc)
}

// Dropped reports how many samples were rejected or expired.
func (w *Warehouse) Dropped() int {
	total := int(w.droppedMisc.Load())
	for i := range w.shards {
		sh := &w.shards[i]
		sh.mu.Lock()
		total += sh.evicted
		sh.mu.Unlock()
	}
	return total
}

// Servers lists the monitored server IDs in sorted order. The list is
// rebuilt only when a server appears for the first time, and the rebuild
// itself merges per-shard sorted caches, so only shards that actually
// gained a server are rescanned and re-sorted; steady-state calls return
// a copy of the cached slice without taking any shard lock.
func (w *Warehouse) Servers() []trace.ServerID {
	gen := w.serverGen.Load()
	if c := w.serverList.Load(); c != nil && c.gen == gen {
		return slices.Clone(c.ids)
	}
	lists := make([][]trace.ServerID, len(w.shards))
	total := 0
	for i := range w.shards {
		lists[i] = w.shards[i].sortedIDs()
		total += len(lists[i])
	}
	ids := mergeSortedIDs(lists, total)
	// gen was read before the scan, so a server that lands mid-scan may
	// be cached under too old a generation — which only means one extra
	// rebuild later, never a stale hit.
	w.serverList.Store(&serverCache{gen: gen, ids: ids})
	return slices.Clone(ids)
}

// SampleCount reports how many samples are retained for a server.
func (w *Warehouse) SampleCount(id trace.ServerID) int {
	sh := &w.shards[w.shardIndex(id)]
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if st := sh.servers[id]; st != nil {
		return len(st.cpu)
	}
	return 0
}

// HourlySeries aggregates a server's retained samples into hourly averages
// of CPU demand (converted to RPE2 with the given spec) and committed
// memory — the warehouse view the planners consume. epoch anchors hour
// zero. With an hour-aligned epoch the read costs O(occupied hours) off
// the live ingest-time aggregates, independent of sample density.
func (w *Warehouse) HourlySeries(id trace.ServerID, spec trace.Spec, epoch time.Time) (*trace.Series, error) {
	return w.HourlySeriesWindow(id, spec, epoch, 0)
}

// HourlySeriesWindow is HourlySeries restricted to the trailing lastHours
// hours of the aggregate (0 = everything) — the cheap "recent window" read
// sizing advisors issue, without shipping a 30-day series to slice one day.
func (w *Warehouse) HourlySeriesWindow(id trace.ServerID, spec trace.Spec, epoch time.Time, lastHours int) (*trace.Series, error) {
	out, err := w.hours(nil, id, spec, epoch)
	if err != nil {
		return nil, err
	}
	return trace.NewSeries(time.Hour, windowTail(out, lastHours))
}

// hours is a server's whole hourly series, in dst's storage when it is
// large enough.
func (w *Warehouse) hours(dst []trace.Usage, id trace.ServerID, spec trace.Spec, epoch time.Time) ([]trace.Usage, error) {
	sh := &w.shards[w.shardIndex(id)]
	sh.mu.Lock()
	defer sh.mu.Unlock()
	st := sh.servers[id]
	if st == nil || len(st.cpu) == 0 {
		return nil, fmt.Errorf("monitor: no samples for %s", id)
	}
	if spec.CPURPE2 <= 0 {
		return nil, errNoCPURating
	}
	return st.hourly(dst, spec, epoch)
}

// windowTail slices the trailing lastHours entries (0 keeps everything).
func windowTail(out []trace.Usage, lastHours int) []trace.Usage {
	if lastHours > 0 && lastHours < len(out) {
		return out[len(out)-lastHours:]
	}
	return out
}

// CollectSet aggregates every monitored server into a trace set, given each
// server's hardware spec.
func (w *Warehouse) CollectSet(name string, specs map[trace.ServerID]trace.Spec, epoch time.Time) (*trace.Set, error) {
	set := &trace.Set{Name: name}
	for _, id := range w.Servers() {
		spec, ok := specs[id]
		if !ok {
			return nil, fmt.Errorf("monitor: no spec for server %s", id)
		}
		series, err := w.HourlySeries(id, spec, epoch)
		if err != nil {
			return nil, err
		}
		set.Servers = append(set.Servers, &trace.ServerTrace{ID: id, Spec: spec, Series: series})
	}
	if err := set.Validate(); err != nil {
		return nil, err
	}
	return set, nil
}

// Stat summarizes warehouse state for operational visibility.
type Stat struct {
	Servers int
	Samples int
	Dropped int
}

// Stats returns current totals. Counts are gathered shard by shard, so a
// concurrent ingest may straddle the scan; each shard's numbers are
// internally consistent.
func (w *Warehouse) Stats() Stat {
	st := Stat{Dropped: int(w.droppedMisc.Load())}
	for i := range w.shards {
		sh := &w.shards[i]
		sh.mu.Lock()
		st.Servers += len(sh.servers)
		st.Samples += sh.samples
		st.Dropped += sh.evicted
		sh.mu.Unlock()
	}
	return st
}

// WaitForSamples blocks until every listed server has at least n samples or
// the context expires — a convenience for tests and demos that stream over
// real sockets.
func (w *Warehouse) WaitForSamples(ctx context.Context, ids []trace.ServerID, n int) error {
	for {
		ready := true
		for _, id := range ids {
			if w.SampleCount(id) < n {
				ready = false
				break
			}
		}
		if ready {
			return nil
		}
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-time.After(5 * time.Millisecond):
		}
	}
}
