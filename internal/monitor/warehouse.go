package monitor

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"net"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"vmwild/internal/fsx"
	"vmwild/internal/trace"
	"vmwild/internal/wal"
)

// DefaultMaxLineBytes bounds one frame on an ingestion connection and one
// JSON line on a query connection. A full frame of samples is about 50 KB;
// anything near this limit is garbage or an attack, and the connection is
// dropped rather than buffered without bound.
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

// laneRun is one shard's share of a batch: the samples at idx, in arrival
// order. recs, when non-nil, holds every sample's record bytes as they
// arrived in a frame, so the journal copies them rather than encoding
// them again.
type laneRun struct {
	samples []Sample
	recs    [][]byte
	idx     []int32
}

// firstOnly is the index list of a run of one.
var firstOnly = []int32{0}

// journalFn is the write-ahead hook: it makes lane's run durable and then
// inserts it (see WarehouseLog.journal). It is stored behind an atomic
// pointer so the ingest hot path reads it without a lock.
type journalFn func(lane int, r laneRun) error

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
	// mutations counts every insert into this shard, evictions and late
	// samples included (bumped under mu, read without it): the shard's
	// generation, which keys memo.
	mutations atomic.Uint64
	memo      seriesMemo
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

// Warehouse is the central monitoring store: it accepts acked binary
// sample frames over TCP (envelope.go), retains them under a retention
// policy, and aggregates them into the hourly-average series
// consolidation planning consumes. Storage is sharded by ServerID hash so
// concurrent agents and query clients do not contend on one lock.
type Warehouse struct {
	// Retention drops samples older than this relative to the newest
	// sample of the same server (0 keeps everything). The paper's
	// planners use the most recent 30 days.
	Retention time.Duration
	// ReadTimeout severs an agent connection that stays silent longer
	// than this (0 disables). Agents reconnect with backoff, so a hung
	// peer costs a file descriptor for at most one timeout.
	ReadTimeout time.Duration
	// MaxLineBytes bounds one frame (default DefaultMaxLineBytes); a
	// connection sending a larger one is closed, as is one sending a
	// malformed frame of any size.
	MaxLineBytes int
	// WriteTimeout bounds each frame acknowledgment write (0 falls
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
	droppedMisc atomic.Int64 // invalid or journal-failed samples
	journalErrs atomic.Int64

	// diskDegraded latches when the journal reports the disk is full or
	// poisoned: network ingest sheds (counted in shedDisk) while queries
	// keep being served, until ResumeIngest. Latched rather than probed so
	// the warehouse fails a bounded number of journal writes, not one per
	// arriving sample.
	diskDegraded atomic.Bool
	shedDisk     atomic.Int64 // samples shed by a failed journal append or while disk-degraded

	limiter       atomic.Pointer[tokenBucket]
	shedIngest    atomic.Int64 // network samples refused by the limiter
	ackedSamples  atomic.Int64 // samples acked as admitted
	corruptFrames atomic.Int64 // frames rejected by magic, CRC, decode or truncation
	slowClients   atomic.Int64 // connections cut on a stalled ack write

	ackMu   sync.Mutex
	lastAck map[string]ackResult // per-agent last frame result, for exactly-once retries

	serverGen  atomic.Uint64 // bumped after a new server's map insert
	serverList atomic.Pointer[serverCache]

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
	// One frame per token, bounded by maxLine: an oversized frame ends
	// the connection instead of growing the buffer without bound.
	sc := bufio.NewScanner(conn)
	// Scanner treats max(cap(buf), limit) as the token bound, so the
	// initial buffer must not exceed the configured limit. A full frame
	// runs to ~50 KiB, so starting at 64 KiB skips the grow-and-copy
	// ladder on every connection.
	sc.Buffer(make([]byte, 0, min(64*1024, maxLine)), maxLine)
	sc.Split(splitFrame(maxLine))
	// Server IDs repeat on every sample of a connection; interning them
	// makes the steady-state decode allocation-free per sample.
	intern := make(map[string]trace.ServerID, 16)
	f := batchPool.Get().(*frameBatch)
	defer func() {
		// Drop the references into this connection's read buffer.
		clear(f.recs[:cap(f.recs)])
		batchPool.Put(f)
	}()
	var ack []byte
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
		// unseen, and the frame in hand has been finished and acked.
		select {
		case <-w.shutdown:
			return
		default:
		}
		if !sc.Scan() {
			// EOF, read timeout, a frame beyond MaxLineBytes, or a
			// malformed one.
			if err := sc.Err(); err == errFrameMagic || err == errFrameTruncated {
				w.corruptFrames.Add(1)
			}
			return
		}
		// A frame that fails its CRC or decode is refused and the
		// connection closed, so the sender retries the whole frame
		// instead of the server trusting a mangled one.
		if err := f.decode(sc.Bytes(), intern); err != nil {
			w.corruptFrames.Add(1)
			return
		}
		res := w.admitFrame(f)
		if err := conn.SetWriteDeadline(time.Now().Add(writeTimeout(w.WriteTimeout))); err != nil {
			w.slowClients.Add(1)
			return
		}
		ack = appendAck(ack[:0], res)
		if _, err := conn.Write(ack); err != nil {
			// The samples are in; the ack is lost. The sender retries the
			// seq and the dedup map replays this exact ack.
			w.slowClients.Add(1)
			return
		}
	}
}

// SetIngestLimit installs (or with burst <= 0 removes) the token-bucket
// admission limiter on the network ingest paths: rate samples per second
// refilling up to burst. rate == 0 with a positive burst freezes the
// budget — exactly burst samples admitted, ever — which makes shed counts
// deterministic for the chaos wall. In-process Ingest/IngestBatch calls,
// checkpoint restore and journal replay are never limited: the limiter
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
		// Senders see shed == len(batch) and hold their data.
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

// admitFrame admits and stores one decoded frame and returns its ack.
// Exactly-once: a duplicate sequence re-acks the ORIGINAL counts without
// touching storage, so a retry after a lost ack neither double-ingests nor
// double-counts. The map is per-agent, and the sender never advances seq
// until the previous one is acked.
func (w *Warehouse) admitFrame(f *frameBatch) ackResult {
	w.ackMu.Lock()
	defer w.ackMu.Unlock()
	if res, replay := w.lastAck[f.agent]; replay && res.seq == f.seq {
		return res
	}
	granted := w.admit(f.samples)
	// The ack may only claim what the journal actually made durable: a
	// lane append that fails sheds its run and every later one instead of
	// acking samples that were never stored.
	ok := w.ingestRuns(f.samples[:granted], f.recs[:granted])
	w.ackedSamples.Add(int64(ok))
	res := ackResult{seq: f.seq, ok: ok, shed: len(f.samples) - ok}
	w.lastAck[f.agent] = res
	return res
}

// Close stops the listener, drains the agent connections and waits for
// their handlers to end. Each handler finishes — and acks — the frame it
// is serving, then stops reading, so every frame a sender wrote is
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

// setJournal routes every accepted run through j before it becomes
// visible — the write-ahead hook behind WarehouseLog. The journal is
// responsible for making the run durable and then inserting it; a journal
// error drops the run, because a sample that cannot be made durable must
// not be acknowledged. Set it before any ingestion begins.
func (w *Warehouse) setJournal(j journalFn) {
	w.journal.Store(&j)
}

// JournalErrors reports how many journal writes failed. A failed single
// sample is also counted in Dropped; a failed run's samples are counted in
// ShedDisk.
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
		if err := journalOne(*j, w.shardIndex(s.Server), s); err != nil {
			w.droppedMisc.Add(1)
			w.journalErrs.Add(1)
			w.noteJournalError(err)
			return err
		}
		return nil
	}
	one := [1]Sample{s}
	w.insertRun(w.shardIndex(s.Server), laneRun{samples: one[:], idx: firstOnly})
	return nil
}

// journalOne journals s as a run of one; apart from IngestDurable so that
// only the journaled path moves s to the heap.
func journalOne(j journalFn, lane int, s Sample) error {
	return j(lane, laneRun{samples: []Sample{s}, idx: firstOnly})
}

// insertRun adds a run of validated samples to shard k under one
// acquisition of its lock and the retention policy. A new server's
// generation bumps land before the lock is released, so whoever sees its
// samples also sees it in Servers().
func (w *Warehouse) insertRun(k int, r laneRun) {
	sh := &w.shards[k]
	shardNew := 0
	sh.mu.Lock()
	for _, o := range r.idx {
		if sh.insertLocked(w.Retention, r.samples[o]) {
			shardNew++
		}
	}
	if shardNew > 0 {
		sh.idGen.Add(uint64(shardNew))
		w.serverGen.Add(uint64(shardNew))
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

// batchScratch holds the counting-sort workspace ingestRuns reuses across
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

// ingestRuns stores samples grouped by shard: a stable counting sort puts
// each shard's valid samples in one run, in arrival order, and each run
// lands under one shard-lock acquisition — through the journal, as one WAL
// append per lane, when one is attached. recs is nil or holds each
// sample's record bytes. It returns how many samples count as accepted:
// those of every run that landed plus the invalid ones, which are dropped
// and counted as on every path. When a lane's append fails, that run and
// every later one are shed — counted in shedDisk and per shard, never
// probing the broken disk once per sample — and the error latches degraded
// mode when it is typed as disk-full or poisoned storage.
func (w *Warehouse) ingestRuns(samples []Sample, recs [][]byte) int {
	if len(samples) == 0 {
		return 0
	}
	sc := batchScratchPool.Get().(*batchScratch)
	defer batchScratchPool.Put(sc)
	idx := growInt32(sc.idx, len(samples))
	counts := growInt32(sc.counts, len(w.shards))
	clear(counts)
	order := growInt32(sc.order, len(samples))
	sc.idx, sc.counts, sc.order = idx, counts, order

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
	valid := int(start)
	for i := range samples {
		if idx[i] < 0 {
			continue
		}
		order[counts[idx[i]]] = int32(i)
		counts[idx[i]]++
	}

	j := w.journal.Load()
	pos := 0
	for k := range w.shards {
		end := int(counts[k]) // counts[k] is now the end offset of run k
		if pos == end {
			continue
		}
		r := laneRun{samples: samples, recs: recs, idx: order[pos:end]}
		if j == nil {
			w.insertRun(k, r)
		} else if err := (*j)(k, r); err != nil {
			w.journalErrs.Add(1)
			w.noteJournalError(err)
			for _, o := range order[pos:valid] {
				w.shards[idx[o]].shed.Add(1)
			}
			w.shedDisk.Add(int64(valid - pos))
			return len(samples) - (valid - pos)
		}
		pos = end
	}
	return len(samples)
}

// maxJournalRun bounds how many samples one IngestBatch pass hands the
// journal, so a lane's WAL record stays far below wal.MaxRecordBytes
// however large the in-process batch.
const maxJournalRun = 64 * batchChunk

// IngestBatch stores a batch of samples with one shard-lock acquisition
// per touched shard — and, with a journal attached, one WAL append per
// touched lane — grouping samples by shard with a counting sort that
// preserves arrival order within each server. A failed append sheds the
// rest of the pass as ingestRuns describes.
func (w *Warehouse) IngestBatch(samples []Sample) {
	if w.journal.Load() == nil {
		w.ingestRuns(samples, nil)
		return
	}
	for len(samples) > 0 {
		n := min(len(samples), maxJournalRun)
		w.ingestRuns(samples[:n], nil)
		samples = samples[n:]
	}
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
	out, err := w.hours(nil, id, spec, epoch, lastHours)
	if err != nil {
		return nil, err
	}
	return trace.NewSeries(time.Hour, out)
}

// hours is a server's hourly series, its trailing lastHours hours (0 =
// all), in dst's storage when it is large enough.
func (w *Warehouse) hours(dst []trace.Usage, id trace.ServerID, spec trace.Spec, epoch time.Time, lastHours int) ([]trace.Usage, error) {
	sh := &w.shards[w.shardIndex(id)]
	sh.mu.Lock()
	defer sh.mu.Unlock()
	return sh.hoursLocked(dst, id, spec, epoch, lastHours)
}

// hoursLocked is hours for a caller that holds sh.mu.
func (sh *shard) hoursLocked(dst []trace.Usage, id trace.ServerID, spec trace.Spec, epoch time.Time, lastHours int) ([]trace.Usage, error) {
	st := sh.servers[id]
	if st == nil || len(st.cpu) == 0 {
		return nil, fmt.Errorf("monitor: no samples for %s", id)
	}
	if spec.CPURPE2 <= 0 {
		return nil, errNoCPURating
	}
	return st.hourly(dst, spec, epoch, lastHours)
}

// usageScratchPool holds hourly() output for callers that encode it and let
// go (seriesJSON, the set op).
var usageScratchPool = sync.Pool{New: func() any { return new([]trace.Usage) }}

// seriesMemo memoizes marshaled series answers on one shard generation:
// an answer computed at generation gen is the answer for as long as the
// shard's mutation counter stays there, and every entry in m was
// computed at gen. Planners pull the same fleet every interval, so a
// repeat question skips the aggregation and the encode.
type seriesMemo struct {
	mu  sync.Mutex
	gen uint64
	m   map[seriesCacheKey]*cachedSeries
}

// seriesCacheKey identifies one series question exactly: server, spec, the
// precise epoch instant (second + intra-second nanos, overflow-proof for
// wild epochs), and the window.
type seriesCacheKey struct {
	id        trace.ServerID
	cpuRPE2   float64
	memMB     float64
	epochSec  int64
	epochNano int
	lastHours int
}

func newSeriesKey(id trace.ServerID, spec trace.Spec, epoch time.Time, lastHours int) seriesCacheKey {
	return seriesCacheKey{id, spec.CPURPE2, spec.MemMB, epoch.Unix(), epoch.Nanosecond(), lastHours}
}

// cachedSeries is one memoized answer: the response line's body — the
// bytes of {"ok":true,"usage":"..."} after the opening brace (seriesBody),
// so the writer can splice a request id in front without re-encoding — or
// the deterministic error the computation produced.
type cachedSeries struct {
	body []byte
	err  error
}

// maxSeriesCacheEntries bounds one generation's memo; past it the memo is
// cleared rather than evicted piecemeal.
const maxSeriesCacheEntries = 4096

// peek returns key's answer if it was computed at generation gen.
func (m *seriesMemo) peek(gen uint64, key seriesCacheKey) (*cachedSeries, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if gen != m.gen {
		return nil, false
	}
	c, ok := m.m[key]
	return c, ok
}

// store records key's answer computed at generation gen. An answer older
// than the memo's generation is dropped; a newer one starts a new memo.
func (m *seriesMemo) store(gen uint64, key seriesCacheKey, c *cachedSeries) {
	m.mu.Lock()
	defer m.mu.Unlock()
	switch {
	case gen < m.gen:
		return
	case gen > m.gen || m.m == nil || len(m.m) >= maxSeriesCacheEntries:
		m.gen, m.m = gen, make(map[seriesCacheKey]*cachedSeries)
	}
	m.m[key] = c
}

// seriesJSON answers a series question as its response body (seriesBody),
// memoized on the server's shard generation. The generation is read under
// the shard lock the computation holds, so an entry never mixes
// generations; errors are deterministic per generation and memoized too.
func (w *Warehouse) seriesJSON(id trace.ServerID, spec trace.Spec, epoch time.Time, lastHours int) ([]byte, error) {
	if c, ok := w.seriesJSONPeek(id, spec, epoch, lastHours); ok {
		return c.body, c.err
	}
	sh := &w.shards[w.shardIndex(id)]
	// The samples only pass through on their way into the body; a fresh
	// slice each would be a quarter of a fleet pull's allocated bytes.
	scratch := usageScratchPool.Get().(*[]trace.Usage)
	defer usageScratchPool.Put(scratch)
	sh.mu.Lock()
	gen := sh.mutations.Load()
	out, err := sh.hoursLocked(*scratch, id, spec, epoch, lastHours)
	sh.mu.Unlock()
	c := &cachedSeries{err: err}
	if err == nil {
		c.body = seriesBody(out)
		*scratch = out
	}
	sh.memo.store(gen, newSeriesKey(id, spec, epoch, lastHours), c)
	return c.body, c.err
}

// seriesJSONPeek returns the memoized answer to a series question if the
// shard's current generation has one, without computing on a miss.
func (w *Warehouse) seriesJSONPeek(id trace.ServerID, spec trace.Spec, epoch time.Time, lastHours int) (*cachedSeries, bool) {
	sh := &w.shards[w.shardIndex(id)]
	return sh.memo.peek(sh.mutations.Load(), newSeriesKey(id, spec, epoch, lastHours))
}

// RangePoint is one raw hot-column sample as served by the range read.
type RangePoint struct {
	TS  int64   `json:"ts"` // UnixNano
	CPU float64 `json:"cpu"`
	Mem float64 `json:"mem"`
}

// Range reads a server's raw samples with fromNanos <= ts < toNanos, in
// storage order.
func (w *Warehouse) Range(id trace.ServerID, fromNanos, toNanos int64) ([]RangePoint, error) {
	sh := &w.shards[w.shardIndex(id)]
	sh.mu.Lock()
	defer sh.mu.Unlock()
	st := sh.servers[id]
	if st == nil || len(st.cpu) == 0 {
		return nil, fmt.Errorf("monitor: no samples for %s", id)
	}
	at := timeColumn(st.ns, st.ts)
	from, to := time.Unix(0, fromNanos), time.Unix(0, toNanos)
	lo := sort.Search(len(st.cpu), func(i int) bool { return !at(i).Before(from) })
	hi := sort.Search(len(st.cpu), func(i int) bool { return !at(i).Before(to) })
	if lo >= hi {
		return nil, nil
	}
	out := make([]RangePoint, 0, hi-lo)
	for i := lo; i < hi; i++ {
		out = append(out, RangePoint{TS: at(i).UnixNano(), CPU: st.cpu[i], Mem: st.mem[i]})
	}
	return out, nil
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
