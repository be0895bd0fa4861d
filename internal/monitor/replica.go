package monitor

import (
	"errors"
	"fmt"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"vmwild/internal/trace"
)

// The replica layer is the warehouse's read-path scale-out: immutable
// per-shard snapshots of every server's columns, republished on an
// ingest-count/age cadence and swapped in atomically, so queries serve
// lock-free from the latest snapshot while ingest keeps writing. Hot
// columns are held Gorilla-compressed (delta-of-delta timestamps, XOR
// floats — see internal/trace/codec.go); hourly aggregates are answered
// from copied hour buckets without any decode at all.
//
// The contract is exactness under staleness: a replica answer is
// bit-identical to the live answer over the samples the replica covers —
// the same floating-point sums in the same storage order, through the very
// bucket read and scan the live store calls (shard.go). What a replica may
// lack is the last few seconds of ingest, bounded by ReplicaConfig. Readers
// that need the live edge bypass the layer (the query protocol's
// "consistent" flag).

// Replica cadence defaults: republish a shard once it is 4096 samples
// behind, or after 2 seconds of staleness, whichever comes first.
const (
	DefaultReplicaEverySamples = 4096
	DefaultReplicaMaxAge       = 2 * time.Second
	// DefaultReplicaChunkSamples is the compressed block size. Blocks are
	// the skip unit for range reads and the re-encode unit for incremental
	// publishes, so they stay small.
	DefaultReplicaChunkSamples = 512
)

var errReplicasDisabled = errors.New("monitor: replicas not enabled")

// ReplicaConfig tunes the snapshot replica layer.
type ReplicaConfig struct {
	// EverySamples republishes a shard once it is at least this many
	// samples behind the live shard (0 = DefaultReplicaEverySamples).
	EverySamples int
	// MaxAge republishes a stale shard regardless of sample count — the
	// queryable-staleness bound (0 = DefaultReplicaMaxAge).
	MaxAge time.Duration
	// ChunkSamples is the compressed block size
	// (0 = DefaultReplicaChunkSamples; clamped to trace.MaxChunkSamples).
	ChunkSamples int
	// NoBackground disables the cadence goroutine; the owner republishes
	// explicitly with PublishReplicas. Deterministic tests use this.
	NoBackground bool
}

// replicaStore is one server's published snapshot: compressed hot columns
// plus dense hour buckets, all immutable after publish.
type replicaStore struct {
	count    int
	rewrites uint64 // serverStore.rewrites at publish; gates chunk reuse

	chunkSize    int
	chunks       []*trace.CompressedChunk
	sealed       int // samples covered by the full-chunk prefix
	sealedChunks int // chunks in that prefix (all exactly chunkSize)

	// A regular store's first timestamp and a copy of its settled dense
	// buckets, so the aligned-epoch hourly read costs O(hours) with no
	// decode, through the live store's own bucket math.
	firstNs int64
	buckets []hourAgg

	// raw marks a store served from raw column clones instead of chunks:
	// always when irregular (its timestamps need not fit the delta code),
	// and defensively if a chunk encode ever failed.
	raw       bool
	irregular bool
	rawTS     []time.Time
	rawCPU    []float64
	rawMem    []float64
}

// compressedBytes is the store's hot-column footprint as published.
func (rs *replicaStore) compressedBytes() int64 {
	if rs.raw {
		// 24-byte time.Time plus two float64 columns.
		return int64(rs.count) * (24 + 8 + 8)
	}
	var b int64
	for _, c := range rs.chunks {
		b += int64(c.CompressedBytes())
	}
	return b
}

// replicaShard is one shard's published snapshot generation.
type replicaShard struct {
	mutations uint64 // shard mutation counter captured at publish
	published time.Time
	samples   int
	evicted   int
	servers   map[trace.ServerID]*replicaStore
	ids       []trace.ServerID // sorted

	// seriesCache memoizes marshaled series answers on this snapshot
	// generation. The snapshot is immutable, so an answer computed once is
	// the answer for the generation's whole lifetime — a cache the mutable
	// live shards could never keep. Dropped wholesale with the shard on the
	// next publish.
	cacheMu     sync.Mutex
	seriesCache map[seriesCacheKey]*cachedSeries
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

// maxSeriesCacheEntries bounds one shard generation's cache; past it the
// cache is cleared rather than evicted piecemeal (generations are
// short-lived under any real cadence).
const maxSeriesCacheEntries = 4096

// replicaSet is the warehouse's replica layer: one atomically swapped
// snapshot per shard plus the merged server list and read counters.
type replicaSet struct {
	cfg ReplicaConfig
	w   *Warehouse

	shards []atomic.Pointer[replicaShard]
	ids    atomic.Pointer[[]trace.ServerID]

	publishes     atomic.Int64
	reads         atomic.Int64
	chunksRead    atomic.Int64
	chunksSkipped atomic.Int64
	cacheHits     atomic.Int64
	cacheMisses   atomic.Int64
}

func (r *replicaSet) now() time.Time {
	if r.w.Clock != nil {
		return r.w.Clock()
	}
	return time.Now()
}

// EnableReplicas turns on the snapshot replica layer, publishes an initial
// snapshot of every shard, and (unless cfg.NoBackground) starts the
// cadence goroutine that keeps staleness inside cfg's bounds. Call before
// Listen; Close stops the goroutine. Enabling twice is an error.
func (w *Warehouse) EnableReplicas(cfg ReplicaConfig) error {
	if cfg.EverySamples <= 0 {
		cfg.EverySamples = DefaultReplicaEverySamples
	}
	if cfg.MaxAge <= 0 {
		cfg.MaxAge = DefaultReplicaMaxAge
	}
	if cfg.ChunkSamples <= 0 {
		cfg.ChunkSamples = DefaultReplicaChunkSamples
	}
	if cfg.ChunkSamples > trace.MaxChunkSamples {
		cfg.ChunkSamples = trace.MaxChunkSamples
	}
	r := &replicaSet{
		cfg:    cfg,
		w:      w,
		shards: make([]atomic.Pointer[replicaShard], len(w.shards)),
	}
	if !w.replicas.CompareAndSwap(nil, r) {
		return errors.New("monitor: replicas already enabled")
	}
	r.publishAll()
	if !cfg.NoBackground {
		w.wg.Add(1)
		go r.loop()
	}
	return nil
}

// ReplicasEnabled reports whether the replica layer is on.
func (w *Warehouse) ReplicasEnabled() bool { return w.replicas.Load() != nil }

// PublishReplicas republishes every shard whose live state has changed
// since its last snapshot and returns how many shards were republished.
// The background cadence calls the same machinery; tests and single-writer
// tools call this directly for a deterministic horizon.
func (w *Warehouse) PublishReplicas() int {
	r := w.replicas.Load()
	if r == nil {
		return 0
	}
	return r.publishAll()
}

func (r *replicaSet) publishAll() int {
	now := r.now()
	n := 0
	for k := range r.shards {
		if r.publishShard(k, now) {
			n++
		}
	}
	if n > 0 || r.ids.Load() == nil {
		r.rebuildIDs()
	}
	return n
}

// loop is the cadence goroutine: republish a shard when it falls
// EverySamples behind or its snapshot ages past MaxAge.
func (r *replicaSet) loop() {
	defer r.w.wg.Done()
	tick := r.cfg.MaxAge / 4
	if tick < time.Millisecond {
		tick = time.Millisecond
	}
	if tick > 250*time.Millisecond {
		tick = 250 * time.Millisecond
	}
	t := time.NewTicker(tick)
	defer t.Stop()
	for {
		select {
		case <-r.w.shutdown:
			return
		case <-t.C:
			r.publishDue()
		}
	}
}

func (r *replicaSet) publishDue() {
	now := r.now()
	published := false
	for k := range r.shards {
		rep := r.shards[k].Load()
		if rep == nil {
			if r.publishShard(k, now) {
				published = true
			}
			continue
		}
		lag := r.w.shards[k].mutations.Load() - rep.mutations
		if lag == 0 {
			continue
		}
		if lag >= uint64(r.cfg.EverySamples) || now.Sub(rep.published) >= r.cfg.MaxAge {
			if r.publishShard(k, now) {
				published = true
			}
		}
	}
	if published {
		r.rebuildIDs()
	}
}

// publishShard cuts shard k's snapshot under its lock and swaps it in.
// Unchanged shards are skipped; unchanged stores within a changed shard
// reuse their sealed chunks and re-encode only the tail, so a steady
// in-order ingest pays O(new samples) per publish.
func (r *replicaSet) publishShard(k int, now time.Time) bool {
	sh := &r.w.shards[k]
	old := r.shards[k].Load()
	sh.mu.Lock()
	gen := sh.mutations.Load()
	if old != nil && old.mutations == gen {
		sh.mu.Unlock()
		return false
	}
	next := &replicaShard{
		mutations: gen,
		published: now,
		samples:   sh.samples,
		evicted:   sh.evicted,
		servers:   make(map[trace.ServerID]*replicaStore, len(sh.servers)),
		ids:       make([]trace.ServerID, 0, len(sh.servers)),
	}
	for id := range sh.servers {
		next.ids = append(next.ids, id)
	}
	slices.Sort(next.ids)
	for _, id := range next.ids {
		var prev *replicaStore
		if old != nil {
			prev = old.servers[id]
		}
		next.servers[id] = buildReplicaStore(sh.servers[id], prev, r.cfg.ChunkSamples)
	}
	sh.mu.Unlock()
	r.shards[k].Store(next)
	r.publishes.Add(1)
	return true
}

// buildReplicaStore snapshots one server's columns (caller holds the shard
// lock).
func buildReplicaStore(st *serverStore, old *replicaStore, chunkSize int) *replicaStore {
	n := len(st.cpu)
	rs := &replicaStore{count: n, rewrites: st.rewrites, chunkSize: chunkSize, irregular: st.irregular}
	if st.irregular {
		rs.setRaw(st)
		return rs
	}
	// Settle the live buckets and copy the dense range — the aligned-epoch
	// read serves straight off the copy.
	if n > 0 {
		rs.firstNs = st.ns[0]
		rs.buckets = slices.Clone(st.denseBuckets())
	}
	// Chunk reuse: while no eviction or out-of-order insert has disturbed
	// the column prefix, the previously sealed full chunks still encode
	// exactly the same samples.
	start := 0
	if old != nil && !old.raw && old.rewrites == st.rewrites &&
		old.chunkSize == chunkSize && old.sealed <= n {
		rs.chunks = append(rs.chunks, old.chunks[:old.sealedChunks]...)
		rs.sealed, rs.sealedChunks = old.sealed, old.sealedChunks
		start = old.sealed
	}
	for pos := start; pos < n; pos += chunkSize {
		end := min(pos+chunkSize, n)
		c, err := trace.CompressChunk(st.ns[pos:end], st.cpu[pos:end], st.mem[pos:end])
		if err != nil {
			// Cannot happen — the columns are sorted and indexable — but a
			// replica must degrade to raw clones, never fail reads.
			rs.chunks, rs.sealed, rs.sealedChunks = nil, 0, 0
			rs.setRaw(st)
			return rs
		}
		rs.chunks = append(rs.chunks, c)
		if end-pos == chunkSize {
			rs.sealed = end
			rs.sealedChunks++
		}
	}
	return rs
}

// setRaw serves rs from clones of st's hot columns instead of chunks.
func (rs *replicaStore) setRaw(st *serverStore) {
	rs.raw = true
	rs.rawTS, rs.rawCPU, rs.rawMem = st.times(), slices.Clone(st.cpu), slices.Clone(st.mem)
}

func (r *replicaSet) rebuildIDs() {
	lists := make([][]trace.ServerID, len(r.shards))
	total := 0
	for k := range r.shards {
		if rep := r.shards[k].Load(); rep != nil {
			lists[k] = rep.ids
			total += len(rep.ids)
		}
	}
	ids := mergeSortedIDs(lists, total)
	r.ids.Store(&ids)
}

// ---- replica reads --------------------------------------------------------

// decodeScratch pools the per-read decode buffers so lock-free reads stay
// allocation-light.
type decodeScratch struct {
	nanos []int64
	cpu   []float64
	mem   []float64
}

var decodeScratchPool = sync.Pool{New: func() any { return new(decodeScratch) }}

// usageScratchPool holds hourly() output for callers that encode it and let
// go (seriesJSON, the set op).
var usageScratchPool = sync.Pool{New: func() any { return new([]trace.Usage) }}

func (r *replicaSet) storeFor(id trace.ServerID) *replicaStore {
	rep := r.shards[r.w.shardIndex(id)].Load()
	if rep == nil {
		return nil
	}
	return rep.servers[id]
}

func (r *replicaSet) serverIDs() []trace.ServerID {
	if p := r.ids.Load(); p != nil {
		return *p
	}
	return nil
}

func (r *replicaSet) stats() Stat {
	r.reads.Add(1)
	st := Stat{Dropped: int(r.w.droppedMisc.Load())}
	for k := range r.shards {
		rep := r.shards[k].Load()
		if rep == nil {
			continue
		}
		st.Servers += len(rep.ids)
		st.Samples += rep.samples
		st.Dropped += rep.evicted
	}
	return st
}

// zeroedUsage is n zero samples in dst's storage when it is large enough.
func zeroedUsage(dst []trace.Usage, n int) []trace.Usage {
	out := slices.Grow(dst[:0], n)[:n]
	clear(out)
	return out
}

// hourly is serverStore.hourly over the snapshot: the same bucket read off
// the copied buckets, or the same scan after a full decode, so replica
// answers are bit-identical to live answers over the same samples. The
// result reuses dst's storage when it is large enough (nil allocates). A
// nil rs is a server the snapshot does not hold.
func (rs *replicaStore) hourly(dst []trace.Usage, id trace.ServerID, spec trace.Spec, epoch time.Time, r *replicaSet) ([]trace.Usage, error) {
	if rs == nil || rs.count == 0 {
		return nil, fmt.Errorf("monitor: no samples for %s", id)
	}
	if spec.CPURPE2 <= 0 {
		return nil, errNoCPURating
	}
	if !rs.irregular && bucketEpoch(epoch, rs.firstNs) {
		return bucketUsage(dst, rs.buckets, spec), nil
	}
	if rs.raw {
		return scanHourly(dst, timeColumn(nil, rs.rawTS), rs.rawCPU, rs.rawMem, spec, epoch)
	}
	sc := decodeScratchPool.Get().(*decodeScratch)
	defer decodeScratchPool.Put(sc)
	sc.nanos, sc.cpu, sc.mem = sc.nanos[:0], sc.cpu[:0], sc.mem[:0]
	for _, c := range rs.chunks {
		var err error
		if sc.nanos, sc.cpu, sc.mem, err = c.AppendTo(sc.nanos, sc.cpu, sc.mem); err != nil {
			return nil, err
		}
	}
	r.chunksRead.Add(int64(len(rs.chunks)))
	return scanHourly(dst, timeColumn(sc.nanos, nil), sc.cpu, sc.mem, spec, epoch)
}

func (r *replicaSet) hourlySeries(id trace.ServerID, spec trace.Spec, epoch time.Time, lastHours int) (*trace.Series, error) {
	out, err := r.hours(nil, id, spec, epoch)
	if err != nil {
		return nil, err
	}
	return trace.NewSeries(time.Hour, windowTail(out, lastHours))
}

// hours is a server's whole hourly series off its shard's latest snapshot,
// in dst's storage when it is large enough.
func (r *replicaSet) hours(dst []trace.Usage, id trace.ServerID, spec trace.Spec, epoch time.Time) ([]trace.Usage, error) {
	r.reads.Add(1)
	return r.storeFor(id).hourly(dst, id, spec, epoch, r)
}

// seriesJSON answers a series request as its pre-marshaled response body
// (the bytes after the line's opening brace), memoized on the server's
// shard snapshot. The computation runs against the same snapshot
// generation the cache lives on, so an entry can never mix generations;
// errors are deterministic per generation and cached too.
func (r *replicaSet) seriesJSON(id trace.ServerID, spec trace.Spec, epoch time.Time, lastHours int) ([]byte, error) {
	rep := r.shards[r.w.shardIndex(id)].Load()
	if rep == nil {
		return nil, fmt.Errorf("monitor: no samples for %s", id)
	}
	key := newSeriesKey(id, spec, epoch, lastHours)
	rep.cacheMu.Lock()
	if c, ok := rep.seriesCache[key]; ok {
		rep.cacheMu.Unlock()
		r.cacheHits.Add(1)
		return c.body, c.err
	}
	rep.cacheMu.Unlock()
	r.cacheMisses.Add(1)
	r.reads.Add(1)

	// Compute from rep itself — NOT through storeFor, which could observe
	// a newer generation than the one this entry will be cached on.
	c := &cachedSeries{}
	// The samples only pass through on their way into the body; a fresh
	// slice each would be a quarter of a fleet pull's allocated bytes, and
	// the collector's bill follows the bytes.
	scratch := usageScratchPool.Get().(*[]trace.Usage)
	if out, err := rep.servers[id].hourly(*scratch, id, spec, epoch, r); err != nil {
		c.err = err
	} else {
		c.body = seriesBody(windowTail(out, lastHours))
		*scratch = out
	}
	usageScratchPool.Put(scratch)
	rep.cacheMu.Lock()
	if rep.seriesCache == nil || len(rep.seriesCache) >= maxSeriesCacheEntries {
		rep.seriesCache = make(map[seriesCacheKey]*cachedSeries)
	}
	rep.seriesCache[key] = c
	rep.cacheMu.Unlock()
	return c.body, c.err
}

// seriesJSONPeek returns the memoized response for a series question if
// the current generation has already answered it, without computing on a
// miss. The query server's reader goroutine uses it to answer repeat
// questions inline instead of paying a worker-pool handoff for a lookup.
func (r *replicaSet) seriesJSONPeek(id trace.ServerID, spec trace.Spec, epoch time.Time, lastHours int) ([]byte, error, bool) {
	rep := r.shards[r.w.shardIndex(id)].Load()
	if rep == nil {
		return nil, nil, false
	}
	key := newSeriesKey(id, spec, epoch, lastHours)
	rep.cacheMu.Lock()
	c, ok := rep.seriesCache[key]
	rep.cacheMu.Unlock()
	if !ok {
		return nil, nil, false
	}
	r.cacheHits.Add(1)
	return c.body, c.err, true
}

func (r *replicaSet) sampleCount(id trace.ServerID) int {
	r.reads.Add(1)
	if rs := r.storeFor(id); rs != nil {
		return rs.count
	}
	return 0
}

// RangePoint is one raw hot-column sample as served by the range read.
type RangePoint struct {
	TS  int64   `json:"ts"` // UnixNano
	CPU float64 `json:"cpu"`
	Mem float64 `json:"mem"`
}

// rangeScan is the raw-column range read shared by the live path and the
// raw-replica path: samples with fromNanos <= ts < toNanos, storage order.
func rangeScan(at func(int) time.Time, cpu, mem []float64, fromNanos, toNanos int64) []RangePoint {
	from, to := time.Unix(0, fromNanos), time.Unix(0, toNanos)
	lo := sort.Search(len(cpu), func(i int) bool { return !at(i).Before(from) })
	hi := sort.Search(len(cpu), func(i int) bool { return !at(i).Before(to) })
	if lo >= hi {
		return nil
	}
	out := make([]RangePoint, 0, hi-lo)
	for i := lo; i < hi; i++ {
		out = append(out, RangePoint{TS: at(i).UnixNano(), CPU: cpu[i], Mem: mem[i]})
	}
	return out
}

// Range reads the raw samples with fromNanos <= ts < toNanos from the live
// shards — the exact-read twin of the replica range path.
func (w *Warehouse) Range(id trace.ServerID, fromNanos, toNanos int64) ([]RangePoint, error) {
	sh := &w.shards[w.shardIndex(id)]
	sh.mu.Lock()
	defer sh.mu.Unlock()
	st := sh.servers[id]
	if st == nil || len(st.cpu) == 0 {
		return nil, fmt.Errorf("monitor: no samples for %s", id)
	}
	return rangeScan(timeColumn(st.ns, st.ts), st.cpu, st.mem, fromNanos, toNanos), nil
}

// rangeRead answers a range query from the replica, decoding only the
// chunks whose [first, last] span overlaps the window — the block-skipping
// payoff of small sealed chunks.
func (r *replicaSet) rangeRead(id trace.ServerID, fromNanos, toNanos int64) ([]RangePoint, error) {
	r.reads.Add(1)
	rs := r.storeFor(id)
	if rs == nil || rs.count == 0 {
		return nil, fmt.Errorf("monitor: no samples for %s", id)
	}
	if rs.raw {
		return rangeScan(timeColumn(nil, rs.rawTS), rs.rawCPU, rs.rawMem, fromNanos, toNanos), nil
	}
	var out []RangePoint
	sc := decodeScratchPool.Get().(*decodeScratch)
	defer decodeScratchPool.Put(sc)
	for _, c := range rs.chunks {
		if !c.Overlaps(fromNanos, toNanos) {
			r.chunksSkipped.Add(1)
			continue
		}
		r.chunksRead.Add(1)
		var err error
		sc.nanos, sc.cpu, sc.mem, err = c.AppendTo(sc.nanos[:0], sc.cpu[:0], sc.mem[:0])
		if err != nil {
			return nil, err
		}
		for i, t := range sc.nanos {
			if t >= fromNanos && t < toNanos {
				out = append(out, RangePoint{TS: t, CPU: sc.cpu[i], Mem: sc.mem[i]})
			}
		}
	}
	return out, nil
}

func (r *replicaSet) collectSet(name string, specs map[trace.ServerID]trace.Spec, epoch time.Time) (*trace.Set, error) {
	set := &trace.Set{Name: name}
	for _, id := range r.serverIDs() {
		spec, ok := specs[id]
		if !ok {
			return nil, fmt.Errorf("monitor: no spec for server %s", id)
		}
		series, err := r.hourlySeries(id, spec, epoch, 0)
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

// ---- exported replica reads ----------------------------------------------

// ReplicaServers lists the monitored servers as of the latest snapshots.
func (w *Warehouse) ReplicaServers() ([]trace.ServerID, error) {
	r := w.replicas.Load()
	if r == nil {
		return nil, errReplicasDisabled
	}
	return slices.Clone(r.serverIDs()), nil
}

// ReplicaStats returns warehouse totals as of the latest snapshots.
func (w *Warehouse) ReplicaStats() (Stat, error) {
	r := w.replicas.Load()
	if r == nil {
		return Stat{}, errReplicasDisabled
	}
	return r.stats(), nil
}

// ReplicaSampleCount reports a server's retained samples as of its shard's
// latest snapshot.
func (w *Warehouse) ReplicaSampleCount(id trace.ServerID) (int, error) {
	r := w.replicas.Load()
	if r == nil {
		return 0, errReplicasDisabled
	}
	return r.sampleCount(id), nil
}

// ReplicaHourlySeries is HourlySeries served lock-free from the latest
// snapshot — bit-identical to the live answer over the snapshot's samples.
func (w *Warehouse) ReplicaHourlySeries(id trace.ServerID, spec trace.Spec, epoch time.Time) (*trace.Series, error) {
	return w.ReplicaHourlySeriesWindow(id, spec, epoch, 0)
}

// ReplicaHourlySeriesWindow is HourlySeriesWindow served from the replica.
func (w *Warehouse) ReplicaHourlySeriesWindow(id trace.ServerID, spec trace.Spec, epoch time.Time, lastHours int) (*trace.Series, error) {
	r := w.replicas.Load()
	if r == nil {
		return nil, errReplicasDisabled
	}
	return r.hourlySeries(id, spec, epoch, lastHours)
}

// ReplicaRange is Range served from the replica with block skipping.
func (w *Warehouse) ReplicaRange(id trace.ServerID, fromNanos, toNanos int64) ([]RangePoint, error) {
	r := w.replicas.Load()
	if r == nil {
		return nil, errReplicasDisabled
	}
	return r.rangeRead(id, fromNanos, toNanos)
}

// ReplicaCollectSet is CollectSet served from the replica.
func (w *Warehouse) ReplicaCollectSet(name string, specs map[trace.ServerID]trace.Spec, epoch time.Time) (*trace.Set, error) {
	r := w.replicas.Load()
	if r == nil {
		return nil, errReplicasDisabled
	}
	return r.collectSet(name, specs, epoch)
}

// ---- replica metrics ------------------------------------------------------

// ReplicaShardMetrics is one shard's replica staleness.
type ReplicaShardMetrics struct {
	// LagSamples is how many samples the live shard is ahead of the
	// snapshot; AgeMs how long ago the snapshot was published.
	LagSamples int64 `json:"lagSamples"`
	AgeMs      int64 `json:"ageMs"`
	Samples    int   `json:"samples"`
	Servers    int   `json:"servers"`
}

// ReplicaMetrics is the replica layer's operational counter set.
type ReplicaMetrics struct {
	Enabled bool `json:"enabled"`
	// Publishes counts shard snapshot publishes; Reads the queries served
	// from replicas.
	Publishes int64 `json:"publishes"`
	Reads     int64 `json:"reads"`
	// ChunksRead / ChunksSkipped count compressed blocks decoded vs
	// skipped by range-read block skipping.
	ChunksRead    int64 `json:"chunksRead"`
	ChunksSkipped int64 `json:"chunksSkipped"`
	// SeriesCacheHits / SeriesCacheMisses count series answers served from
	// the per-generation marshaled-response cache vs computed fresh.
	SeriesCacheHits   int64 `json:"seriesCacheHits"`
	SeriesCacheMisses int64 `json:"seriesCacheMisses"`
	// MaxLagSamples / OldestAgeMs are the worst staleness across shards.
	MaxLagSamples int64 `json:"maxLagSamples"`
	OldestAgeMs   int64 `json:"oldestAgeMs"`
	// Samples is the snapshot sample total; CompressedBytes its hot-column
	// footprint and RawBytes what the same columns cost uncompressed.
	Samples         int64 `json:"samples"`
	CompressedBytes int64 `json:"compressedBytes"`
	RawBytes        int64 `json:"rawBytes"`

	Shards []ReplicaShardMetrics `json:"shards,omitempty"`
}

// replicaMetrics assembles the layer's metrics (nil-safe: disabled layer
// reports Enabled=false only).
func (w *Warehouse) replicaMetrics() *ReplicaMetrics {
	r := w.replicas.Load()
	if r == nil {
		return nil
	}
	now := r.now()
	m := &ReplicaMetrics{
		Enabled:           true,
		Publishes:         r.publishes.Load(),
		Reads:             r.reads.Load(),
		ChunksRead:        r.chunksRead.Load(),
		ChunksSkipped:     r.chunksSkipped.Load(),
		SeriesCacheHits:   r.cacheHits.Load(),
		SeriesCacheMisses: r.cacheMisses.Load(),
		Shards:            make([]ReplicaShardMetrics, len(r.shards)),
	}
	for k := range r.shards {
		rep := r.shards[k].Load()
		if rep == nil {
			continue
		}
		lag := int64(r.w.shards[k].mutations.Load() - rep.mutations)
		age := now.Sub(rep.published).Milliseconds()
		m.Shards[k] = ReplicaShardMetrics{
			LagSamples: lag,
			AgeMs:      age,
			Samples:    rep.samples,
			Servers:    len(rep.ids),
		}
		m.MaxLagSamples = max(m.MaxLagSamples, lag)
		m.OldestAgeMs = max(m.OldestAgeMs, age)
		m.Samples += int64(rep.samples)
		for _, rs := range rep.servers {
			m.CompressedBytes += rs.compressedBytes()
			m.RawBytes += int64(rs.count) * (24 + 8 + 8)
		}
	}
	return m
}
