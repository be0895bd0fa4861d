package monitor

import (
	"sort"
	"time"

	"vmwild/internal/trace"
)

const hourNanos = int64(time.Hour)

// hourAgg is one live hour bucket: running sums over the bucket's samples
// in storage order. The invariant the equivalence wall enforces is that
// (sumPct, sumMem, n) always equal a left-to-right recompute over the
// bucket's retained samples, so HourlySeries can read the buckets instead
// of rescanning history and still produce bit-identical output.
type hourAgg struct {
	sumPct float64
	sumMem float64
	n      int
}

// sampleRest holds the Table 1 metrics that are retained for snapshot
// fidelity but never touched by aggregation or eviction — keeping them out
// of the hot columns keeps those cache-dense.
type sampleRest struct {
	privPct, userPct, procQueue, pagesPerSec  float64
	memPct, dasdFreePct, tcpConns, tcpConnsV6 float64
}

// serverStore is one server's retained history as struct-of-arrays
// columns: timestamps and the two aggregated metrics are the hot columns,
// everything else rides in rest. The columns are kept sorted by timestamp,
// exactly like the pre-shard []Sample storage.
type serverStore struct {
	ts   []time.Time
	cpu  []float64 // TotalProcessorPct
	mem  []float64 // MemCommittedMB
	rest []sampleRest

	hours map[int64]*hourAgg
	// dirty holds hour buckets invalidated by an out-of-order insert or a
	// partial eviction. They are recomputed lazily at query time, so a
	// steady eviction cadence costs O(1) per insert instead of re-summing
	// the boundary hour every time.
	dirty map[int64]struct{}
	// lastHour/lastBucket memoize the bucket of the most recent in-order
	// append — the overwhelmingly common case — to skip the map lookup.
	lastHour   int64
	lastBucket *hourAgg
	// wildTimes marks that a timestamp outside the int64-nanosecond-safe
	// range was ingested; hour indexing is no longer exact, so queries
	// take the scan path and the buckets stop being maintained.
	wildTimes bool
	// rewrites counts the operations that disturb the column prefix — an
	// out-of-order insertAt or an eviction shift. The replica publisher
	// reuses its previously sealed compressed chunks only while this is
	// unchanged; a pure in-order append never bumps it, so steady ingest
	// republishes in O(new samples).
	rewrites uint64
}

func newServerStore() *serverStore {
	return &serverStore{hours: make(map[int64]*hourAgg)}
}

// hourIndex is the absolute hour bucket of t (floor division, so it is
// monotone in t). Only meaningful when timeIndexable(t).
func hourIndex(t time.Time) int64 {
	n := t.UnixNano()
	h := n / hourNanos
	if n%hourNanos < 0 {
		h--
	}
	return h
}

// The instants bracketing the hour-indexable range; see timeIndexable.
var (
	minIndexable = time.Date(1700, 1, 1, 0, 0, 0, 0, time.UTC)
	maxIndexable = time.Date(2201, 1, 1, 0, 0, 0, 0, time.UTC)
)

// timeIndexable reports whether t is comfortably inside the range where
// UnixNano arithmetic cannot overflow. The bounds are compared as
// instants (cheap) rather than via Year() (a full civil-date
// decomposition on the ingest hot path).
func timeIndexable(t time.Time) bool {
	return !t.Before(minIndexable) && t.Before(maxIndexable)
}

func restOf(s Sample) sampleRest {
	return sampleRest{
		privPct:     s.PrivilegedPct,
		userPct:     s.UserPct,
		procQueue:   s.ProcQueueLength,
		pagesPerSec: s.PagesPerSec,
		memPct:      s.MemCommittedPct,
		dasdFreePct: s.DASDFreePct,
		tcpConns:    s.TCPConns,
		tcpConnsV6:  s.TCPConnsV6,
	}
}

// sampleAt reassembles the i-th retained sample.
func (st *serverStore) sampleAt(id trace.ServerID, i int) Sample {
	r := st.rest[i]
	return Sample{
		Server:            id,
		Timestamp:         st.ts[i],
		TotalProcessorPct: st.cpu[i],
		PrivilegedPct:     r.privPct,
		UserPct:           r.userPct,
		ProcQueueLength:   r.procQueue,
		PagesPerSec:       r.pagesPerSec,
		MemCommittedMB:    st.mem[i],
		MemCommittedPct:   r.memPct,
		DASDFreePct:       r.dasdFreePct,
		TCPConns:          r.tcpConns,
		TCPConnsV6:        r.tcpConnsV6,
	}
}

func (st *serverStore) appendSample(s Sample) {
	st.ts = append(st.ts, s.Timestamp)
	st.cpu = append(st.cpu, s.TotalProcessorPct)
	st.mem = append(st.mem, s.MemCommittedMB)
	st.rest = append(st.rest, restOf(s))
}

func (st *serverStore) insertAt(pos int, s Sample) {
	st.rewrites++
	st.ts = append(st.ts, time.Time{})
	copy(st.ts[pos+1:], st.ts[pos:])
	st.ts[pos] = s.Timestamp
	st.cpu = append(st.cpu, 0)
	copy(st.cpu[pos+1:], st.cpu[pos:])
	st.cpu[pos] = s.TotalProcessorPct
	st.mem = append(st.mem, 0)
	copy(st.mem[pos+1:], st.mem[pos:])
	st.mem[pos] = s.MemCommittedMB
	st.rest = append(st.rest, sampleRest{})
	copy(st.rest[pos+1:], st.rest[pos:])
	st.rest[pos] = restOf(s)
}

// insert stores one validated sample in timestamp order (a late arrival
// lands after every equal-or-earlier timestamp, matching the old bubble
// insert) and keeps the hour buckets in lockstep: the common in-order
// append is a running-sum update, an out-of-order arrival marks its
// bucket dirty for a lazy left-to-right recompute at query time, so the
// storage-order-sum invariant survives either way.
func (st *serverStore) insert(s Sample) {
	if st.wildTimes || !timeIndexable(s.Timestamp) {
		st.insertWild(s)
		return
	}
	n := len(st.ts)
	if n == 0 || !s.Timestamp.Before(st.ts[n-1]) {
		st.appendSample(s)
		h := hourIndex(s.Timestamp)
		b := st.lastBucket
		if b == nil || h != st.lastHour {
			b = st.hours[h]
			if b == nil {
				b = &hourAgg{}
				st.hours[h] = b
			}
			st.lastHour, st.lastBucket = h, b
		}
		b.sumPct += s.TotalProcessorPct
		b.sumMem += s.MemCommittedMB
		b.n++
		return
	}
	pos := sort.Search(n, func(i int) bool { return st.ts[i].After(s.Timestamp) })
	st.insertAt(pos, s)
	st.markDirty(hourIndex(s.Timestamp))
}

// markDirty queues bucket h for recomputation before the next bucket read.
func (st *serverStore) markDirty(h int64) {
	if st.dirty == nil {
		st.dirty = make(map[int64]struct{})
	}
	st.dirty[h] = struct{}{}
}

// flushDirty restores the storage-order-sum invariant for every queued
// bucket. Called with no pending dirty hours it costs nothing.
func (st *serverStore) flushDirty() {
	if len(st.dirty) == 0 {
		return
	}
	for h := range st.dirty {
		st.recomputeHour(h)
	}
	clear(st.dirty)
}

func (st *serverStore) insertWild(s Sample) {
	st.wildTimes = true
	n := len(st.ts)
	if n == 0 || !s.Timestamp.Before(st.ts[n-1]) {
		st.appendSample(s)
		return
	}
	pos := sort.Search(n, func(i int) bool { return st.ts[i].After(s.Timestamp) })
	st.insertAt(pos, s)
}

// recomputeHour rebuilds bucket h from the retained samples, left to
// right, restoring the storage-order-sum invariant after an out-of-order
// insert or a partial eviction.
func (st *serverStore) recomputeHour(h int64) {
	start := time.Unix(0, h*hourNanos)
	end := time.Unix(0, (h+1)*hourNanos)
	lo := sort.Search(len(st.ts), func(i int) bool { return !st.ts[i].Before(start) })
	hi := sort.Search(len(st.ts), func(i int) bool { return !st.ts[i].Before(end) })
	if lo == hi {
		delete(st.hours, h)
		return
	}
	var sp, sm float64
	for i := lo; i < hi; i++ {
		sp += st.cpu[i]
		sm += st.mem[i]
	}
	b := st.hours[h]
	if b == nil {
		b = &hourAgg{}
		st.hours[h] = b
	}
	b.sumPct, b.sumMem, b.n = sp, sm, hi-lo
}

// evict drops the prefix strictly older than cutoff and reports how many
// samples went. Buckets fully covered by the evicted prefix are deleted;
// the boundary bucket (evicted in front, survivors behind) is recomputed.
func (st *serverStore) evict(cutoff time.Time) int {
	drop := 0
	for drop < len(st.ts) && st.ts[drop].Before(cutoff) {
		drop++
	}
	if drop == 0 {
		return 0
	}
	st.rewrites++
	if st.wildTimes {
		st.ts = st.ts[drop:]
		st.cpu = st.cpu[drop:]
		st.mem = st.mem[drop:]
		st.rest = st.rest[drop:]
		return drop
	}
	last := hourIndex(st.ts[drop-1])
	for i := 0; i < drop; i++ {
		if h := hourIndex(st.ts[i]); h != last {
			delete(st.hours, h)
			delete(st.dirty, h)
		}
	}
	st.ts = st.ts[drop:]
	st.cpu = st.cpu[drop:]
	st.mem = st.mem[drop:]
	st.rest = st.rest[drop:]
	// The boundary bucket (evicted in front, possibly survivors behind) is
	// recomputed lazily: a steady eviction cadence marks the same hour over
	// and over, and the query pays for one recompute instead of every
	// insert paying for the whole boundary hour.
	st.markDirty(last)
	return drop
}

// hourly aggregates the retained samples for one spec and epoch. With an
// hour-aligned epoch and no pre-epoch samples it is an O(occupied-hours)
// read of the live buckets; otherwise it falls back to the pre-shard
// scan-and-bucket algorithm, bit for bit. The result reuses dst's storage
// when it is large enough (nil allocates).
func (st *serverStore) hourly(dst []trace.Usage, spec trace.Spec, epoch time.Time) ([]trace.Usage, error) {
	n := len(st.ts)
	if !st.wildTimes && timeIndexable(epoch) && epoch.UnixNano()%hourNanos == 0 && !st.ts[0].Before(epoch) {
		st.flushDirty()
		firstH, lastH := hourIndex(st.ts[0]), hourIndex(st.ts[n-1])
		out := zeroedUsage(dst, int(lastH-firstH+1))
		for h, b := range st.hours {
			if b.n == 0 {
				continue
			}
			nn := float64(b.n)
			out[h-firstH] = trace.Usage{CPU: b.sumPct / nn / 100 * spec.CPURPE2, Mem: b.sumMem / nn}
		}
		return out, nil
	}

	first := int(st.ts[0].Sub(epoch) / time.Hour)
	last := int(st.ts[n-1].Sub(epoch) / time.Hour)
	if first < 0 {
		return nil, errPrecedeEpoch
	}
	type bucket struct {
		cpu, mem float64
		n        int
	}
	buckets := make([]bucket, last-first+1)
	for i := 0; i < n; i++ {
		j := int(st.ts[i].Sub(epoch)/time.Hour) - first
		buckets[j].cpu += st.cpu[i] / 100 * spec.CPURPE2
		buckets[j].mem += st.mem[i]
		buckets[j].n++
	}
	out := zeroedUsage(dst, len(buckets))
	for i, b := range buckets {
		if b.n > 0 {
			out[i] = trace.Usage{CPU: b.cpu / float64(b.n), Mem: b.mem / float64(b.n)}
		}
	}
	return out, nil
}
