package monitor

import (
	"math"
	"slices"
	"sort"
	"time"

	"vmwild/internal/trace"
)

const hourNanos = int64(time.Hour)

// maxDenseHours bounds a store's dense bucket range (about 7.5 years). A
// sample that would stretch the range past it makes the store irregular
// instead of allocating buckets for the gap.
const maxDenseHours = 1 << 16

// hourAgg is one hour bucket: running sums over the bucket's samples in
// storage order. The invariant the equivalence wall enforces is that a
// clean bucket's (sumPct, sumMem, n) equal a left-to-right recompute over
// its retained samples, so HourlySeries can read the buckets instead of
// rescanning history and still produce bit-identical output. An
// out-of-order insert or a partial eviction marks the bucket dirty, and
// the next read recomputes it. n is an int32 so that a bucket takes 24
// bytes; one server's hour never holds 2^31 samples.
type hourAgg struct {
	sumPct float64
	sumMem float64
	n      int32
	dirty  bool
}

// sampleRest holds the Table 1 metrics that are retained for snapshot
// fidelity but never touched by aggregation or eviction — keeping them out
// of the hot columns keeps those cache-dense.
type sampleRest struct {
	privPct, userPct, procQueue, pagesPerSec  float64
	memPct, dasdFreePct, tcpConns, tcpConnsV6 float64
}

// serverStore is one server's retained history as struct-of-arrays
// columns sorted by timestamp: the time column and the two aggregated
// metrics are the hot columns, everything else rides in rest.
//
// A regular store keeps its times as Unix nanoseconds in ns and its hour
// buckets densely over the occupied hours [firstH, firstH+len(buckets)).
// Zone offsets ride beside the times: off while every sample shares one,
// and a per-sample offs column from the first sample at another offset
// (a host crossing daylight saving) on. No column holds a pointer, so the
// collector never scans them. A sample outside the indexable range, or
// stretching the buckets past maxDenseHours, makes the store irregular for
// good: its times move to ts, its buckets go, and its reads scan.
type serverStore struct {
	ns   []int64
	offs []int32     // per-sample zone offsets; nil while all are off
	ts   []time.Time // the irregular store's time column
	cpu  []float64   // TotalProcessorPct
	mem  []float64   // MemCommittedMB
	rest []sampleRest

	off       int            // seconds east of UTC of the first sample
	loc       *time.Location // the zone off reads back in
	irregular bool

	firstH  int64
	buckets []hourAgg
	// dirtyBuckets counts the dirty buckets, so a read settles them
	// without walking past the last one: an eviction's is the first.
	dirtyBuckets int
}

// hourOf is the absolute hour bucket of a Unix-nanosecond instant (floor
// division, so it is monotone).
func hourOf(n int64) int64 {
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

// timeAt is the i-th retained timestamp. A regular store's come back in an
// unnamed fixed zone at the sample's offset (UTC at offset 0), as the
// sample codec restores them.
func (st *serverStore) timeAt(i int) time.Time {
	if st.irregular {
		return st.ts[i]
	}
	loc := st.loc
	if st.offs != nil && int(st.offs[i]) != st.off {
		loc = zoneOf(int(st.offs[i]))
	}
	return time.Unix(0, st.ns[i]).In(loc)
}

// zoneOf is the zone a regular store reads offset off back in.
func zoneOf(off int) *time.Location {
	if off == 0 {
		return time.UTC
	}
	return time.FixedZone("", off)
}

// times is the time column as freshly allocated time.Time values.
func (st *serverStore) times() []time.Time {
	out := make([]time.Time, len(st.cpu))
	for i := range out {
		out[i] = st.timeAt(i)
	}
	return out
}

// sampleAt reassembles the i-th retained sample.
func (st *serverStore) sampleAt(id trace.ServerID, i int) Sample {
	r := st.rest[i]
	return Sample{
		Server:            id,
		Timestamp:         st.timeAt(i),
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

// add stores one validated sample in timestamp order — a late arrival
// lands after every equal-or-earlier timestamp — under retention (0 keeps
// everything), and reports how many samples retention dropped, s
// included. The retained set is what inserting s and then dropping every
// sample older than the newest minus retention would leave, but the
// eviction runs first, so s never widens the buckets over hours that are
// about to go.
func (st *serverStore) add(s Sample, retention time.Duration) int {
	t := s.Timestamp.Round(0) // live ordering ignores monotonic readings, as recovery does
	_, off := t.Zone()
	if !st.irregular && (!timeIndexable(t) || off != int(int32(off))) {
		st.toIrregular() // a wild instant or a wild offset
	}
	if st.irregular {
		return st.addTime(t, s, retention)
	}

	n, d := t.UnixNano(), 0
	if retention > 0 {
		last := n
		if k := len(st.ns); k > 0 {
			last = max(last, st.ns[k-1])
		}
		cutoff := last - int64(retention)
		if cutoff > last { // wrapped: nothing is that old
			cutoff = math.MinInt64
		}
		if d = st.evict(cutoff); n < cutoff {
			return d + 1
		}
	}
	h := hourOf(n)
	if len(st.buckets) > 0 && max(h, st.firstH+int64(len(st.buckets))-1)-min(h, st.firstH) >= maxDenseHours {
		st.toIrregular()
		return d + st.addTime(t, s, 0)
	}
	pos := len(st.ns)
	if pos > 0 && n < st.ns[pos-1] {
		pos = sort.Search(pos, func(i int) bool { return st.ns[i] > n })
	}
	st.insertRow(pos, s)
	st.ns = slices.Insert(st.ns, pos, n)
	st.insertOff(pos, off)
	st.bucketAdd(h, s, pos < len(st.ns)-1)
	return d
}

// insertOff records the zone offset of the sample just inserted at row
// pos. The first sample sets the store's offset; the offs column exists
// only from the first sample at a different one.
func (st *serverStore) insertOff(pos, off int) {
	switch {
	case len(st.ns) == 1:
		st.off, st.loc, st.offs = off, zoneOf(off), nil
	case st.offs != nil:
		st.offs = slices.Insert(st.offs, pos, int32(off))
	case off != st.off:
		st.offs = make([]int32, len(st.ns))
		for i := range st.offs {
			st.offs[i] = int32(st.off)
		}
		st.offs[pos] = int32(off)
	}
}

// addTime is add for an irregular store: the time.Time column, no buckets.
func (st *serverStore) addTime(t time.Time, s Sample, retention time.Duration) int {
	d := 0
	if retention > 0 {
		cutoff := t
		if k := len(st.ts); k > 0 && st.ts[k-1].After(t) {
			cutoff = st.ts[k-1]
		}
		cutoff = cutoff.Add(-retention)
		for d < len(st.ts) && st.ts[d].Before(cutoff) {
			d++
		}
		if d > 0 {
			st.dropRows(d)
			st.ts = dropFront(st.ts, d)
		}
		if t.Before(cutoff) {
			return d + 1
		}
	}
	pos := len(st.ts)
	if pos > 0 && t.Before(st.ts[pos-1]) {
		pos = sort.Search(pos, func(i int) bool { return st.ts[i].After(t) })
	}
	st.insertRow(pos, s)
	st.ts = slices.Insert(st.ts, pos, t)
	return d
}

// toIrregular moves the time column to time.Time values and drops the
// buckets; reads scan from here on.
func (st *serverStore) toIrregular() {
	st.ts = st.times()
	st.ns, st.offs, st.buckets, st.dirtyBuckets, st.irregular = nil, nil, nil, 0, true
}

// insertRow inserts s's metrics at row pos, before the time column grows.
func (st *serverStore) insertRow(pos int, s Sample) {
	st.cpu = slices.Insert(st.cpu, pos, s.TotalProcessorPct)
	st.mem = slices.Insert(st.mem, pos, s.MemCommittedMB)
	st.rest = slices.Insert(st.rest, pos, restOf(s))
}

// dropRows drops the first k rows of the metric columns.
func (st *serverStore) dropRows(k int) {
	st.cpu = dropFront(st.cpu, k)
	st.mem = dropFront(st.mem, k)
	st.rest = dropFront(st.rest, k)
}

// dropFront drops s's first k elements. It copies the survivors out when
// they would fill under a quarter of the backing array, so one large
// eviction does not leave a mostly dead array alive behind a short slice.
func dropFront[S ~[]E, E any](s S, k int) S {
	if rest := s[k:]; 4*len(rest) >= cap(s) {
		return rest
	}
	return append(S(nil), s[k:]...)
}

// bucketAdd counts s into hour h's bucket, growing the dense range to
// reach h. A late sample only marks its bucket dirty: its place in the
// storage-order sum is not at the end.
func (st *serverStore) bucketAdd(h int64, s Sample, late bool) {
	if len(st.buckets) == 0 {
		st.firstH = h
	}
	if h < st.firstH {
		st.buckets = slices.Insert(st.buckets, 0, make([]hourAgg, st.firstH-h)...)
		st.firstH = h
	}
	i := int(h - st.firstH)
	if i >= len(st.buckets) {
		st.buckets = append(st.buckets, make([]hourAgg, i+1-len(st.buckets))...)
	}
	b := &st.buckets[i]
	if late {
		st.markDirty(i)
		return
	}
	b.sumPct += s.TotalProcessorPct
	b.sumMem += s.MemCommittedMB
	b.n++
}

// evict drops a regular store's samples older than cutoff and reports how
// many went. The buckets keep covering exactly the occupied hours: the
// leading ones emptied go, and the boundary bucket, which may keep
// survivors behind evicted samples, is marked dirty. A steady eviction
// cadence marks the same hour over and over, and the next read pays for
// one recompute instead of every insert re-summing the boundary hour.
func (st *serverStore) evict(cutoff int64) int {
	drop := 0
	for drop < len(st.ns) && st.ns[drop] < cutoff {
		drop++
	}
	if drop == 0 {
		return 0
	}
	boundary := hourOf(st.ns[drop-1])
	st.dropRows(drop)
	if st.offs != nil {
		st.offs = dropFront(st.offs, drop)
	}
	if st.ns = dropFront(st.ns, drop); len(st.ns) == 0 {
		st.buckets, st.dirtyBuckets = nil, 0
		return drop
	}
	first := hourOf(st.ns[0])
	for _, b := range st.buckets[:first-st.firstH] {
		if b.dirty {
			st.dirtyBuckets--
		}
	}
	st.buckets = dropFront(st.buckets, int(first-st.firstH))
	st.firstH = first
	if first == boundary {
		st.markDirty(0)
	}
	return drop
}

// markDirty marks bucket i for a recompute at the next read.
func (st *serverStore) markDirty(i int) {
	if !st.buckets[i].dirty {
		st.buckets[i].dirty = true
		st.dirtyBuckets++
	}
}

// denseBuckets settles every dirty bucket of a regular store and returns
// the buckets, first occupied hour to last.
func (st *serverStore) denseBuckets() []hourAgg {
	for i := 0; st.dirtyBuckets > 0; i++ {
		if !st.buckets[i].dirty {
			continue
		}
		st.dirtyBuckets--
		start := (st.firstH + int64(i)) * hourNanos
		lo := sort.Search(len(st.ns), func(j int) bool { return st.ns[j] >= start })
		hi := sort.Search(len(st.ns), func(j int) bool { return st.ns[j] >= start+hourNanos })
		b := hourAgg{n: int32(hi - lo)}
		for j := lo; j < hi; j++ {
			b.sumPct += st.cpu[j]
			b.sumMem += st.mem[j]
		}
		st.buckets[i] = b
	}
	return st.buckets
}

// hourly aggregates the retained samples for one spec and epoch, keeping
// the trailing lastHours hours (0 keeps everything). A regular store read
// at an hour-aligned epoch no later than its first sample is answered off
// its buckets in O(hours kept); anything else scans. The result reuses
// dst's storage, from its start, when it is large enough (nil allocates).
func (st *serverStore) hourly(dst []trace.Usage, spec trace.Spec, epoch time.Time, lastHours int) ([]trace.Usage, error) {
	if !st.irregular && timeIndexable(epoch) && epoch.UnixNano()%hourNanos == 0 && st.ns[0] >= epoch.UnixNano() {
		return bucketUsage(dst, windowTail(st.denseBuckets(), lastHours), spec), nil
	}
	out, err := scanHourly(dst, timeColumn(st.ns, st.ts), st.cpu, st.mem, spec, epoch)
	if err != nil {
		return nil, err
	}
	return out[:copy(out, windowTail(out, lastHours))], nil
}

// windowTail slices the trailing lastHours entries (0 keeps everything).
func windowTail[E any](s []E, lastHours int) []E {
	if lastHours > 0 && lastHours < len(s) {
		return s[len(s)-lastHours:]
	}
	return s
}

// zeroedUsage is n zero samples in dst's storage when it is large enough.
func zeroedUsage(dst []trace.Usage, n int) []trace.Usage {
	out := slices.Grow(dst[:0], n)[:n]
	clear(out)
	return out
}

// bucketUsage is the aligned-epoch read: each occupied bucket's sums
// scaled once.
func bucketUsage(dst []trace.Usage, buckets []hourAgg, spec trace.Spec) []trace.Usage {
	out := zeroedUsage(dst, len(buckets))
	for i, b := range buckets {
		if b.n > 0 {
			nn := float64(b.n)
			out[i] = trace.Usage{CPU: b.sumPct / nn / 100 * spec.CPURPE2, Mem: b.sumMem / nn}
		}
	}
	return out
}

// timeColumn reads a time column in whichever layout holds it: the
// irregular store's time.Time values when ts is set, else Unix nanoseconds.
func timeColumn(ns []int64, ts []time.Time) func(int) time.Time {
	if ts != nil {
		return func(i int) time.Time { return ts[i] }
	}
	return func(i int) time.Time { return time.Unix(0, ns[i]) }
}

// scanHourly is the scan-and-bucket read for what the buckets cannot
// answer: each sample is scaled before summation, as the pre-bucket
// warehouse did. Any sample before the epoch is an error.
func scanHourly(dst []trace.Usage, at func(int) time.Time, cpu, mem []float64, spec trace.Spec, epoch time.Time) ([]trace.Usage, error) {
	n := len(cpu)
	if at(0).Before(epoch) {
		return nil, errPrecedeEpoch
	}
	first := int(at(0).Sub(epoch) / time.Hour)
	buckets := make([]hourAgg, int(at(n-1).Sub(epoch)/time.Hour)-first+1)
	for i := 0; i < n; i++ {
		b := &buckets[int(at(i).Sub(epoch)/time.Hour)-first]
		b.sumPct += cpu[i] / 100 * spec.CPURPE2
		b.sumMem += mem[i]
		b.n++
	}
	out := zeroedUsage(dst, len(buckets))
	for i, b := range buckets {
		if b.n > 0 {
			out[i] = trace.Usage{CPU: b.sumPct / float64(b.n), Mem: b.sumMem / float64(b.n)}
		}
	}
	return out, nil
}
