package monitor

import (
	"bytes"
	"errors"
	"fmt"
	"runtime"
	"testing"
	"time"

	"vmwild/internal/trace"
)

// hourIndex is the absolute hour bucket of t (floor division). Only
// meaningful when timeIndexable(t).
func hourIndex(t time.Time) int64 { return hourOf(t.UnixNano()) }

var storeSpec = trace.Spec{CPURPE2: 1800, MemMB: 8192}

// storeOf is id's live store, for layout assertions.
func storeOf(w *Warehouse, id trace.ServerID) *serverStore {
	return w.shards[w.shardIndex(id)].servers[id]
}

func newTestWarehouse(t *testing.T, retention time.Duration) *Warehouse {
	t.Helper()
	w := NewWarehouse(retention)
	t.Cleanup(func() { w.Close() })
	return w
}

// TestStoreLayoutTransitions walks one store from the regular layout to
// the irregular one: UTC samples, then a +05:30 sample (a second zone
// offset, which the store keeps regular), then a year-12000 sample
// (outside the indexable range). After each step the snapshot holds
// exactly the ingested samples' records, and every read answers as the
// reference store does.
func TestStoreLayoutTransitions(t *testing.T) {
	w := newTestWarehouse(t, 0)
	ref := newRefStore(0)
	const id = "layout"
	var want []Sample // ingest order is timestamp order here
	ingest := func(s Sample) {
		s.Server, s.MemCommittedMB = id, 1024+s.TotalProcessorPct
		w.Ingest(s)
		ref.ingest(s)
		want = append(want, s)
	}
	check := func(step string, irregular bool, epochs ...time.Time) {
		t.Helper()
		var buf bytes.Buffer
		if err := w.Snapshot(&buf); err != nil {
			t.Fatal(err)
		}
		wantBytes := []byte(snapshotMagic)
		for i := range want {
			wantBytes = appendRecord(wantBytes, &want[i])
		}
		if !bytes.Equal(buf.Bytes(), wantBytes) {
			t.Fatalf("%s: snapshot differs from the ingested samples' records", step)
		}
		if got := storeOf(w, id).irregular; got != irregular {
			t.Fatalf("%s: irregular = %v, want %v", step, got, irregular)
		}
		liveEqualsReference(t, w, ref, id, epochs...)
	}

	for m := 0; m < 150; m += 7 {
		ingest(Sample{Timestamp: epoch.Add(time.Duration(m) * time.Minute), TotalProcessorPct: float64(m % 97)})
	}
	check("UTC", false, epoch, epoch.Add(-time.Hour), epoch.Add(13*time.Minute), epoch.Add(time.Hour))
	if st := storeOf(w, id); st.ns == nil || st.ts != nil || len(st.buckets) != 3 {
		t.Fatalf("regular store layout: %d ns, %d ts, %d buckets", len(st.ns), len(st.ts), len(st.buckets))
	}

	ist := time.FixedZone("IST", 5*3600+30*60)
	ingest(Sample{Timestamp: epoch.Add(3 * time.Hour).In(ist), TotalProcessorPct: 42})
	check("+05:30", false, epoch, epoch.Add(13*time.Minute), epoch.Add(time.Hour))
	got := storeOf(w, id).sampleAt(id, len(want)-1).Timestamp
	if _, off := got.Zone(); off != 5*3600+30*60 || !got.Equal(want[len(want)-1].Timestamp) {
		t.Fatalf("store lost the sample's zone offset: %v", got)
	}

	ingest(Sample{Timestamp: time.Date(12000, 3, 1, 4, 5, 6, 7, time.UTC), TotalProcessorPct: 7})
	check("year 12000", true, epoch)
}

// TestZoneChangeKeepsStoreRegular: a host crossing daylight saving sends a
// second zone offset. The store stays regular and keeps its buckets, and
// every read, before and after a late sample and an eviction at either
// offset, matches the reference store bit for bit: the aligned-epoch read,
// the scan, the memoized response body, the range and the snapshot bytes.
func TestZoneChangeKeepsStoreRegular(t *testing.T) {
	const retention = 6 * time.Hour
	w := newTestWarehouse(t, retention)
	ref := newRefStore(retention)
	const id = "dst"
	summer := time.FixedZone("BST", 3600)
	feed := func(at time.Duration, loc *time.Location, cpu float64) {
		s := Sample{Server: id, Timestamp: epoch.Add(at).In(loc), TotalProcessorPct: cpu, MemCommittedMB: 900 + cpu/3}
		ref.ingest(s)
		w.Ingest(s)
	}
	check := func(step string, mixed bool) {
		t.Helper()
		st := storeOf(w, id)
		if st.irregular || len(st.buckets) == 0 || (st.offs != nil) != mixed {
			t.Fatalf("%s: irregular %v, %d buckets, offs column %v; want regular with buckets, offs %v",
				step, st.irregular, len(st.buckets), st.offs != nil, mixed)
		}
		var buf bytes.Buffer
		if err := w.Snapshot(&buf); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(buf.Bytes(), ref.snapshotBytes(t)) {
			t.Fatalf("%s: snapshot differs from the reference", step)
		}
		first := ref.servers[id][0].Timestamp
		epochs := []time.Time{first.Truncate(time.Hour), first.Add(-7 * time.Minute)}
		for _, ep := range epochs {
			want, err := ref.hourly(id, storeSpec, ep)
			if err != nil {
				t.Fatal(err)
			}
			got, err := w.HourlySeries(id, storeSpec, ep)
			if err != nil {
				t.Fatal(err)
			}
			equalSeries(t, fmt.Sprintf("%s: epoch %v vs reference", step, ep), &trace.Series{Step: time.Hour, Samples: want}, got)
		}
		liveEqualsReference(t, w, ref, id, epochs...)
	}

	for m := 0; m < 4*60; m += 10 {
		feed(time.Duration(m)*time.Minute, time.UTC, float64(m%89)+0.3)
	}
	check("UTC", false)
	for m := 4 * 60; m < 8*60; m += 10 {
		feed(time.Duration(m)*time.Minute, summer, float64(m%83)+0.7)
	}
	check("+01:00", true)
	feed(5*time.Hour+5*time.Minute, time.UTC, 55.5) // late, at the old offset
	check("late", true)
	for m := 8 * 60; m < 13*60; m += 10 {
		feed(time.Duration(m)*time.Minute, summer, float64(m%79)+0.1)
	}
	check("evicted", true)
	if ref.evicted == 0 {
		t.Fatal("retention evicted nothing")
	}

	// An offset past 32 bits cannot ride in offs: the store turns
	// irregular and still reads every sample back exactly.
	feed(13*time.Hour, time.FixedZone("", 1<<33), 3)
	var buf bytes.Buffer
	if err := w.Snapshot(&buf); err != nil {
		t.Fatal(err)
	}
	if !storeOf(w, id).irregular || !bytes.Equal(buf.Bytes(), ref.snapshotBytes(t)) {
		t.Fatalf("wild offset: irregular %v, snapshot equals the reference %v",
			storeOf(w, id).irregular, bytes.Equal(buf.Bytes(), ref.snapshotBytes(t)))
	}
}

// TestStoreReadsBackInFixedZone: a regular store keeps zone offsets, not
// zone names, so a live read returns the sample's offset in an unnamed fixed zone — what
// the journal returns — and UTC at offset 0.
func TestStoreReadsBackInFixedZone(t *testing.T) {
	w := NewWarehouse(0)
	ist := time.FixedZone("IST", 5*3600+30*60)
	w.Ingest(Sample{Server: "ist", Timestamp: epoch.In(ist), TotalProcessorPct: 1})
	w.Ingest(Sample{Server: "utc", Timestamp: epoch.In(time.FixedZone("Z", 0)), TotalProcessorPct: 1})
	for id, want := range map[trace.ServerID]string{"ist": "+0530", "utc": "UTC"} {
		got := storeOf(w, id).sampleAt(id, 0).Timestamp
		if zone := got.Format("MST"); zone != want || !got.Equal(epoch) {
			t.Errorf("%s: read back %v in zone %q, want %v in %q", id, got, zone, epoch, want)
		}
	}
}

// TestLateSamplePrependsBuckets: a late sample older than the store's
// first hour grows the dense range at the front, and every read still
// matches the reference store.
func TestLateSamplePrependsBuckets(t *testing.T) {
	w := newTestWarehouse(t, 0)
	ref := newRefStore(0)
	const id = "late"
	feed := func(at time.Duration, cpu float64) {
		s := Sample{Server: id, Timestamp: epoch.Add(at), TotalProcessorPct: cpu, MemCommittedMB: 100 * cpu}
		ref.ingest(s)
		w.Ingest(s)
	}
	feed(5*time.Hour+10*time.Minute, 30)
	feed(5*time.Hour+40*time.Minute, 60)
	feed(6*time.Hour+5*time.Minute, 20)
	feed(2*time.Hour+15*time.Minute, 80) // three hours before the first
	feed(5*time.Hour+20*time.Minute, 10) // into a settled bucket

	st := storeOf(w, id)
	if gen := w.shards[w.shardIndex(id)].mutations.Load(); st.firstH != hourIndex(epoch)+2 || len(st.buckets) != 5 || gen != 5 {
		t.Fatalf("buckets [%d, +%d), generation %d; want [%d, +5), 5",
			st.firstH, len(st.buckets), gen, hourIndex(epoch)+2)
	}
	for _, ep := range []time.Time{epoch, epoch.Add(2 * time.Hour), epoch.Add(7 * time.Minute)} {
		want, err := ref.hourly(id, storeSpec, ep)
		if err != nil {
			t.Fatal(err)
		}
		got, err := w.HourlySeries(id, storeSpec, ep)
		if err != nil {
			t.Fatal(err)
		}
		equalSeries(t, fmt.Sprintf("epoch %v vs reference", ep), &trace.Series{Step: time.Hour, Samples: want}, got)
	}
	liveEqualsReference(t, w, ref, id, epoch, epoch.Add(2*time.Hour), epoch.Add(7*time.Minute))
}

// TestEvictionLeavesNoEmptyLeadingHours: an eviction whose first survivor
// sits hours after the last evicted sample trims every emptied bucket, so
// the aligned read starts at the first retained hour, as the reference
// store's does.
func TestEvictionLeavesNoEmptyLeadingHours(t *testing.T) {
	const retention = 3 * time.Hour
	w := newTestWarehouse(t, retention)
	ref := newRefStore(retention)
	const id = "evict"
	for i, at := range []time.Duration{10 * time.Minute, 50 * time.Minute, 3*time.Hour + 20*time.Minute, 4*time.Hour + 30*time.Minute} {
		s := Sample{Server: id, Timestamp: epoch.Add(at), TotalProcessorPct: float64(10 * (i + 1)), MemCommittedMB: 512}
		ref.ingest(s)
		w.Ingest(s)
	}
	st := storeOf(w, id)
	if st.firstH != hourIndex(epoch)+3 || len(st.buckets) != 2 {
		t.Fatalf("buckets [%d, +%d), want [%d, +2)", st.firstH, len(st.buckets), hourIndex(epoch)+3)
	}
	if got := w.Stats(); got.Samples != 2 || got.Dropped != ref.evicted || ref.evicted != 2 {
		t.Fatalf("stats %+v, reference evicted %d; want 2 retained, 2 evicted", got, ref.evicted)
	}
	want, err := ref.hourly(id, storeSpec, epoch)
	if err != nil {
		t.Fatal(err)
	}
	got, err := w.HourlySeries(id, storeSpec, epoch)
	if err != nil {
		t.Fatal(err)
	}
	equalSeries(t, "vs reference", &trace.Series{Step: time.Hour, Samples: want}, got)
	liveEqualsReference(t, w, ref, id, epoch, epoch.Add(3*time.Hour), epoch.Add(time.Minute))
}

// TestStoreGapIsNotAMemoryBomb: one sample in 2012 and one in 2200 must not
// allocate buckets for the 188 years between them. With retention the
// first sample is evicted before the second can widen the range; without,
// the span passes maxDenseHours and the store turns irregular.
func TestStoreGapIsNotAMemoryBomb(t *testing.T) {
	for _, retention := range []time.Duration{0, 30 * 24 * time.Hour} {
		t.Run(fmt.Sprint(retention), func(t *testing.T) {
			w := newTestWarehouse(t, retention)
			ref := newRefStore(retention)
			const id = "gap"
			far := time.Date(2200, 1, 1, 0, 30, 0, 0, time.UTC)
			var before, after runtime.MemStats
			runtime.GC()
			runtime.ReadMemStats(&before)
			w.Ingest(Sample{Server: id, Timestamp: epoch, TotalProcessorPct: 10, MemCommittedMB: 1})
			w.Ingest(Sample{Server: id, Timestamp: far, TotalProcessorPct: 20, MemCommittedMB: 2})
			runtime.GC()
			ref.ingest(Sample{Server: id, Timestamp: epoch, TotalProcessorPct: 10, MemCommittedMB: 1})
			ref.ingest(Sample{Server: id, Timestamp: far, TotalProcessorPct: 20, MemCommittedMB: 2})
			runtime.ReadMemStats(&after)
			if grew := int64(after.HeapAlloc) - int64(before.HeapAlloc); grew > 1<<20 {
				t.Errorf("live heap grew %d bytes", grew)
			}
			if alloc := after.TotalAlloc - before.TotalAlloc; alloc > 10<<20 {
				t.Errorf("allocated %d bytes", alloc)
			}
			wantSamples, wantIrregular := 2, true
			if retention > 0 {
				wantSamples, wantIrregular = 1, false
			}
			if got := w.Stats(); got.Samples != wantSamples || got.Dropped != 2-wantSamples {
				t.Errorf("stats %+v, want %d retained", got, wantSamples)
			}
			if got := storeOf(w, id).irregular; got != wantIrregular {
				t.Errorf("irregular = %v, want %v", got, wantIrregular)
			}
			liveEqualsReference(t, w, ref, id, epoch, far.Truncate(time.Hour))
		})
	}
}

// TestPreEpochSampleFails: a sample before the epoch, even by less than an
// hour, fails the read in process and over the series memo alike, instead of
// being averaged into hour 0.
func TestPreEpochSampleFails(t *testing.T) {
	for _, early := range []time.Duration{30 * time.Minute, 90 * time.Minute} {
		w := newTestWarehouse(t, 0)
		id := trace.ServerID(fmt.Sprint("early-", early))
		w.Ingest(Sample{Server: id, Timestamp: epoch.Add(-early), TotalProcessorPct: 90, MemCommittedMB: 1})
		w.Ingest(Sample{Server: id, Timestamp: epoch.Add(10 * time.Minute), TotalProcessorPct: 10, MemCommittedMB: 1})
		if _, err := w.HourlySeries(id, storeSpec, epoch); !errors.Is(err, errPrecedeEpoch) {
			t.Errorf("%v early: live err %v, want %v", early, err, errPrecedeEpoch)
		}
		if _, err := w.seriesJSON(id, storeSpec, epoch, 0); !errors.Is(err, errPrecedeEpoch) {
			t.Errorf("%v early: memoized err %v, want %v", early, err, errPrecedeEpoch)
		}
	}
}

// BenchmarkWarehouseResident is the store's footprint at the paper's
// collection rate, scaled to fit: 50 servers x 30 days x one sample a
// minute (2.16M samples), ingested in order, as
// live heap after a forced GC. It is the micro-benchmark behind the
// bench harness's monitor.resident_bytes_per_sample.
func BenchmarkWarehouseResident(b *testing.B) {
	const servers, minutes = 50, 30 * 24 * 60
	heap := func() uint64 {
		var ms runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}
	var resident uint64
	for i := 0; i < b.N; i++ {
		base := heap()
		w := NewWarehouse(0)
		ids := make([]trace.ServerID, servers)
		for s := range ids {
			ids[s] = trace.ServerID(fmt.Sprintf("res-%02d", s))
		}
		batch := make([]Sample, servers)
		for m := 0; m < minutes; m++ {
			for s, id := range ids {
				cpu := float64((m*37+s)%101) * 0.97
				batch[s] = Sample{Server: id, Timestamp: epoch.Add(time.Duration(m) * time.Minute),
					TotalProcessorPct: cpu, UserPct: cpu * 0.75, MemCommittedMB: 1024 + float64((m*53+s)%4096)}
			}
			w.IngestBatch(batch)
		}
		resident = heap() - base
		w.Close()
	}
	b.ReportMetric(float64(resident)/(servers*minutes), "B/sample")
	b.ReportMetric(float64(resident)/(servers*30), "B/server-day")
}
