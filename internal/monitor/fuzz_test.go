package monitor

import (
	"strings"
	"testing"
)

// FuzzRestore hardens restore, the binary decoder every lane checkpoint
// goes through at recovery (and Snapshot output reads back with): arbitrary
// bytes must never panic the warehouse, input without the snapshot magic
// (a JSON checkpoint from an older build) must be rejected whole, an
// accepted input never yields more samples than it has complete records,
// and whatever is ingested must keep the warehouse queryable.
func FuzzRestore(f *testing.F) {
	seed := NewWarehouse(0)
	for i := 0; i < 6; i++ {
		seed.Ingest(synthSample(i))
	}
	for _, s := range edgeSamples("edge")[:4] {
		seed.Ingest(s)
	}
	var snap strings.Builder
	if err := seed.Snapshot(&snap); err != nil {
		f.Fatal(err)
	}
	f.Add(snap.String())
	for _, cut := range []int{len(snapshotMagic), len(snapshotMagic) + 1, len(snapshotMagic) + 50, snap.Len() / 2, snap.Len() - 1} {
		f.Add(snap.String()[:cut])
	}
	f.Add(`{"server":"a","ts":"2012-06-04T00:00:00Z","cpuTotalPct":10,"memMB":100}` + "\n")
	f.Add("{}\n{}\n")
	f.Add("not json at all")
	f.Fuzz(func(t *testing.T, input string) {
		w := NewWarehouse(0)
		n, err := w.restore([]byte(input))
		if input != "" && !strings.HasPrefix(input, snapshotMagic) {
			if err == nil || n != 0 || w.Stats().Samples != 0 {
				t.Fatalf("input without the magic: restored %d (%d stored), err %v", n, w.Stats().Samples, err)
			}
		}
		// The smallest record is an empty ID, three one-byte varints and
		// the ten metrics.
		const minRecord = 1 + 3 + 8*recordFloats
		if complete := max(0, len(input)-len(snapshotMagic)) / minRecord; n > complete {
			t.Fatalf("restored %d samples from at most %d complete records", n, complete)
		}
		// The warehouse must stay consistent regardless.
		stat := w.Stats()
		if stat.Samples < 0 || stat.Servers < 0 || stat.Samples > n {
			t.Fatalf("stats %+v after restoring %d samples", stat, n)
		}
		for _, id := range w.Servers() {
			if w.SampleCount(id) <= 0 {
				t.Fatalf("listed server %s has no samples", id)
			}
		}
	})
}
