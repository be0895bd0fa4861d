package monitor

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"vmwild/internal/fsx"
	"vmwild/internal/trace"
	"vmwild/internal/wal"
)

// groupFrame is one envelope's worth of samples over eight servers, and
// the decoded frame the warehouse would build from it.
func groupFrame(t *testing.T) (*frameBatch, []Sample) {
	t.Helper()
	var samples []Sample
	for i := 0; i < 24; i++ {
		samples = append(samples, validSample(fmt.Sprintf("srv-%02d", i%8), i))
	}
	f := new(frameBatch)
	if err := f.decode(appendFrame(nil, "agent-1", 1, samples), make(map[string]trace.ServerID)); err != nil {
		t.Fatal(err)
	}
	return f, samples
}

// laneRuns returns, per lane of w, how many of samples journal to it, and
// the touched lanes in the order the group commit appends them.
func laneRuns(w *Warehouse, samples []Sample) (runs []int, touched []int) {
	runs = make([]int, w.Shards())
	for i := range samples {
		runs[w.shardIndex(samples[i].Server)]++
	}
	for k, n := range runs {
		if n > 0 {
			touched = append(touched, k)
		}
	}
	return runs, touched
}

// TestGroupCommitShedsFailedLaneAndLater: the disk fills during the append
// of the k-th lane an envelope touches. That lane's run and every later
// one are shed and acked as shed, the earlier runs are acked as stored,
// and reopening the log recovers exactly the acked set.
func TestGroupCommitShedsFailedLaneAndLater(t *testing.T) {
	f, samples := groupFrame(t)
	_, touched := laneRuns(NewWarehouseShards(0, 4), samples)
	if len(touched) < 3 {
		t.Fatalf("the envelope touches %d lanes; the test needs at least 3", len(touched))
	}
	for k := range touched {
		t.Run(fmt.Sprintf("lane-%d", k), func(t *testing.T) {
			root := t.TempDir()
			ffs, err := fsx.NewFaultFS(fsx.OS, root, 7, fsx.Profile{})
			if err != nil {
				t.Fatal(err)
			}
			w := NewWarehouseShards(0, 4)
			wl, err := OpenWarehouseLog(w, filepath.Join(root, "wal"), 1<<20, wal.Options{FS: ffs, Sync: wal.SyncAlways})
			if err != nil {
				t.Fatal(err)
			}
			runs, _ := laneRuns(w, samples)
			// Budget exactly the earlier lanes' WAL records plus one byte
			// of lane k's, so its append tears and fails with ENOSPC.
			budget, landed := int64(1), 0
			for _, lane := range touched[:k] {
				for i := range f.samples {
					if w.shardIndex(f.samples[i].Server) == lane {
						budget += int64(len(f.recs[i]))
					}
				}
				budget += 8 // the WAL's length and CRC
				landed += runs[lane]
			}
			ffs.SetDiskBudget(budget)

			ack := w.admitFrame(f)
			if want := (ackResult{seq: 1, ok: landed, shed: len(samples) - landed}); ack != want {
				t.Fatalf("ack = %+v, want %+v", ack, want)
			}
			m := w.Metrics()
			if m.ShedDisk != int64(ack.shed) || !m.DiskDegraded || m.AckedSamples != int64(ack.ok) {
				t.Fatalf("metrics shedDisk %d degraded %v acked %d; want %d, true, %d",
					m.ShedDisk, m.DiskDegraded, m.AckedSamples, ack.shed, ack.ok)
			}
			for lane, sm := range m.Shards {
				want := int64(0)
				if runs[lane] > 0 && !containsInt(touched[:k], lane) {
					want = int64(runs[lane])
				}
				if sm.Shed != want {
					t.Errorf("shard %d shed %d, want %d", lane, sm.Shed, want)
				}
			}
			if got := w.Stats().Samples; got != ack.ok {
				t.Fatalf("stored %d samples, acked %d", got, ack.ok)
			}
			stored := snapshotBytes(t, w)
			wl.Close() //nolint:errcheck // the full disk refuses the final checkpoint

			w2 := NewWarehouseShards(0, 4)
			wl2, err := OpenWarehouseLog(w2, filepath.Join(root, "wal"), 1<<20, wal.Options{})
			if err != nil {
				t.Fatal(err)
			}
			defer wl2.Close()
			if rec := wl2.Recovery(); rec.Restored+rec.Replayed != ack.ok {
				t.Fatalf("recovered %d+%d samples, want the %d acked", rec.Restored, rec.Replayed, ack.ok)
			}
			if !bytes.Equal(snapshotBytes(t, w2), stored) {
				t.Fatal("recovered samples differ from the acked ones")
			}
		})
	}
}

func containsInt(s []int, v int) bool {
	for _, x := range s {
		if x == v {
			return true
		}
	}
	return false
}

// TestGroupCommitTornRunRecoversWhole: a lane's run is one WAL record, so
// a crash that tears it at any byte recovers the whole run or none of it.
func TestGroupCommitTornRunRecoversWhole(t *testing.T) {
	f, samples := groupFrame(t)
	src := t.TempDir()
	w := NewWarehouseShards(0, 4)
	wl, err := OpenWarehouseLog(w, src, 1<<20, wal.Options{Sync: wal.SyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	if ack := w.admitFrame(f); ack.ok != len(samples) {
		t.Fatalf("ack = %+v", ack)
	}
	runs, touched := laneRuns(w, samples)
	lane := touched[0]
	for _, k := range touched {
		if runs[k] < runs[lane] {
			lane = k // the shortest run keeps the byte sweep quick
		}
	}
	// No Close: its checkpoint would compact the record away.
	segDir := laneDir(src, lane)
	entries, err := os.ReadDir(segDir)
	if err != nil {
		t.Fatal(err)
	}
	var seg string
	for _, e := range entries {
		if strings.HasPrefix(e.Name(), "wal-") {
			seg = e.Name()
		}
	}
	data, err := os.ReadFile(filepath.Join(segDir, seg))
	if err != nil {
		t.Fatal(err)
	}
	const segHeader = 8
	for cut := segHeader; cut <= len(data); cut++ {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, seg), data[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		log, rec, err := wal.Open(dir, wal.Options{Sync: wal.SyncNever})
		if err != nil {
			t.Fatalf("cut at %d: %v", cut, err)
		}
		w2 := NewWarehouseShards(0, 4)
		_, got, err := recoverLog(rec, w2)
		log.Close()
		if err != nil {
			t.Fatalf("cut at %d: %v", cut, err)
		}
		want := 0
		if cut == len(data) {
			want = runs[lane]
		}
		if got != want || w2.Stats().Samples != want {
			t.Fatalf("cut at byte %d of %d: lane %d recovered %d samples, want %d (a whole run or none)",
				cut, len(data), lane, got, want)
		}
	}
	wl.Close()
}
