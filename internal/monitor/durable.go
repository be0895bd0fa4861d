package monitor

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"

	"vmwild/internal/fsx"
	"vmwild/internal/trace"
	"vmwild/internal/wal"
)

// WarehouseLog makes a warehouse crash-safe: every accepted sample is
// journaled to a write-ahead log before it becomes visible, and each lane
// is checkpointed once its WAL suffix reaches a quarter of the samples
// its last checkpoint held (never sooner than its share of
// CheckpointEvery), after which the covered log segments are compacted
// away. The proportional cadence keeps write amplification constant as a
// shard grows and bounds crash replay to about S/4 records per lane of S
// samples. The log is laid out as one
// lane per warehouse shard (dir/shard-000, dir/shard-001, ...): a sample
// journals to the lane of its shard, each lane checkpoints just its shard
// (via snapshotShard) on its own cadence, and lanes never contend with
// each other — so durable ingest scales with the shard count while the
// checkpoint-before-append contract holds lane by lane. Recovery at open
// is "restore each lane's checkpoint, replay its WAL suffix"; a crash
// loses at most the samples the fsync policy had not yet persisted.
//
// A WAL record is one lane's run of binary sample records (snapshot.go):
// one append per lane per ingested frame or batch. Checkpoints use the
// same codec; a directory checkpointed as JSON by an older build fails to
// open.
//
// A directory written by the old single-log layout (wal-*.log and
// checkpoint-*.ckpt at the root) is migrated on open: the root log is
// recovered, re-checkpointed into the lanes, and removed, with a synced
// marker file making the hand-off crash-safe in both directions.
type WarehouseLog struct {
	w         *Warehouse
	fs        fsx.FS
	lanes     []journalLane
	everyLane int

	restored int
	replayed int
	torn     int64
}

// journalLane is one shard's write-ahead log. lane.mu serializes that
// shard's durable ingest and orders before the shard mutex (taken inside
// insert and snapshotShard); no path acquires a lane mutex while holding
// another lane's or any shard's.
type journalLane struct {
	mu          sync.Mutex
	log         *wal.Log
	sinceCkpt   int
	ckptSamples int    // samples in the lane's latest checkpoint
	rec         []byte // reused WAL record buffer
}

// ckptGrowth is k in the lane checkpoint rule: a lane checkpoints when
// its WAL suffix reaches 1/k of the samples its last checkpoint held, so
// each sample pays for about k checkpoint records plus its own WAL record.
const ckptGrowth = 4

// legacyMigratedMarker commits a legacy-root migration: once it exists
// the lanes are authoritative and the remaining root files are garbage.
const legacyMigratedMarker = "legacy-migrated"

func laneDirName(i int) string         { return fmt.Sprintf("shard-%03d", i) }
func laneDir(dir string, i int) string { return filepath.Join(dir, laneDirName(i)) }

func isLegacyWALFile(name string) bool {
	return (strings.HasPrefix(name, "wal-") && strings.HasSuffix(name, ".log")) ||
		(strings.HasPrefix(name, "checkpoint-") && strings.HasSuffix(name, ".ckpt"))
}

// scanWALDir classifies dir's contents: legacy root WAL files, existing
// lane directories, and the migration marker.
func scanWALDir(fs fsx.FS, dir string) (legacy []string, laneDirs []string, marker bool, err error) {
	entries, err := fs.ReadDir(dir)
	if errors.Is(err, os.ErrNotExist) {
		return nil, nil, false, nil
	}
	if err != nil {
		return nil, nil, false, fmt.Errorf("monitor: scan wal dir: %w", err)
	}
	for _, e := range entries {
		name := e.Name()
		switch {
		case e.IsDir() && strings.HasPrefix(name, "shard-"):
			laneDirs = append(laneDirs, name)
		case name == legacyMigratedMarker:
			marker = true
		case !e.IsDir() && isLegacyWALFile(name):
			legacy = append(legacy, name)
		}
	}
	return legacy, laneDirs, marker, nil
}

// lanesComplete reports whether laneDirs is exactly shard-000 ..
// shard-(n-1). Anything else — a partial fresh open, or a layout from a
// different shard count — must be migrated, not reused, because a
// server's lane assignment depends on the shard count.
func lanesComplete(laneDirs []string, n int) bool {
	if len(laneDirs) != n {
		return false
	}
	have := make(map[string]bool, len(laneDirs))
	for _, d := range laneDirs {
		have[d] = true
	}
	for i := 0; i < n; i++ {
		if !have[laneDirName(i)] {
			return false
		}
	}
	return true
}

// recoverLog drains one opened log into w, returning the restored and
// replayed counts.
func recoverLog(rec *wal.Recovered, w *Warehouse) (int, int, error) {
	restored := 0
	if rec.Checkpoint != nil {
		n, err := w.restore(rec.Checkpoint)
		if err != nil {
			return 0, 0, fmt.Errorf("monitor: restore wal checkpoint: %w", err)
		}
		restored = n
	}
	replayed := 0
	intern := make(map[string]trace.ServerID)
	for _, r := range rec.Records {
		// One record is one lane run: sample records back to back.
		for len(r) > 0 {
			s, rest, err := decodeRecord(r, intern)
			if err != nil {
				// We framed and checksummed this record ourselves; if it
				// is not whole samples the log belongs to something else.
				return 0, 0, fmt.Errorf("monitor: wal record is not a run of samples: %w", err)
			}
			w.Ingest(s)
			replayed++
			r = rest
		}
	}
	return restored, replayed, nil
}

// OpenWarehouseLog recovers the write-ahead log in dir into w, attaches
// the journal, and returns the handle. A lane checkpoints in proportion
// to its shard size; checkpointEvery is the floor of that cadence, in
// journaled samples across the warehouse (default 4096), divided evenly
// over the per-shard lanes. The warehouse must not be ingesting yet.
func OpenWarehouseLog(w *Warehouse, dir string, checkpointEvery int, opts wal.Options) (*WarehouseLog, error) {
	if checkpointEvery <= 0 {
		checkpointEvery = 4096
	}
	nlanes := w.Shards()
	fs := opts.FS
	if fs == nil {
		fs = fsx.OS
	}
	wl := &WarehouseLog{
		w:         w,
		fs:        fs,
		lanes:     make([]journalLane, nlanes),
		everyLane: max(1, checkpointEvery/nlanes),
	}

	legacy, laneDirs, marker, err := scanWALDir(fs, dir)
	if err != nil {
		return nil, err
	}
	if marker {
		// A previous migration checkpointed the lanes and crashed during
		// cleanup: the lanes are authoritative, the root files garbage.
		for _, name := range legacy {
			if err := fs.Remove(filepath.Join(dir, name)); err != nil {
				return nil, fmt.Errorf("monitor: finish wal migration: %w", err)
			}
		}
		if err := fs.Remove(filepath.Join(dir, legacyMigratedMarker)); err != nil {
			return nil, fmt.Errorf("monitor: finish wal migration: %w", err)
		}
		legacy = nil
	}

	migrateLegacy := len(legacy) > 0
	if migrateLegacy {
		// The root log is authoritative until the marker lands; any lane
		// dirs are artifacts of an earlier migration that did not commit.
		for _, d := range laneDirs {
			if err := fs.RemoveAll(filepath.Join(dir, d)); err != nil {
				return nil, fmt.Errorf("monitor: clear stale wal lanes: %w", err)
			}
		}
	} else if len(laneDirs) > 0 && !lanesComplete(laneDirs, nlanes) {
		// A lane layout from a different shard count (or a torn fresh
		// open): fold it into a root-level legacy checkpoint, then run
		// the legacy migration below. The scratch warehouse keeps w
		// untouched until the one authoritative recovery pass.
		if err := foldLanesToRoot(w, dir, laneDirs, opts, &wl.torn); err != nil {
			return nil, err
		}
		migrateLegacy = true
	}

	if migrateLegacy {
		log, recovered, err := wal.Open(dir, opts)
		if err != nil {
			return nil, fmt.Errorf("monitor: open legacy wal: %w", err)
		}
		wl.torn += recovered.TornBytes
		res, rep, err := recoverLog(recovered, w)
		if cerr := log.Close(); err == nil && cerr != nil {
			err = cerr
		}
		if err != nil {
			return nil, err
		}
		wl.restored += res
		wl.replayed += rep
	}

	for i := range wl.lanes {
		log, recovered, err := wal.Open(laneDir(dir, i), opts)
		if err != nil {
			for j := 0; j < i; j++ {
				wl.lanes[j].log.Close()
			}
			return nil, fmt.Errorf("monitor: open wal lane %d: %w", i, err)
		}
		wl.lanes[i].log = log
		if migrateLegacy {
			continue // fresh lanes; nothing to recover
		}
		wl.torn += recovered.TornBytes
		res, rep, err := recoverLog(recovered, w)
		if err != nil {
			for j := 0; j <= i; j++ {
				wl.lanes[j].log.Close()
			}
			return nil, err
		}
		wl.restored += res
		wl.replayed += rep
		wl.lanes[i].sinceCkpt = rep
		wl.lanes[i].ckptSamples = res
	}

	if migrateLegacy {
		if err := wl.commitMigration(dir); err != nil {
			for i := range wl.lanes {
				wl.lanes[i].log.Close()
			}
			return nil, err
		}
	}

	w.setJournal(wl.journal)
	return wl, nil
}

// foldLanesToRoot recovers an incompatible lane layout into a root-level
// legacy checkpoint (via a scratch warehouse, so w stays empty) and
// removes the old lane dirs. The root checkpoint is durable before
// anything is deleted, so a crash at any point either redoes the fold or
// proceeds from the root.
func foldLanesToRoot(w *Warehouse, dir string, laneDirs []string, opts wal.Options, torn *int64) error {
	fs := opts.FS
	if fs == nil {
		fs = fsx.OS
	}
	scratch := NewWarehouseShards(w.Retention, 1)
	for _, d := range laneDirs {
		log, recovered, err := wal.Open(filepath.Join(dir, d), opts)
		if err != nil {
			return fmt.Errorf("monitor: open wal lane %s: %w", d, err)
		}
		*torn += recovered.TornBytes
		_, _, err = recoverLog(recovered, scratch)
		if cerr := log.Close(); err == nil && cerr != nil {
			err = cerr
		}
		if err != nil {
			return err
		}
	}
	root, _, err := wal.Open(dir, opts)
	if err != nil {
		return fmt.Errorf("monitor: open legacy wal: %w", err)
	}
	var buf bytes.Buffer
	err = scratch.Snapshot(&buf)
	if err == nil {
		err = root.Checkpoint(buf.Bytes())
	}
	if cerr := root.Close(); err == nil && cerr != nil {
		err = cerr
	}
	if err != nil {
		return fmt.Errorf("monitor: fold wal lanes: %w", err)
	}
	for _, d := range laneDirs {
		if err := fs.RemoveAll(filepath.Join(dir, d)); err != nil {
			return fmt.Errorf("monitor: clear stale wal lanes: %w", err)
		}
	}
	return nil
}

// commitMigration checkpoints every lane (making the lanes authoritative),
// syncs the marker, and removes the root-level legacy files and marker.
// The root is rescanned rather than trusting the open-time listing,
// because recovery and folding may have rewritten the root files.
func (wl *WarehouseLog) commitMigration(dir string) error {
	for i := range wl.lanes {
		wl.lanes[i].mu.Lock()
		err := wl.checkpointLane(i)
		wl.lanes[i].mu.Unlock()
		if err != nil {
			return err
		}
	}
	legacy, _, _, err := scanWALDir(wl.fs, dir)
	if err != nil {
		return err
	}
	marker := filepath.Join(dir, legacyMigratedMarker)
	f, err := fsx.Create(wl.fs, marker)
	if err == nil {
		err = f.Sync()
		if cerr := f.Close(); err == nil {
			err = cerr
		}
	}
	if err != nil {
		return fmt.Errorf("monitor: commit wal migration: %w", err)
	}
	for _, name := range legacy {
		if err := wl.fs.Remove(filepath.Join(dir, name)); err != nil {
			return fmt.Errorf("monitor: finish wal migration: %w", err)
		}
	}
	if err := wl.fs.Remove(marker); err != nil {
		return fmt.Errorf("monitor: finish wal migration: %w", err)
	}
	return nil
}

// journal persists one lane's run of accepted samples as one WAL record
// and inserts it, checkpointing the lane first when its suffix has reached
// max(everyLane, ckptSamples/ckptGrowth). The record is the run's sample
// records back to back, copied from the frame when the run came in one.
// Running the insert under the lane mutex keeps that lane and its shard in
// lockstep: a lane checkpoint always covers exactly the shard samples
// already visible, so compaction can never drop a
// journaled-but-uncheckpointed sample. A torn record recovers as a whole
// run or not at all.
func (wl *WarehouseLog) journal(k int, r laneRun) error {
	lane := &wl.lanes[k]
	lane.mu.Lock()
	defer lane.mu.Unlock()
	if lane.sinceCkpt >= max(wl.everyLane, lane.ckptSamples/ckptGrowth) {
		if err := wl.checkpointLane(k); err != nil {
			return err
		}
	}
	lane.rec = lane.rec[:0]
	for _, o := range r.idx {
		if r.recs != nil {
			lane.rec = append(lane.rec, r.recs[o]...)
		} else {
			lane.rec = appendRecord(lane.rec, &r.samples[o])
		}
	}
	if err := lane.log.Append(lane.rec); err != nil {
		return err
	}
	lane.sinceCkpt += len(r.idx)
	wl.w.insertRun(k, r)
	return nil
}

// Checkpoint forces a checkpoint + compaction of every lane now.
func (wl *WarehouseLog) Checkpoint() error {
	for i := range wl.lanes {
		wl.lanes[i].mu.Lock()
		err := wl.checkpointLane(i)
		wl.lanes[i].mu.Unlock()
		if err != nil {
			return err
		}
	}
	return nil
}

// checkpointLane snapshots shard i into its lane's checkpoint. The caller
// holds lane i's mutex.
func (wl *WarehouseLog) checkpointLane(i int) error {
	payload, n := wl.w.snapshotShard(i)
	if err := wl.lanes[i].log.Checkpoint(payload); err != nil {
		return err
	}
	wl.lanes[i].sinceCkpt = 0
	wl.lanes[i].ckptSamples = n
	return nil
}

// Sync flushes buffered appends on every lane (a no-op under
// fsync=always).
func (wl *WarehouseLog) Sync() error {
	for i := range wl.lanes {
		if err := wl.lanes[i].log.Sync(); err != nil {
			return err
		}
	}
	return nil
}

// Close takes a final checkpoint on every lane (so the next boot restores
// instead of replaying) and closes the logs. The warehouse should no
// longer be ingesting.
func (wl *WarehouseLog) Close() error {
	var first error
	for i := range wl.lanes {
		wl.lanes[i].mu.Lock()
		err := wl.checkpointLane(i)
		if cerr := wl.lanes[i].log.Close(); err == nil {
			err = cerr
		}
		wl.lanes[i].mu.Unlock()
		if first == nil {
			first = err
		}
	}
	return first
}

// RecoveryStat describes what opening the log reconstructed.
type RecoveryStat struct {
	// Restored is how many samples came from checkpoints.
	Restored int
	// Replayed is how many came from WAL records after them.
	Replayed int
	// TornBytes is the total size of discarded torn tails, if any.
	TornBytes int64
}

// Recovery reports the open-time recovery outcome.
func (wl *WarehouseLog) Recovery() RecoveryStat {
	return RecoveryStat{Restored: wl.restored, Replayed: wl.replayed, TornBytes: wl.torn}
}

// BytesWritten sums the lanes' write counters (the crash wall's
// kill-point coordinate system). Lanes are opened deterministically and a
// single-writer ingest stream appends deterministically, so the counter
// is reproducible across runs the way the crash wall requires.
func (wl *WarehouseLog) BytesWritten() int64 {
	var total int64
	for i := range wl.lanes {
		total += wl.lanes[i].log.BytesWritten()
	}
	return total
}
