package monitor

import (
	"cmp"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"

	"vmwild/internal/fsx"
	"vmwild/internal/trace"
	"vmwild/internal/wal"
)

// WarehouseLog makes a warehouse crash-safe, and is its only durable
// form: one lane per warehouse shard (dir/shard-000, dir/shard-001, ...).
// A sample is journaled to its shard's lane before it becomes visible, and
// lanes never contend, so durable ingest scales with the shard count. A
// lane checkpoints just its shard (snapshotShard) once its WAL suffix
// reaches a quarter of the samples its last checkpoint held (never sooner
// than its share of CheckpointEvery) and compacts the covered segments:
// write amplification stays constant as a shard grows, and crash replay
// stays near S/4 records per lane of S samples. Open restores each lane's
// checkpoint and replays its suffix; a crash loses at most the samples the
// fsync policy had not yet persisted.
//
// A WAL record is one lane's run of binary sample records (snapshot.go);
// checkpoints use the same codec. A JSON checkpoint from an older build
// fails to open, and so does the old single-log layout, untouched. A lane
// depends on the shard count, so another count's lanes are re-laned.
type WarehouseLog struct {
	w         *Warehouse
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

// reshardDir stages a re-lane's new lanes, as reshardDir+".tmp" until commit.
const reshardDir = "reshard"

// laneDirName names lane i; below 1000 lanes, name order is index order.
func laneDirName(i int) string         { return fmt.Sprintf("shard-%03d", i) }
func laneDir(dir string, i int) string { return filepath.Join(dir, laneDirName(i)) }

// scanWALDir lists dir's lane directories (only names laneDirName makes)
// in name order and its reshard directory, if any, and refuses the
// single-log layout's root files.
func scanWALDir(fs fsx.FS, dir string) (laneDirs []string, staged string, err error) {
	entries, err := fs.ReadDir(dir)
	if err != nil && !errors.Is(err, os.ErrNotExist) {
		return nil, "", fmt.Errorf("monitor: scan wal dir: %w", err)
	}
	for _, e := range entries {
		switch name := e.Name(); {
		case strings.HasPrefix(name, "shard-"):
			if i, err := strconv.Atoi(name[len("shard-"):]); err == nil && name == laneDirName(i) {
				laneDirs = append(laneDirs, name)
			}
		case name == reshardDir || name == reshardDir+".tmp":
			staged = name
		case strings.HasPrefix(name, "wal-") || strings.HasPrefix(name, "checkpoint-"):
			return nil, "", fmt.Errorf("monitor: %s holds root-level %s, the single-log WAL layout; this build reads only shard-NNN lanes and left it untouched", dir, name)
		}
	}
	return laneDirs, staged, nil
}

// lanesComplete reports whether the sorted, well-formed laneDirs are
// exactly shard-000 .. shard-(n-1), for n >= 1. Anything else (a torn
// fresh open, another shard count) is re-laned.
func lanesComplete(laneDirs []string, n int) bool {
	return len(laneDirs) == n && laneDirs[n-1] == laneDirName(n-1)
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
	fs := cmp.Or(opts.FS, fsx.OS)
	wl := &WarehouseLog{
		w:         w,
		lanes:     make([]journalLane, nlanes),
		everyLane: max(1, checkpointEvery/nlanes),
	}

reshard: // bring dir to exactly nlanes lanes; every step makes progress
	for {
		laneDirs, staged, err := scanWALDir(fs, dir)
		if err != nil {
			return nil, err
		}
		switch {
		case staged == reshardDir: // committed; a crash cut the swap short
			err = finishReshard(fs, dir, laneDirs)
		case staged != "": // never committed: the old lanes stand
			err = fs.RemoveAll(filepath.Join(dir, staged))
		case len(laneDirs) > 0 && !lanesComplete(laneDirs, nlanes):
			err = reshardLanes(w, fs, dir, laneDirs, opts, &wl.torn)
		default:
			break reshard
		}
		if err != nil {
			return nil, fmt.Errorf("monitor: reshard wal lanes: %w", err)
		}
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

	w.setJournal(wl.journal)
	return wl, nil
}

// reshardLanes recovers laneDirs into a scratch warehouse of w's shard
// count (w stays empty until the open's one recovery pass), checkpoints
// its shards as new lanes under reshardDir+".tmp", and commits them by
// renaming that to reshardDir: until then the old lanes stand.
func reshardLanes(w *Warehouse, fs fsx.FS, dir string, laneDirs []string, opts wal.Options, torn *int64) error {
	scratch := NewWarehouseShards(w.Retention, w.Shards())
	for _, d := range laneDirs {
		log, recovered, err := wal.Open(filepath.Join(dir, d), opts)
		if err != nil {
			return err
		}
		*torn += recovered.TornBytes
		_, _, err = recoverLog(recovered, scratch)
		if err = errors.Join(err, log.Close()); err != nil {
			return err
		}
	}
	tmp := filepath.Join(dir, reshardDir+".tmp")
	for i := range scratch.shards {
		log, _, err := wal.Open(laneDir(tmp, i), opts)
		if err == nil {
			payload, _ := scratch.snapshotShard(i)
			err = errors.Join(log.Checkpoint(payload), log.Close())
		}
		if err != nil {
			return err
		}
	}
	if err := fs.SyncDir(tmp); err != nil {
		return err
	}
	if err := fs.Rename(tmp, filepath.Join(dir, reshardDir)); err != nil {
		return err
	}
	return fs.SyncDir(dir)
}

// finishReshard swaps committed new lanes in for the old laneDirs, and
// may rerun after a crash. Lanes move in name order, so while any remains
// staged the last-named does and bounds the new layout: old lanes named
// after it go first, then each staged lane replaces its namesake.
func finishReshard(fs fsx.FS, dir string, laneDirs []string) error {
	staging := filepath.Join(dir, reshardDir)
	staged, err := fs.ReadDir(staging)
	for _, d := range laneDirs {
		if err == nil && len(staged) > 0 && d > staged[len(staged)-1].Name() {
			err = fs.RemoveAll(filepath.Join(dir, d))
		}
	}
	for _, e := range staged {
		if lane := filepath.Join(dir, e.Name()); err == nil {
			if err = fs.RemoveAll(lane); err == nil {
				err = fs.Rename(filepath.Join(staging, e.Name()), lane)
			}
		}
	}
	if err == nil {
		if err = fs.SyncDir(dir); err == nil {
			err = fs.RemoveAll(staging)
		}
	}
	return err
}

// journal persists one lane's run of accepted samples as one WAL record
// and inserts it, checkpointing the lane first when its suffix has reached
// max(everyLane, ckptSamples/ckptGrowth). The record is the run's sample
// records back to back, copied from the frame when the run came in one.
// Running the insert under the lane mutex keeps that lane and its shard in
// lockstep: a lane checkpoint always covers exactly the shard samples
// already visible, so compaction can never drop a journaled but
// uncheckpointed sample. A torn record recovers as a whole run or not at all.
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

// Sync flushes buffered appends on every lane (a no-op under fsync=always).
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
		first = cmp.Or(first, err, wl.lanes[i].log.Close())
		wl.lanes[i].mu.Unlock()
	}
	return first
}

// RecoveryStat describes what opening the log reconstructed.
type RecoveryStat struct {
	Restored  int   // samples that came from checkpoints
	Replayed  int   // samples that came from WAL records after them
	TornBytes int64 // total size of discarded torn tails, if any
}

// Recovery reports the open-time recovery outcome.
func (wl *WarehouseLog) Recovery() RecoveryStat {
	return RecoveryStat{Restored: wl.restored, Replayed: wl.replayed, TornBytes: wl.torn}
}

// BytesWritten sums the lanes' write counters, the crash wall's kill-point
// coordinates. Lanes open and a single-writer stream appends
// deterministically, so the counter reproduces across runs.
func (wl *WarehouseLog) BytesWritten() int64 {
	var total int64
	for i := range wl.lanes {
		total += wl.lanes[i].log.BytesWritten()
	}
	return total
}
