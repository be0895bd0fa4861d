// Package wal implements the durability substrate of the control plane: an
// append-only, CRC32-framed, length-prefixed segmented log with a
// configurable fsync policy, a torn-tail-tolerant reader, and segment
// rotation plus compaction after checkpoint.
//
// The paper's dynamic consolidation loop re-plans every two hours over
// 14-day windows (Observations 5-7), which only makes sense if the
// controller survives restarts: the monitoring warehouse journals accepted
// samples through a Log and the consolidation controller journals
// intent/outcome/commit records around each interval, so recovery is
// "load latest checkpoint, replay the WAL suffix" instead of "lose 30 days
// of history and orphan a half-executed migration plan".
//
// # On-disk layout
//
// A log directory holds numbered segment files and checkpoint files:
//
//	wal-0000000000000000.log    records appended before the first rotation
//	wal-0000000000000003.log    the active segment (highest sequence)
//	checkpoint-0000000000000003.ckpt
//
// Every segment starts with an 8-byte magic header, followed by frames of
// [length uint32][crc32c uint32][payload]. A checkpoint file carries one
// frame of application state (the warehouse snapshot, the controller's
// committed placement) and is written atomically: temp file, fsync,
// rename. A checkpoint named with sequence S covers every record in
// segments below S; Checkpoint rotates first, writes the checkpoint, then
// deletes the covered segments and older checkpoints.
//
// # Recovery semantics
//
// Open loads the newest checkpoint and replays the segments at or above
// its sequence. A partial final record — a crash tore the tail of the last
// segment — is truncated, not fatal: the bytes never reached a successful
// fsync, so no acknowledged write is lost. Corruption anywhere else (a
// bad frame with later segments present, a sequence gap) is an
// ErrCorruptRecord error: silently skipping acknowledged records would be
// data loss.
//
// # Storage fault model
//
// Every filesystem operation goes through an fsx.FS (Options.FS), so the
// log can run against a seeded fsx.FaultFS in tests and chaos drills. The
// write path distinguishes three failure severities:
//
//   - A failed or torn WRITE leaves garbage after the last well-formed
//     frame. The segment is marked torn; the next append truncates back
//     to the good boundary and continues in place. Nothing acknowledged
//     was lost, and the page cache is not suspect.
//
//   - A failed FSYNC poisons the segment (ErrPoisoned): the kernel may
//     have dropped the dirty pages and cleared the error, so a later
//     "successful" fsync on the same file proves nothing. No further
//     append ever lands in a poisoned segment. The next append truncates
//     the segment to its durable watermark — the well-formed boundary the
//     last successful fsync covered — and rotates to a fresh segment.
//     Under SyncAlways the watermark equals the acknowledgment boundary,
//     so no acked record is dropped; under SyncInterval/SyncNever the
//     unsynced window is lost exactly as a crash would lose it.
//
//   - A failed poison-rotation (the truncate or the new segment's create
//     cannot complete) is terminal: every subsequent operation returns
//     ErrPoisoned. The log cannot promise durability anymore, and
//     pretending otherwise is how storage systems lie.
//
// Disk-full (fsx.ErrDiskFull, re-exported as ErrDiskFull) surfaces through
// append and checkpoint errors and is retryable once space is freed: a
// torn ENOSPC write repairs like any torn write.
package wal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"

	"vmwild/internal/fsx"
)

// Typed storage sentinels. Callers use errors.Is to tell retryable
// conditions (ErrDiskFull — free space and retry) from terminal ones
// (ErrPoisoned — rotate to new storage or stop acking) and from damage
// found at rest (ErrCorruptRecord — refuse to recover silently).
var (
	// ErrDiskFull is the disk-out-of-space condition, injected or real;
	// identical to fsx.ErrDiskFull so the two layers agree under errors.Is.
	ErrDiskFull = fsx.ErrDiskFull
	// ErrPoisoned marks a segment (or, terminally, the whole log) that hit
	// a failed fsync: its unsynced bytes are doubtful and no later fsync
	// may claim them durable.
	ErrPoisoned = errors.New("wal: segment poisoned by failed fsync")
	// ErrCorruptRecord marks a frame whose length or checksum is wrong
	// somewhere recovery is not allowed to truncate — mid-log corruption
	// or a damaged checkpoint.
	ErrCorruptRecord = errors.New("wal: corrupt record")
)

// SyncPolicy selects when appends are fsynced — the durability/latency
// trade of the ingest hot path (see BenchmarkWALAppend).
type SyncPolicy int

const (
	// SyncAlways fsyncs every append before acknowledging it: no
	// acknowledged record is ever lost, at the price of one fsync per
	// sample on the ingest path.
	SyncAlways SyncPolicy = iota
	// SyncInterval fsyncs at most once per SyncEvery, piggybacked on
	// appends: a crash loses at most the last unsynced window.
	SyncInterval
	// SyncNever leaves flushing to the operating system: fastest, and a
	// crash loses whatever the kernel had not written back yet.
	SyncNever
)

// ParseSyncPolicy converts the -fsync flag spelling.
func ParseSyncPolicy(s string) (SyncPolicy, error) {
	switch strings.ToLower(strings.TrimSpace(s)) {
	case "always":
		return SyncAlways, nil
	case "interval":
		return SyncInterval, nil
	case "never":
		return SyncNever, nil
	}
	return 0, fmt.Errorf("wal: unknown fsync policy %q (want always, interval or never)", s)
}

func (p SyncPolicy) String() string {
	switch p {
	case SyncAlways:
		return "always"
	case SyncInterval:
		return "interval"
	case SyncNever:
		return "never"
	}
	return fmt.Sprintf("SyncPolicy(%d)", int(p))
}

// Options tunes a log.
type Options struct {
	// SegmentBytes rotates the active segment once it exceeds this size
	// (default 4 MiB). Rotation bounds how much one recovery must rescan
	// and gives compaction whole files to delete.
	SegmentBytes int64
	// Sync is the fsync policy for appends (default SyncAlways).
	Sync SyncPolicy
	// SyncEvery is the SyncInterval cadence (default 100ms).
	SyncEvery time.Duration
	// Crash, when non-nil, injects a crash into the write path after a
	// byte budget — the failpoint behind the crash-injection test wall.
	// Production opens leave it nil.
	Crash *CrashSwitch
	// FS is the filesystem the log runs on (default fsx.OS). Chaos drills
	// hand in an fsx.FaultFS to inject torn writes, failed fsyncs, ENOSPC
	// and read corruption.
	FS fsx.FS
}

func (o Options) withDefaults() Options {
	if o.SegmentBytes <= 0 {
		o.SegmentBytes = 4 << 20
	}
	if o.SyncEvery <= 0 {
		o.SyncEvery = 100 * time.Millisecond
	}
	if o.FS == nil {
		o.FS = fsx.OS
	}
	return o
}

var magic = [8]byte{'V', 'M', 'W', 'W', 'A', 'L', '0', '1'}

const (
	headerLen = 8
	frameLen  = 8 // length + crc
	// MaxRecordBytes bounds one record: anything larger is a corrupt
	// length prefix, not a record this package ever wrote.
	MaxRecordBytes = 64 << 20
)

var crcTable = crc32.MakeTable(crc32.Castagnoli)

// Recovered is what Open reconstructed from the directory.
type Recovered struct {
	// Checkpoint is the newest durable checkpoint payload, nil when no
	// checkpoint has been taken yet.
	Checkpoint []byte
	// CheckpointSeq is the segment sequence the checkpoint covers up to.
	CheckpointSeq uint64
	// Records are the payloads appended after the checkpoint, oldest
	// first.
	Records [][]byte
	// TornBytes counts trailing bytes dropped from the final segment —
	// the torn tail of a crashed append. Zero on a clean shutdown.
	TornBytes int64
}

// Log is an append-only segmented write-ahead log. Methods are safe for
// concurrent use.
type Log struct {
	dir  string
	opts Options
	fs   fsx.FS

	mu         sync.Mutex
	active     fsx.File
	activeSeq  uint64
	activeSize int64 // well-formed byte boundary of the active segment
	syncedSize int64 // durable watermark: boundary covered by the last successful fsync
	written    int64
	lastSync   time.Time
	dirty      bool
	closed     bool
	torn       bool // garbage bytes sit past activeSize (failed write); repair = truncate in place
	poisoned   bool // a fsync failed; repair = truncate to syncedSize and rotate
	terminal   bool // poison repair failed; every operation returns ErrPoisoned
	// frame is the buffer Append builds each frame in, reused across
	// appends: no fsx.FS keeps the slice its Write is handed.
	frame []byte
}

// Open recovers the log directory (creating it if needed) and returns the
// log ready for appending plus the recovered state. A torn final record is
// truncated away; checkpoint temp files are removed.
func Open(dir string, opts Options) (*Log, *Recovered, error) {
	opts = opts.withDefaults()
	fs := opts.FS
	if err := fs.MkdirAll(dir, 0o755); err != nil {
		return nil, nil, fmt.Errorf("wal: open: %w", err)
	}
	segs, ckpts, err := scanDir(fs, dir)
	if err != nil {
		return nil, nil, err
	}

	rec := &Recovered{}
	var from uint64
	if len(ckpts) > 0 {
		seq := ckpts[len(ckpts)-1]
		payload, err := readCheckpoint(fs, checkpointName(dir, seq))
		if err != nil {
			// A renamed checkpoint is always complete (it was fsynced
			// before the rename); an unreadable one is external damage
			// that silent fallback would turn into data loss.
			return nil, nil, fmt.Errorf("wal: checkpoint %d: %w", seq, err)
		}
		rec.Checkpoint = payload
		rec.CheckpointSeq = seq
		from = seq
	}

	var replay []uint64
	for _, seq := range segs {
		if seq >= from {
			replay = append(replay, seq)
		}
	}
	var lastValid int64
	for i, seq := range replay {
		if i > 0 && seq != replay[i-1]+1 {
			return nil, nil, fmt.Errorf("wal: segment gap: %d follows %d", seq, replay[i-1])
		}
		last := i == len(replay)-1
		records, valid, torn, err := readSegment(fs, segmentName(dir, seq), last)
		if err != nil {
			return nil, nil, err
		}
		rec.Records = append(rec.Records, records...)
		rec.TornBytes += torn
		if last {
			lastValid = valid
		}
	}

	l := &Log{dir: dir, opts: opts, fs: fs, lastSync: time.Now()}
	if len(replay) == 0 {
		// Fresh directory (or everything below the checkpoint was
		// compacted away and the active segment is gone — recreate it at
		// the checkpoint sequence).
		if err := l.openSegment(from); err != nil {
			return nil, nil, err
		}
		return l, rec, nil
	}
	seq := replay[len(replay)-1]
	name := segmentName(dir, seq)
	f, err := fs.OpenFile(name, os.O_RDWR, 0o644)
	if err != nil {
		return nil, nil, fmt.Errorf("wal: reopen segment: %w", err)
	}
	// The truncation boundary comes from the SAME read that produced the
	// replayed records, so the on-disk suffix and the recovered state can
	// never disagree (a second read could be corrupted differently).
	if err := f.Truncate(lastValid); err != nil {
		f.Close()
		return nil, nil, fmt.Errorf("wal: truncate torn tail: %w", err)
	}
	if _, err := f.Seek(0, io.SeekEnd); err != nil {
		f.Close()
		return nil, nil, fmt.Errorf("wal: seek: %w", err)
	}
	l.active = f
	l.activeSeq = seq
	l.activeSize = lastValid
	l.syncedSize = lastValid
	if lastValid < headerLen {
		// The crash tore the segment header itself; rewrite it so
		// post-recovery appends replay.
		if _, err := l.write(f, magic[:]); err != nil {
			f.Close()
			return nil, nil, err
		}
		l.activeSize = headerLen
		l.syncedSize = 0
		l.dirty = true
	}
	return l, rec, nil
}

// Append writes one record and makes it durable per the sync policy. A nil
// error acknowledges the record: with SyncAlways it has reached stable
// storage.
func (l *Log) Append(payload []byte) error {
	if len(payload) == 0 {
		return errors.New("wal: empty record")
	}
	if len(payload) > MaxRecordBytes {
		return fmt.Errorf("wal: record of %d bytes exceeds limit", len(payload))
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return errors.New("wal: log closed")
	}
	if err := l.ensureWritableLocked(); err != nil {
		return err
	}
	need := int64(frameLen + len(payload))
	if l.activeSize > headerLen && l.activeSize+need > l.opts.SegmentBytes {
		if err := l.rotateLocked(); err != nil {
			return err
		}
	}
	if cap(l.frame) < frameLen+len(payload) {
		l.frame = make([]byte, frameLen+len(payload))
	}
	frame := l.frame[:frameLen+len(payload)]
	binary.LittleEndian.PutUint32(frame[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(frame[4:8], crc32.Checksum(payload, crcTable))
	copy(frame[frameLen:], payload)
	if err := l.appendFrameLocked(frame); err != nil {
		return err
	}
	switch l.opts.Sync {
	case SyncAlways:
		return l.syncLocked()
	case SyncInterval:
		if time.Since(l.lastSync) >= l.opts.SyncEvery {
			return l.syncLocked()
		}
	}
	return nil
}

// appendFrameLocked writes one frame to the active segment, marking the
// segment torn when the write fails partway.
func (l *Log) appendFrameLocked(frame []byte) error {
	n, err := l.write(l.active, frame)
	if err != nil {
		if n > 0 {
			// A partial frame sits past activeSize; the next append
			// truncates it away before writing.
			l.torn = true
		}
		return err
	}
	l.activeSize += int64(len(frame))
	l.dirty = true
	return nil
}

// ensureWritableLocked repairs whatever the last failure left behind
// before new bytes are appended: terminal logs refuse, poisoned segments
// truncate to the durable watermark and rotate, torn segments truncate
// their garbage tail in place, and a missing active segment (a failed
// rotation) is recreated.
func (l *Log) ensureWritableLocked() error {
	if l.terminal {
		return fmt.Errorf("wal: log is terminally poisoned: %w", ErrPoisoned)
	}
	// After an injected crash nothing may touch the directory — not even
	// repairs; recovery through Open is the only way forward.
	if err := l.opts.Crash.check(); err != nil {
		return err
	}
	if l.poisoned {
		return l.rotatePoisonedLocked()
	}
	if l.active == nil {
		return l.openSegment(l.activeSeq + 1)
	}
	if l.torn {
		return l.repairTornLocked()
	}
	return nil
}

// repairTornLocked truncates the garbage a failed write left past the
// well-formed boundary. The page cache is not suspect after a mere write
// failure, so appending continues in the same segment.
func (l *Log) repairTornLocked() error {
	if err := l.active.Truncate(l.activeSize); err != nil {
		return fmt.Errorf("wal: repair torn segment: %w", err)
	}
	if _, err := l.active.Seek(0, io.SeekEnd); err != nil {
		return fmt.Errorf("wal: repair torn segment: %w", err)
	}
	l.torn = false
	return nil
}

// rotatePoisonedLocked retires a segment whose fsync failed: truncate it
// to the durable watermark (everything past it is doubtful and was never
// acked under SyncAlways), abandon the file, and open a fresh segment.
// Any failure here is terminal — the log can no longer promise that an
// acknowledgment means durability.
func (l *Log) rotatePoisonedLocked() error {
	fail := func(stage string, err error) error {
		l.terminal = true
		return fmt.Errorf("wal: %s while rotating poisoned segment (log now terminal): %v: %w", stage, err, ErrPoisoned)
	}
	if l.active != nil {
		if l.syncedSize == 0 {
			// Not even the header reached the disk; the file holds nothing
			// durable, so remove it and reuse its sequence.
			l.active.Close() // the handle is abandoned either way
			if err := l.fs.Remove(segmentName(l.dir, l.activeSeq)); err != nil {
				return fail("remove empty poisoned segment", err)
			}
			l.active = nil
			l.poisoned = false
			l.torn = false
			l.dirty = false
			return l.openSegmentTerminalOnFail(l.activeSeq)
		}
		if err := l.active.Truncate(l.syncedSize); err != nil {
			return fail("truncate to durable watermark", err)
		}
		// Deliberately NO fsync of the poisoned file: a success would prove
		// nothing. The truncate drops only bytes that were never durable,
		// so replay after a crash sees at most what the watermark covered.
		l.active.Close()
		l.active = nil
	}
	l.poisoned = false
	l.torn = false
	l.dirty = false
	return l.openSegmentTerminalOnFail(l.activeSeq + 1)
}

func (l *Log) openSegmentTerminalOnFail(seq uint64) error {
	if err := l.openSegment(seq); err != nil {
		l.terminal = true
		return fmt.Errorf("wal: open fresh segment after poison (log now terminal): %v: %w", err, ErrPoisoned)
	}
	return nil
}

// Sync forces any buffered appends to stable storage.
func (l *Log) Sync() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return errors.New("wal: log closed")
	}
	if l.terminal || l.poisoned {
		// A sync on a poisoned segment must not be allowed to "succeed".
		return fmt.Errorf("wal: sync refused: %w", ErrPoisoned)
	}
	return l.syncLocked()
}

func (l *Log) syncLocked() error {
	if !l.dirty {
		return nil
	}
	if err := l.opts.Crash.check(); err != nil {
		return err
	}
	if err := l.active.Sync(); err != nil {
		// Poisoned: the kernel may have dropped the dirty pages and
		// cleared its error state, so no later fsync on this file can be
		// trusted. The next append rotates away from it.
		l.poisoned = true
		return fmt.Errorf("wal: fsync: %v: %w", err, ErrPoisoned)
	}
	l.dirty = false
	l.syncedSize = l.activeSize
	l.lastSync = time.Now()
	return nil
}

// Checkpoint persists the application state atomically and compacts the
// log: the active segment is rotated, the checkpoint covering everything
// before the new segment is written (temp file, fsync, rename), and the
// covered segments and older checkpoints are deleted. Open afterwards
// loads this payload and replays only the records appended since.
func (l *Log) Checkpoint(payload []byte) error {
	if len(payload) > MaxRecordBytes {
		return fmt.Errorf("wal: checkpoint of %d bytes exceeds limit", len(payload))
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return errors.New("wal: log closed")
	}
	if err := l.ensureWritableLocked(); err != nil {
		return err
	}
	if l.activeSize > headerLen {
		if err := l.rotateLocked(); err != nil {
			return err
		}
	} else if l.dirty {
		if err := l.syncLocked(); err != nil {
			return err
		}
	}
	seq := l.activeSeq

	tmp := checkpointName(l.dir, seq) + ".tmp"
	f, err := l.create(tmp)
	if err != nil {
		return err
	}
	frame := make([]byte, headerLen+frameLen+len(payload))
	copy(frame[:headerLen], magic[:])
	binary.LittleEndian.PutUint32(frame[headerLen:headerLen+4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(frame[headerLen+4:headerLen+8], crc32.Checksum(payload, crcTable))
	copy(frame[headerLen+frameLen:], payload)
	// On any failure the temp file is removed; if even the removal fails,
	// the next Open's scan sweeps it, but the caller still learns both.
	fail := func(err error) error {
		f.Close()
		if rmErr := l.fs.Remove(tmp); rmErr != nil {
			return fmt.Errorf("%w (checkpoint temp not cleaned: %v)", err, rmErr)
		}
		return err
	}
	if _, err := l.write(f, frame); err != nil {
		return fail(err)
	}
	if err := l.syncFile(f); err != nil {
		return fail(err)
	}
	if err := f.Close(); err != nil {
		// A failed close can mean lost writes on some filesystems; the
		// checkpoint must not be renamed into place.
		return fail(fmt.Errorf("wal: close checkpoint: %w", err))
	}
	if err := l.rename(tmp, checkpointName(l.dir, seq)); err != nil {
		return fail(err)
	}
	if err := l.syncDir(); err != nil {
		return err
	}

	// The checkpoint is durable; everything it covers is garbage. A crash
	// mid-deletion is harmless — recovery keys off the newest checkpoint
	// and ignores older sequences.
	segs, ckpts, err := scanDir(l.fs, l.dir)
	if err != nil {
		return err
	}
	for _, s := range segs {
		if s < seq {
			if err := l.remove(segmentName(l.dir, s)); err != nil {
				return err
			}
		}
	}
	for _, c := range ckpts {
		if c < seq {
			if err := l.remove(checkpointName(l.dir, c)); err != nil {
				return err
			}
		}
	}
	return nil
}

// Close syncs and closes the active segment. A poisoned log is closed at
// its durable watermark and Close reports ErrPoisoned: the unsynced
// window is gone, exactly as a crash would have taken it, and pretending
// otherwise would re-ack it.
func (l *Log) Close() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return nil
	}
	l.closed = true
	if l.active == nil {
		if l.terminal {
			return fmt.Errorf("wal: close: %w", ErrPoisoned)
		}
		return nil
	}
	if l.terminal || l.poisoned {
		if cerr := l.opts.Crash.check(); cerr != nil {
			l.active.Close()
			return fmt.Errorf("wal: close: %v: %w", cerr, ErrPoisoned)
		}
		// Best-effort repair to the durable watermark; never fsync a
		// poisoned file — a "success" would claim durability it cannot
		// prove.
		terr := l.active.Truncate(l.syncedSize)
		l.active.Close()
		if terr != nil {
			return fmt.Errorf("wal: close poisoned log: truncate: %v: %w", terr, ErrPoisoned)
		}
		return fmt.Errorf("wal: close: %w", ErrPoisoned)
	}
	err := func() error {
		if err := l.opts.Crash.check(); err != nil {
			// Post-crash the directory is frozen: no repair, no sync.
			return err
		}
		if l.torn {
			if err := l.repairTornLocked(); err != nil {
				return err
			}
		}
		if !l.dirty {
			return nil
		}
		if err := l.active.Sync(); err != nil {
			l.poisoned = true
			// Same contract as syncLocked: the unsynced window is lost.
			if terr := l.active.Truncate(l.syncedSize); terr != nil {
				return fmt.Errorf("wal: close: fsync failed and truncate failed (%v): %w", terr, ErrPoisoned)
			}
			return fmt.Errorf("wal: close: fsync: %v: %w", err, ErrPoisoned)
		}
		return nil
	}()
	if cerr := l.active.Close(); err == nil && cerr != nil {
		err = fmt.Errorf("wal: close segment: %w", cerr)
	}
	return err
}

// BytesWritten reports the cumulative bytes handed to the write path —
// segment headers, record frames and checkpoint files included. The crash
// wall uses it to enumerate kill points.
func (l *Log) BytesWritten() int64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.written
}

// Poisoned reports whether the log has hit a failed fsync it has not yet
// rotated away from (or, terminally, cannot rotate away from).
func (l *Log) Poisoned() bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.poisoned || l.terminal
}

// Dir returns the log directory.
func (l *Log) Dir() string { return l.dir }

// rotateLocked syncs and closes the active segment and opens the next one.
func (l *Log) rotateLocked() error {
	if l.dirty {
		if err := l.syncLocked(); err != nil {
			return err
		}
	}
	if err := l.active.Close(); err != nil {
		// The segment was already synced, so nothing acked is at risk,
		// but the handle is gone either way; open the next segment on the
		// retry path.
		l.active = nil
		return fmt.Errorf("wal: close segment: %w", err)
	}
	l.active = nil
	return l.openSegment(l.activeSeq + 1)
}

func (l *Log) openSegment(seq uint64) error {
	f, err := l.create(segmentName(l.dir, seq))
	if err != nil {
		return err
	}
	if _, err := l.write(f, magic[:]); err != nil {
		// A partial header is garbage; remove the file so a retry (or
		// recovery) does not find a truncated header mid-sequence.
		f.Close()
		if rmErr := l.fs.Remove(segmentName(l.dir, seq)); rmErr != nil {
			return fmt.Errorf("%w (segment not cleaned: %v)", err, rmErr)
		}
		return err
	}
	l.active = f
	l.activeSeq = seq
	l.activeSize = headerLen
	l.syncedSize = 0
	l.dirty = true
	l.torn = false
	return nil
}

// write funnels every payload write through the crash failpoint: a tripped
// switch writes only the remaining byte budget — a torn record, exactly
// what a real crash leaves behind — and fails everything after. It returns
// how many bytes actually landed.
func (l *Log) write(f fsx.File, p []byte) (int, error) {
	allowed, err := l.opts.Crash.allow(int64(len(p)))
	var n int
	if allowed > 0 {
		var werr error
		n, werr = f.Write(p[:allowed])
		l.written += int64(n)
		if werr != nil && err == nil {
			err = fmt.Errorf("wal: write: %w", werr)
		}
	}
	return n, err
}

func (l *Log) syncFile(f fsx.File) error {
	if err := l.opts.Crash.check(); err != nil {
		return err
	}
	if err := f.Sync(); err != nil {
		return fmt.Errorf("wal: fsync: %w", err)
	}
	return nil
}

func (l *Log) create(name string) (fsx.File, error) {
	if err := l.opts.Crash.check(); err != nil {
		return nil, err
	}
	f, err := fsx.Create(l.fs, name)
	if err != nil {
		return nil, fmt.Errorf("wal: create: %w", err)
	}
	return f, nil
}

func (l *Log) rename(from, to string) error {
	if err := l.opts.Crash.check(); err != nil {
		return err
	}
	if err := l.fs.Rename(from, to); err != nil {
		return fmt.Errorf("wal: rename checkpoint: %w", err)
	}
	return nil
}

func (l *Log) remove(name string) error {
	if err := l.opts.Crash.check(); err != nil {
		return err
	}
	if err := l.fs.Remove(name); err != nil && !errors.Is(err, os.ErrNotExist) {
		return fmt.Errorf("wal: compact: %w", err)
	}
	return nil
}

func (l *Log) syncDir() error {
	if err := l.opts.Crash.check(); err != nil {
		return err
	}
	// Directory fsync is best-effort hardening; the rename itself is
	// already atomic, and some filesystems reject it.
	l.fs.SyncDir(l.dir)
	return nil
}

func segmentName(dir string, seq uint64) string {
	return filepath.Join(dir, fmt.Sprintf("wal-%016x.log", seq))
}

func checkpointName(dir string, seq uint64) string {
	return filepath.Join(dir, fmt.Sprintf("checkpoint-%016x.ckpt", seq))
}

// scanDir lists segment and checkpoint sequences in ascending order and
// removes leftover checkpoint temp files.
func scanDir(fs fsx.FS, dir string) (segs, ckpts []uint64, err error) {
	entries, err := fs.ReadDir(dir)
	if err != nil {
		return nil, nil, fmt.Errorf("wal: scan: %w", err)
	}
	for _, e := range entries {
		name := e.Name()
		switch {
		case strings.HasSuffix(name, ".tmp"):
			// A checkpoint that never made it to rename: dead weight. A
			// failed removal must surface — it means the directory is not
			// in the state recovery will assume.
			if rmErr := fs.Remove(filepath.Join(dir, name)); rmErr != nil && !errors.Is(rmErr, os.ErrNotExist) {
				return nil, nil, fmt.Errorf("wal: scan: remove stale temp %s: %w", name, rmErr)
			}
		case strings.HasPrefix(name, "wal-") && strings.HasSuffix(name, ".log"):
			var seq uint64
			if _, err := fmt.Sscanf(name, "wal-%016x.log", &seq); err == nil {
				segs = append(segs, seq)
			}
		case strings.HasPrefix(name, "checkpoint-") && strings.HasSuffix(name, ".ckpt"):
			var seq uint64
			if _, err := fmt.Sscanf(name, "checkpoint-%016x.ckpt", &seq); err == nil {
				ckpts = append(ckpts, seq)
			}
		}
	}
	sort.Slice(segs, func(i, j int) bool { return segs[i] < segs[j] })
	sort.Slice(ckpts, func(i, j int) bool { return ckpts[i] < ckpts[j] })
	return segs, ckpts, nil
}

// readSegment decodes one segment, returning the records, the valid byte
// boundary of the same read, and how many trailing bytes past it were
// dropped. In the final segment a torn or corrupt suffix is tolerated and
// reported as dropped bytes; anywhere else it is ErrCorruptRecord.
func readSegment(fs fsx.FS, name string, last bool) (records [][]byte, valid int64, torn int64, err error) {
	data, err := fs.ReadFile(name)
	if err != nil {
		return nil, 0, 0, fmt.Errorf("wal: read segment: %w", err)
	}
	valid, records, complete := parseSegment(data)
	if complete {
		return records, valid, 0, nil
	}
	if !last {
		return nil, 0, 0, fmt.Errorf("wal: segment %s: %w in non-final segment", filepath.Base(name), ErrCorruptRecord)
	}
	return records, valid, int64(len(data)) - valid, nil
}

// parseSegment walks the frames of a segment image and returns the length
// of the valid prefix, the decoded records, and whether the whole image
// parsed cleanly.
func parseSegment(data []byte) (valid int64, records [][]byte, complete bool) {
	if len(data) < headerLen || [8]byte(data[:headerLen]) != magic {
		// Crash during segment creation tore the header itself.
		return 0, nil, len(data) == 0
	}
	off := int64(headerLen)
	for off < int64(len(data)) {
		if off+frameLen > int64(len(data)) {
			return off, records, false
		}
		n := int64(binary.LittleEndian.Uint32(data[off : off+4]))
		crc := binary.LittleEndian.Uint32(data[off+4 : off+8])
		if n == 0 || n > MaxRecordBytes || off+frameLen+n > int64(len(data)) {
			return off, records, false
		}
		payload := data[off+frameLen : off+frameLen+n]
		if crc32.Checksum(payload, crcTable) != crc {
			return off, records, false
		}
		records = append(records, append([]byte(nil), payload...))
		off += frameLen + n
	}
	return off, records, true
}

// readCheckpoint decodes a checkpoint file, rejecting torn or corrupt
// content with ErrCorruptRecord.
func readCheckpoint(fs fsx.FS, name string) ([]byte, error) {
	data, err := fs.ReadFile(name)
	if err != nil {
		return nil, err
	}
	if len(data) < headerLen+frameLen || [8]byte(data[:headerLen]) != magic {
		return nil, fmt.Errorf("wal: malformed checkpoint header: %w", ErrCorruptRecord)
	}
	n := int64(binary.LittleEndian.Uint32(data[headerLen : headerLen+4]))
	crc := binary.LittleEndian.Uint32(data[headerLen+4 : headerLen+8])
	if n > MaxRecordBytes || int64(len(data)) != headerLen+frameLen+n {
		return nil, fmt.Errorf("wal: checkpoint length mismatch: %w", ErrCorruptRecord)
	}
	payload := data[headerLen+frameLen:]
	if crc32.Checksum(payload, crcTable) != crc {
		return nil, fmt.Errorf("wal: checkpoint checksum mismatch: %w", ErrCorruptRecord)
	}
	return append([]byte(nil), payload...), nil
}
