package wal

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"testing"
	"time"

	"vmwild/internal/fsx"
)

func mustOpen(t *testing.T, dir string, opts Options) (*Log, *Recovered) {
	t.Helper()
	l, rec, err := Open(dir, opts)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	return l, rec
}

func record(i int) []byte {
	return []byte(fmt.Sprintf("record-%04d-%s", i, string(make([]byte, i%7))))
}

func TestAppendReplayRoundtrip(t *testing.T) {
	dir := t.TempDir()
	l, rec := mustOpen(t, dir, Options{})
	if rec.Checkpoint != nil || len(rec.Records) != 0 {
		t.Fatalf("fresh log recovered state: %+v", rec)
	}
	const n = 50
	for i := 0; i < n; i++ {
		if err := l.Append(record(i)); err != nil {
			t.Fatalf("append %d: %v", i, err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}

	_, rec = mustOpen(t, dir, Options{})
	if len(rec.Records) != n {
		t.Fatalf("replayed %d records, want %d", len(rec.Records), n)
	}
	for i, r := range rec.Records {
		if !bytes.Equal(r, record(i)) {
			t.Fatalf("record %d mismatch", i)
		}
	}
	if rec.TornBytes != 0 {
		t.Errorf("clean log reported %d torn bytes", rec.TornBytes)
	}
}

// TestAppendAllocatesNothing: after the first append sizes the log's frame
// buffer, appending a record of up to that size allocates nothing — the
// frame is built in the buffer, not in a fresh copy of the payload.
func TestAppendAllocatesNothing(t *testing.T) {
	l, _ := mustOpen(t, t.TempDir(), Options{Sync: SyncInterval, SyncEvery: time.Hour})
	defer l.Close()
	payload := bytes.Repeat([]byte("sample-record "), 3000) // a ~40 KB lane run
	if err := l.Append(payload); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(100, func() {
		if err := l.Append(payload[:len(payload)-len(payload)%97]); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("Append allocates %v times per record after warm-up, want 0", allocs)
	}
}

func TestSegmentRotation(t *testing.T) {
	dir := t.TempDir()
	l, _ := mustOpen(t, dir, Options{SegmentBytes: 256})
	for i := 0; i < 40; i++ {
		if err := l.Append(record(i)); err != nil {
			t.Fatal(err)
		}
	}
	l.Close()
	segs, _, err := scanDir(fsx.OS, dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(segs) < 3 {
		t.Fatalf("expected rotation to produce several segments, got %d", len(segs))
	}
	_, rec := mustOpen(t, dir, Options{SegmentBytes: 256})
	if len(rec.Records) != 40 {
		t.Fatalf("replayed %d records across segments, want 40", len(rec.Records))
	}
}

func TestCheckpointCompacts(t *testing.T) {
	dir := t.TempDir()
	l, _ := mustOpen(t, dir, Options{SegmentBytes: 256})
	for i := 0; i < 20; i++ {
		if err := l.Append(record(i)); err != nil {
			t.Fatal(err)
		}
	}
	state := []byte("state-after-20")
	if err := l.Checkpoint(state); err != nil {
		t.Fatalf("checkpoint: %v", err)
	}
	for i := 20; i < 25; i++ {
		if err := l.Append(record(i)); err != nil {
			t.Fatal(err)
		}
	}
	l.Close()

	segs, ckpts, err := scanDir(fsx.OS, dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(ckpts) != 1 {
		t.Fatalf("want exactly one checkpoint file, got %d", len(ckpts))
	}
	for _, s := range segs {
		if s < ckpts[0] {
			t.Fatalf("segment %d below checkpoint %d survived compaction", s, ckpts[0])
		}
	}

	_, rec := mustOpen(t, dir, Options{})
	if !bytes.Equal(rec.Checkpoint, state) {
		t.Fatalf("checkpoint payload = %q, want %q", rec.Checkpoint, state)
	}
	if len(rec.Records) != 5 {
		t.Fatalf("replayed %d post-checkpoint records, want 5", len(rec.Records))
	}
	if !bytes.Equal(rec.Records[0], record(20)) {
		t.Fatal("wrong first post-checkpoint record")
	}
}

func TestEmptyCheckpointPayload(t *testing.T) {
	dir := t.TempDir()
	l, _ := mustOpen(t, dir, Options{})
	if err := l.Append([]byte("x")); err != nil {
		t.Fatal(err)
	}
	if err := l.Checkpoint(nil); err != nil {
		t.Fatalf("empty checkpoint: %v", err)
	}
	l.Close()
	_, rec := mustOpen(t, dir, Options{})
	if len(rec.Records) != 0 {
		t.Fatalf("compacted log replayed %d records", len(rec.Records))
	}
}

// TestTornTailTruncated is the headline recovery property: a partial final
// record must be dropped, not fail startup, and the log must keep working.
func TestTornTailTruncated(t *testing.T) {
	dir := t.TempDir()
	l, _ := mustOpen(t, dir, Options{})
	for i := 0; i < 10; i++ {
		if err := l.Append(record(i)); err != nil {
			t.Fatal(err)
		}
	}
	l.Close()

	seg := segmentName(dir, 0)
	data, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	// Tear at every byte boundary inside the last record.
	lastStart := int64(len(data)) - int64(frameLen+len(record(9)))
	for cut := lastStart + 1; cut < int64(len(data)); cut++ {
		sub := t.TempDir()
		torn := filepath.Join(sub, filepath.Base(seg))
		if err := os.WriteFile(torn, data[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		l2, rec, err := Open(sub, Options{})
		if err != nil {
			t.Fatalf("cut at %d: recovery failed: %v", cut, err)
		}
		if len(rec.Records) != 9 {
			t.Fatalf("cut at %d: replayed %d records, want 9", cut, len(rec.Records))
		}
		if rec.TornBytes != cut-lastStart {
			t.Fatalf("cut at %d: torn bytes %d, want %d", cut, rec.TornBytes, cut-lastStart)
		}
		// The torn tail is physically gone: appends after recovery land
		// on a clean boundary and replay intact.
		if err := l2.Append([]byte("after-recovery")); err != nil {
			t.Fatalf("cut at %d: append after recovery: %v", cut, err)
		}
		l2.Close()
		_, rec2, err := Open(sub, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if len(rec2.Records) != 10 || !bytes.Equal(rec2.Records[9], []byte("after-recovery")) {
			t.Fatalf("cut at %d: post-recovery append lost", cut)
		}
	}
}

func TestCorruptMiddleIsFatal(t *testing.T) {
	dir := t.TempDir()
	l, _ := mustOpen(t, dir, Options{SegmentBytes: 128})
	for i := 0; i < 20; i++ {
		if err := l.Append(record(i)); err != nil {
			t.Fatal(err)
		}
	}
	l.Close()
	segs, _, _ := scanDir(fsx.OS, dir)
	if len(segs) < 2 {
		t.Fatal("need at least two segments")
	}
	// Flip a payload byte in the first (non-final) segment.
	name := segmentName(dir, segs[0])
	data, _ := os.ReadFile(name)
	data[len(data)-1] ^= 0xff
	os.WriteFile(name, data, 0o644)
	if _, _, err := Open(dir, Options{}); err == nil {
		t.Fatal("corruption in a non-final segment must fail recovery, not silently drop records")
	}
}

func TestSegmentGapIsFatal(t *testing.T) {
	dir := t.TempDir()
	l, _ := mustOpen(t, dir, Options{SegmentBytes: 128})
	for i := 0; i < 30; i++ {
		if err := l.Append(record(i)); err != nil {
			t.Fatal(err)
		}
	}
	l.Close()
	segs, _, _ := scanDir(fsx.OS, dir)
	if len(segs) < 3 {
		t.Fatal("need at least three segments")
	}
	os.Remove(segmentName(dir, segs[1]))
	if _, _, err := Open(dir, Options{}); err == nil {
		t.Fatal("a missing middle segment must fail recovery")
	}
}

func TestCrashSwitchTearsExactlyAtBudget(t *testing.T) {
	ref := t.TempDir()
	l, _ := mustOpen(t, ref, Options{})
	for i := 0; i < 8; i++ {
		if err := l.Append(record(i)); err != nil {
			t.Fatal(err)
		}
	}
	total := l.BytesWritten()
	l.Close()

	for cut := int64(1); cut <= total; cut++ {
		dir := t.TempDir()
		crash := NewCrashSwitch(cut)
		acked := 0
		l, _, err := Open(dir, Options{Crash: crash})
		if err == nil {
			for i := 0; i < 8; i++ {
				if err := l.Append(record(i)); err != nil {
					if !errors.Is(err, ErrCrashed) {
						t.Fatalf("cut %d: unexpected error %v", cut, err)
					}
					break
				}
				acked++
			}
		} else if !errors.Is(err, ErrCrashed) {
			// A budget small enough to die inside the segment header
			// kills Open itself; anything else is a real failure.
			t.Fatalf("cut %d: open: %v", cut, err)
		}
		if acked < 8 && !crash.Tripped() {
			t.Fatalf("cut %d: switch never tripped", cut)
		}
		// Everything acknowledged must survive recovery; at most the one
		// in-flight record may additionally appear if the crash fell
		// between its final write and its fsync.
		_, rec, err := Open(dir, Options{})
		if err != nil {
			t.Fatalf("cut %d: recovery: %v", cut, err)
		}
		if len(rec.Records) < acked || len(rec.Records) > acked+1 {
			t.Fatalf("cut %d: recovered %d records with %d acked", cut, len(rec.Records), acked)
		}
		for i := 0; i < len(rec.Records); i++ {
			if !bytes.Equal(rec.Records[i], record(i)) {
				t.Fatalf("cut %d: record %d corrupted", cut, i)
			}
		}
	}
}

func TestCrashDuringCheckpointKeepsOldState(t *testing.T) {
	// Reference: append 10, checkpoint, measure bytes, append 5 more.
	ref := t.TempDir()
	l, _ := mustOpen(t, ref, Options{})
	for i := 0; i < 10; i++ {
		l.Append(record(i))
	}
	preCkpt := l.BytesWritten()
	if err := l.Checkpoint([]byte("ckpt")); err != nil {
		t.Fatal(err)
	}
	postCkpt := l.BytesWritten()
	l.Close()

	// Crash at every byte of the checkpoint write (a cut at postCkpt
	// would let the whole checkpoint through): recovery must land on
	// either the old state (all 10 records, no checkpoint) or the new
	// checkpoint — never in between.
	for cut := preCkpt + 1; cut < postCkpt; cut++ {
		dir := t.TempDir()
		l, _ := mustOpen(t, dir, Options{Crash: NewCrashSwitch(cut)})
		for i := 0; i < 10; i++ {
			if err := l.Append(record(i)); err != nil {
				t.Fatalf("cut %d: append %d should precede crash: %v", cut, i, err)
			}
		}
		if err := l.Checkpoint([]byte("ckpt")); !errors.Is(err, ErrCrashed) {
			t.Fatalf("cut %d: checkpoint error = %v, want ErrCrashed", cut, err)
		}
		_, rec, err := Open(dir, Options{})
		if err != nil {
			t.Fatalf("cut %d: recovery: %v", cut, err)
		}
		if rec.Checkpoint == nil {
			if len(rec.Records) != 10 {
				t.Fatalf("cut %d: old state lost: %d records", cut, len(rec.Records))
			}
		} else {
			if !bytes.Equal(rec.Checkpoint, []byte("ckpt")) || len(rec.Records) != 0 {
				t.Fatalf("cut %d: inconsistent checkpoint state", cut)
			}
		}
	}
}

func TestSyncPolicies(t *testing.T) {
	for _, policy := range []SyncPolicy{SyncAlways, SyncInterval, SyncNever} {
		t.Run(policy.String(), func(t *testing.T) {
			dir := t.TempDir()
			l, _ := mustOpen(t, dir, Options{Sync: policy, SyncEvery: time.Millisecond})
			for i := 0; i < 10; i++ {
				if err := l.Append(record(i)); err != nil {
					t.Fatal(err)
				}
			}
			if err := l.Sync(); err != nil {
				t.Fatal(err)
			}
			if err := l.Close(); err != nil {
				t.Fatal(err)
			}
			_, rec := mustOpen(t, dir, Options{})
			if len(rec.Records) != 10 {
				t.Fatalf("replayed %d records, want 10", len(rec.Records))
			}
		})
	}
}

func TestParseSyncPolicy(t *testing.T) {
	for in, want := range map[string]SyncPolicy{
		"always": SyncAlways, "Interval": SyncInterval, " never ": SyncNever,
	} {
		got, err := ParseSyncPolicy(in)
		if err != nil || got != want {
			t.Errorf("ParseSyncPolicy(%q) = %v, %v", in, got, err)
		}
	}
	if _, err := ParseSyncPolicy("sometimes"); err == nil {
		t.Error("bogus policy accepted")
	}
}

func TestAppendValidation(t *testing.T) {
	l, _ := mustOpen(t, t.TempDir(), Options{})
	defer l.Close()
	if err := l.Append(nil); err == nil {
		t.Error("empty record accepted")
	}
}

func TestClosedLogRejectsOperations(t *testing.T) {
	l, _ := mustOpen(t, t.TempDir(), Options{})
	l.Close()
	if err := l.Append([]byte("x")); err == nil {
		t.Error("append on closed log accepted")
	}
	if err := l.Checkpoint([]byte("x")); err == nil {
		t.Error("checkpoint on closed log accepted")
	}
}
