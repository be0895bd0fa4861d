package monitor

import (
	"bytes"
	"errors"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"strconv"
	"testing"

	"vmwild/internal/fsx"
	"vmwild/internal/trace"
	"vmwild/internal/wal"
)

// crashWallSeed lets CI's crash-matrix job sweep the kill points across
// seeds; locally the wall runs at a fixed default.
func crashWallSeed(t *testing.T) int64 {
	s := os.Getenv("CRASHWALL_SEED")
	if s == "" {
		return 1
	}
	v, err := strconv.ParseInt(s, 10, 64)
	if err != nil {
		t.Fatalf("CRASHWALL_SEED=%q: %v", s, err)
	}
	return v
}

// TestCrashWallWarehouse is the warehouse half of the crash-injection
// wall: it replays a deterministic ingest workload against WAL crash
// points chosen at seeded record and byte boundaries, and asserts that
// recovery lands byte-identically on the no-crash reference at the
// acknowledged prefix — and that resuming the feed reproduces the full
// reference state byte-for-byte.
func TestCrashWallWarehouse(t *testing.T) {
	const (
		nSamples        = 400
		checkpointEvery = 64
	)
	opts := func(crash *wal.CrashSwitch) wal.Options {
		// Small segments force rotation + compaction inside the run so
		// kill points land in those paths too.
		return wal.Options{Sync: wal.SyncAlways, SegmentBytes: 4 << 10, Crash: crash}
	}
	samples := make([]Sample, nSamples)
	for i := range samples {
		samples[i] = synthSample(i)
	}

	// Reference run: never crashes. ackBytes[i] is the WAL write-stream
	// position after sample i was acknowledged — the record boundaries.
	refW := NewWarehouse(0)
	refWL, err := OpenWarehouseLog(refW, t.TempDir(), checkpointEvery, opts(nil))
	if err != nil {
		t.Fatal(err)
	}
	ackBytes := make([]int64, nSamples)
	for i, s := range samples {
		if err := refW.IngestDurable(s); err != nil {
			t.Fatalf("reference ingest %d: %v", i, err)
		}
		ackBytes[i] = refWL.BytesWritten()
	}
	total := refWL.BytesWritten()
	refFinal := snapshotBytes(t, refW)
	refWL.Sync()

	rng := rand.New(rand.NewSource(crashWallSeed(t)))
	var kills []int64
	for i := 0; i < 12; i++ { // randomized byte boundaries
		kills = append(kills, 1+rng.Int63n(total))
	}
	for i := 0; i < 6; i++ { // exact record boundaries
		kills = append(kills, ackBytes[rng.Intn(nSamples)])
	}

	for _, cut := range kills {
		// The crashing run: ingest until the injected kill point.
		dir := t.TempDir()
		w := NewWarehouse(0)
		acked := 0
		wl, err := OpenWarehouseLog(w, dir, checkpointEvery, opts(wal.NewCrashSwitch(cut)))
		if err == nil {
			for _, s := range samples {
				if err := w.IngestDurable(s); err != nil {
					if !errors.Is(err, wal.ErrCrashed) {
						t.Fatalf("cut %d: ingest failed with %v", cut, err)
					}
					break
				}
				acked++
			}
			_ = wl
		} else if !errors.Is(err, wal.ErrCrashed) {
			t.Fatalf("cut %d: open: %v", cut, err)
		}

		// Restart: recovery must never fail, must keep every acknowledged
		// sample, and may at most additionally surface the one record
		// that was in flight when the crash hit.
		w2 := NewWarehouse(0)
		wl2, err := OpenWarehouseLog(w2, dir, checkpointEvery, opts(nil))
		if err != nil {
			t.Fatalf("cut %d: recovery failed: %v", cut, err)
		}
		got := w2.Stats().Samples
		if got < acked || got > acked+1 {
			t.Fatalf("cut %d: recovered %d samples with %d acked", cut, got, acked)
		}
		// Byte-identity with the no-crash reference at the durable
		// prefix: a fresh warehouse fed exactly the first `got` samples.
		prefix := NewWarehouse(0)
		for _, s := range samples[:got] {
			prefix.Ingest(s)
		}
		if !bytes.Equal(snapshotBytes(t, w2), snapshotBytes(t, prefix)) {
			t.Fatalf("cut %d: recovered warehouse diverges from reference prefix of %d", cut, got)
		}
		// Aggregates agree too, not just raw samples.
		if got > 0 {
			id := w2.Servers()[0]
			spec := trace.Spec{CPURPE2: 1000, MemMB: 64 << 10}
			a, errA := w2.HourlySeries(id, spec, durableEpoch)
			b, errB := prefix.HourlySeries(id, spec, durableEpoch)
			if errA != nil || errB != nil {
				t.Fatalf("cut %d: aggregate: %v / %v", cut, errA, errB)
			}
			if a.Len() != b.Len() {
				t.Fatalf("cut %d: aggregate lengths differ", cut)
			}
			for h := 0; h < a.Len(); h++ {
				if a.Samples[h] != b.Samples[h] {
					t.Fatalf("cut %d: hourly aggregate diverges at hour %d", cut, h)
				}
			}
		}
		// Resume the feed (agents re-send what was never acknowledged):
		// the final state must be byte-identical to the full reference.
		for i, s := range samples[got:] {
			if err := w2.IngestDurable(s); err != nil {
				t.Fatalf("cut %d: resumed ingest %d: %v", cut, got+i, err)
			}
		}
		if !bytes.Equal(snapshotBytes(t, w2), refFinal) {
			t.Fatalf("cut %d: resumed run diverges from the no-crash reference", cut)
		}
		wl2.Close()
	}
}

// errCut is what a cutFS returns once the process it models has died.
var errCut = errors.New("cut: process died here")

// cutFS models a process dying at its cut-th mutating filesystem call
// (counting from 0): that call and every mutating call after it fail.
// Creates, renames, removes, mkdirs and file and directory syncs count;
// after the cut, writes and truncates on open files fail too. Reads pass.
type cutFS struct {
	fsx.FS
	cut, calls int
}

func (c *cutFS) step() error {
	c.calls++
	if c.calls > c.cut {
		return errCut
	}
	return nil
}

func (c *cutFS) dead() bool { return c.calls > c.cut }

func (c *cutFS) OpenFile(name string, flag int, perm os.FileMode) (fsx.File, error) {
	if flag&os.O_CREATE != 0 {
		if err := c.step(); err != nil {
			return nil, err
		}
	}
	f, err := c.FS.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err
	}
	return &cutFile{File: f, fs: c}, nil
}

func (c *cutFS) Rename(from, to string) error {
	if err := c.step(); err != nil {
		return err
	}
	return c.FS.Rename(from, to)
}

func (c *cutFS) Remove(name string) error {
	if err := c.step(); err != nil {
		return err
	}
	return c.FS.Remove(name)
}

func (c *cutFS) RemoveAll(path string) error {
	if err := c.step(); err != nil {
		return err
	}
	return c.FS.RemoveAll(path)
}

func (c *cutFS) MkdirAll(path string, perm os.FileMode) error {
	if err := c.step(); err != nil {
		return err
	}
	return c.FS.MkdirAll(path, perm)
}

func (c *cutFS) SyncDir(name string) error {
	if err := c.step(); err != nil {
		return err
	}
	return c.FS.SyncDir(name)
}

type cutFile struct {
	fsx.File
	fs *cutFS
}

func (f *cutFile) Sync() error {
	if err := f.fs.step(); err != nil {
		return err
	}
	return f.File.Sync()
}

func (f *cutFile) Write(p []byte) (int, error) {
	if f.fs.dead() {
		return 0, errCut
	}
	return f.File.Write(p)
}

func (f *cutFile) Truncate(size int64) error {
	if f.fs.dead() {
		return errCut
	}
	return f.File.Truncate(size)
}

// TestCrashWallReshard cuts the re-lane of an 8-lane log to 3 shards at
// every mutating filesystem call in turn, until a run completes uncut.
// After every cut, a clean reopen at 3 shards and one at 8 shards (each
// on its own copy of the cut directory) must recover all 30 samples,
// byte-identical to the store that wrote them: the fold is crash-safe in
// both directions.
func TestCrashWallReshard(t *testing.T) {
	const n = 30
	src := t.TempDir()
	w8 := NewWarehouseShards(0, 8)
	wl8, err := OpenWarehouseLog(w8, src, 16, wal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		if err := w8.IngestDurable(synthSample(i)); err != nil {
			t.Fatalf("ingest %d: %v", i, err)
		}
	}
	want := snapshotBytes(t, w8)
	if err := wl8.Close(); err != nil {
		t.Fatal(err)
	}
	clone := func(from string) string {
		t.Helper()
		to := filepath.Join(t.TempDir(), "wal")
		if err := os.CopyFS(to, os.DirFS(from)); err != nil {
			t.Fatal(err)
		}
		return to
	}

	for cut := 0; ; cut++ {
		dir := clone(src)
		cfs := &cutFS{FS: fsx.OS, cut: cut}
		wl, err := OpenWarehouseLog(NewWarehouseShards(0, 3), dir, 16, wal.Options{FS: cfs})
		uncut := err == nil
		if uncut {
			cfs.cut = math.MaxInt
			if err := wl.Close(); err != nil {
				t.Fatal(err)
			}
		} else if !cfs.dead() {
			t.Fatalf("cut %d: open failed before the cut: %v", cut, err)
		}
		for _, shards := range []int{3, 8} {
			w := NewWarehouseShards(0, shards)
			wl, err := OpenWarehouseLog(w, clone(dir), 16, wal.Options{})
			if err != nil {
				t.Fatalf("cut %d: reopen at %d shards: %v", cut, shards, err)
			}
			if rec := wl.Recovery(); rec.Restored+rec.Replayed != n {
				t.Fatalf("cut %d: reopen at %d shards recovered %d + %d samples, want %d", cut, shards, rec.Restored, rec.Replayed, n)
			}
			if !bytes.Equal(snapshotBytes(t, w), want) {
				t.Fatalf("cut %d: reopen at %d shards diverges from the store that wrote the log", cut, shards)
			}
			if err := wl.Close(); err != nil {
				t.Fatal(err)
			}
		}
		if uncut {
			t.Logf("re-lane survived a cut at each of its %d mutating calls", cut)
			return
		}
	}
}
