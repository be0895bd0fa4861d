package fsx

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"

	"vmwild/internal/stats"
)

// Profile parameterizes a FaultFS. The zero value injects nothing.
type Profile struct {
	// WriteErrProb is the per-write probability that the write fails after
	// a seeded prefix of its bytes lands — the torn-write shape a power cut
	// or a dying device leaves. The short prefix stays on disk; the caller
	// sees a non-nil error with n < len(p).
	WriteErrProb float64
	// SyncErrProb is the per-fsync probability of failure. A failed fsync
	// leaves the file's durable watermark where it was: the unsynced suffix
	// is exactly what a later Crash tears away.
	SyncErrProb float64
	// CloseErrProb is the per-close probability of failure (the file is
	// closed regardless, as POSIX close does).
	CloseErrProb float64
	// RenameErrProb is the per-rename probability of failure; the rename
	// does not happen.
	RenameErrProb float64
	// ReadCorruptProb is the per-read probability that one byte of the
	// returned data is flipped — silent media corruption the CRC layer
	// above must catch. The bytes on disk stay intact, so a re-read can
	// succeed.
	ReadCorruptProb float64
	// DiskBudget caps the cumulative bytes written through the FS; once
	// exhausted, writes land a partial prefix up to the boundary and fail
	// with ErrDiskFull, and creates of new files fail outright. Zero means
	// unlimited. Expand at runtime with SetDiskBudget — the "operator freed
	// space" path of the ENOSPC drills.
	DiskBudget int64
}

func (p Profile) validate() error {
	for _, pr := range []struct {
		name string
		v    float64
	}{
		{"WriteErrProb", p.WriteErrProb},
		{"SyncErrProb", p.SyncErrProb},
		{"CloseErrProb", p.CloseErrProb},
		{"RenameErrProb", p.RenameErrProb},
		{"ReadCorruptProb", p.ReadCorruptProb},
	} {
		if pr.v < 0 || pr.v > 1 {
			return fmt.Errorf("fsx: %s = %v outside [0, 1]", pr.name, pr.v)
		}
	}
	if p.DiskBudget < 0 {
		return fmt.Errorf("fsx: negative disk budget %d", p.DiskBudget)
	}
	return nil
}

// ParseProfile maps a -disk-fault-profile flag spelling to a Profile:
//
//	off              no faults (still counts operations)
//	flaky            2% torn writes, 2% failed fsyncs, 1% failed closes,
//	                 2% failed renames
//	corrupt          5% corrupt reads
//	enospc:<bytes>   unlimited faults off, byte budget of <bytes>
func ParseProfile(s string) (Profile, error) {
	s = strings.TrimSpace(strings.ToLower(s))
	switch {
	case s == "" || s == "off":
		return Profile{}, nil
	case s == "flaky":
		return Profile{WriteErrProb: 0.02, SyncErrProb: 0.02, CloseErrProb: 0.01, RenameErrProb: 0.02}, nil
	case s == "corrupt":
		return Profile{ReadCorruptProb: 0.05}, nil
	case strings.HasPrefix(s, "enospc:"):
		n, err := strconv.ParseInt(s[len("enospc:"):], 10, 64)
		if err != nil || n <= 0 {
			return Profile{}, fmt.Errorf("fsx: bad enospc budget in profile %q", s)
		}
		return Profile{DiskBudget: n}, nil
	}
	return Profile{}, fmt.Errorf("fsx: unknown fault profile %q (want off, flaky, corrupt or enospc:<bytes>)", s)
}

// Counters is a snapshot of what a FaultFS did and injected. Every
// injected fault increments exactly one fault counter — the chaos drills
// reconcile these against their own ledgers.
type Counters struct {
	// Writes / WrittenBytes count write calls and the bytes that actually
	// landed (torn prefixes included).
	Writes, WrittenBytes int64
	// WriteFaults counts injected torn writes; NoSpace counts writes or
	// creates refused by the disk budget.
	WriteFaults, NoSpace  int64
	Syncs, SyncFaults     int64
	Closes, CloseFaults   int64
	Renames, RenameFaults int64
	Reads, ReadCorrupts   int64
	// Crashes counts Crash() calls; TornFiles how many files lost an
	// unsynced tail across them.
	Crashes, TornFiles int64
}

// fileState is the durability model of one path: size is where appends
// have reached, synced where the last successful fsync left the durable
// watermark. Crash tears each file at a seeded point inside
// [synced, size].
type fileState struct {
	size, synced int64
}

// FaultFS wraps a base FS (usually OS) and injects storage faults. Every
// decision is a pure draw from (seed, op, root-relative path, per-op-path
// call index), so a fault schedule is reproducible from the seed alone —
// no shared random stream, no scheduling sensitivity. Safe for concurrent
// use; all state updates happen under one mutex (this is a test and
// chaos-drill tool, not a hot path).
type FaultFS struct {
	base FS
	root string
	seed int64

	mu      sync.Mutex
	prof    Profile
	budget  int64 // remaining write bytes; -1 = unlimited
	calls   map[string]int64
	files   map[string]*fileState
	crashes int64
	crashed bool

	c countersAtomic
}

type countersAtomic struct {
	mu sync.Mutex
	v  Counters
}

func (c *countersAtomic) add(f func(*Counters)) {
	c.mu.Lock()
	f(&c.v)
	c.mu.Unlock()
}

// NewFaultFS builds a fault injector over base. Paths are made relative to
// root before entering the draw identity, so the same seed reproduces the
// same schedule regardless of which temp directory a test got.
func NewFaultFS(base FS, root string, seed int64, p Profile) (*FaultFS, error) {
	if err := p.validate(); err != nil {
		return nil, err
	}
	if base == nil {
		base = OS
	}
	budget := int64(-1)
	if p.DiskBudget > 0 {
		budget = p.DiskBudget
	}
	return &FaultFS{
		base:   base,
		root:   root,
		seed:   seed,
		prof:   p,
		budget: budget,
		calls:  make(map[string]int64),
		files:  make(map[string]*fileState),
	}, nil
}

// Counters returns a snapshot of the operation and fault counters.
func (f *FaultFS) Counters() Counters {
	f.c.mu.Lock()
	defer f.c.mu.Unlock()
	return f.c.v
}

// SetDiskBudget resets the remaining write budget: n < 0 removes the limit
// (the operator added a disk), n >= 0 allows exactly n more bytes.
func (f *FaultFS) SetDiskBudget(n int64) {
	f.mu.Lock()
	f.budget = n
	f.mu.Unlock()
}

// DiskBudget reports the remaining write budget (-1 = unlimited).
func (f *FaultFS) DiskBudget() int64 {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.budget
}

// rel is the path identity draws key on.
func (f *FaultFS) rel(name string) string {
	if r, err := filepath.Rel(f.root, name); err == nil && !strings.HasPrefix(r, "..") {
		return filepath.ToSlash(r)
	}
	return filepath.ToSlash(name)
}

// nextIdx returns the per-(op, path) call index, post-incrementing it.
// Caller holds f.mu.
func (f *FaultFS) nextIdx(op, path string) int64 {
	key := op + "\x00" + path
	idx := f.calls[key]
	f.calls[key] = idx + 1
	return idx
}

// uniform maps one (op, path, call) identity to a deterministic draw in
// [0, 1).
func (f *FaultFS) uniform(op, path string, idx int64) float64 {
	return float64(stats.Split(f.seed, "fsx", op, path, strconv.FormatInt(idx, 10))) / (1 << 63)
}

func injected(op, path string) error {
	return fmt.Errorf("fsx: %s %s: %w", op, path, ErrInjected)
}

// OpenFile opens name through the fault model. Creating a new file with an
// exhausted disk budget fails with ErrDiskFull.
func (f *FaultFS) OpenFile(name string, flag int, perm os.FileMode) (File, error) {
	rel := f.rel(name)
	f.mu.Lock()
	if flag&os.O_CREATE != 0 && f.budget == 0 {
		if _, err := f.base.Stat(name); err != nil {
			f.mu.Unlock()
			f.c.add(func(c *Counters) { c.NoSpace++ })
			return nil, fmt.Errorf("fsx: create %s: %w", rel, ErrDiskFull)
		}
	}
	f.mu.Unlock()

	base, err := f.base.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err
	}

	f.mu.Lock()
	defer f.mu.Unlock()
	st, tracked := f.files[rel]
	if !tracked {
		st = &fileState{}
		f.files[rel] = st
	}
	if flag&os.O_TRUNC != 0 {
		st.size, st.synced = 0, 0
	} else if !tracked {
		// Bytes from before this FaultFS existed survived a previous
		// session: durable by definition.
		if fi, serr := f.base.Stat(name); serr == nil {
			st.size, st.synced = fi.Size(), fi.Size()
		}
	}
	return &faultFile{fs: f, base: base, name: name, rel: rel, st: st}, nil
}

// Rename moves oldpath to newpath, or fails by draw. A successful rename
// carries the file's durability state to the new name.
func (f *FaultFS) Rename(oldpath, newpath string) error {
	rel := f.rel(oldpath)
	f.mu.Lock()
	idx := f.nextIdx("rename", rel)
	fail := f.prof.RenameErrProb > 0 && f.uniform("rename", rel, idx) < f.prof.RenameErrProb
	f.mu.Unlock()
	f.c.add(func(c *Counters) { c.Renames++ })
	if fail {
		f.c.add(func(c *Counters) { c.RenameFaults++ })
		return injected("rename", rel)
	}
	if err := f.base.Rename(oldpath, newpath); err != nil {
		return err
	}
	f.mu.Lock()
	if st := f.files[rel]; st != nil {
		delete(f.files, rel)
		f.files[f.rel(newpath)] = st
	}
	f.mu.Unlock()
	return nil
}

func (f *FaultFS) Remove(name string) error {
	err := f.base.Remove(name)
	if err == nil {
		f.mu.Lock()
		delete(f.files, f.rel(name))
		f.mu.Unlock()
	}
	return err
}

func (f *FaultFS) RemoveAll(path string) error {
	err := f.base.RemoveAll(path)
	if err == nil {
		prefix := f.rel(path)
		f.mu.Lock()
		for p := range f.files {
			if p == prefix || strings.HasPrefix(p, prefix+"/") {
				delete(f.files, p)
			}
		}
		f.mu.Unlock()
	}
	return err
}

func (f *FaultFS) MkdirAll(path string, perm os.FileMode) error {
	return f.base.MkdirAll(path, perm)
}

func (f *FaultFS) ReadDir(name string) ([]os.DirEntry, error) { return f.base.ReadDir(name) }
func (f *FaultFS) Stat(name string) (os.FileInfo, error)      { return f.base.Stat(name) }
func (f *FaultFS) SyncDir(name string) error                  { return f.base.SyncDir(name) }

// ReadFile reads a whole file through the corruption model: one byte may
// come back flipped, while the bytes on disk stay intact.
func (f *FaultFS) ReadFile(name string) ([]byte, error) {
	data, err := f.base.ReadFile(name)
	f.c.add(func(c *Counters) { c.Reads++ })
	if err != nil || len(data) == 0 {
		return data, err
	}
	rel := f.rel(name)
	f.mu.Lock()
	idx := f.nextIdx("readfile", rel)
	corrupt := f.prof.ReadCorruptProb > 0 && f.uniform("readfile", rel, idx) < f.prof.ReadCorruptProb
	var pos int64
	if corrupt {
		pos = int64(f.uniform("readfile-pos", rel, idx) * float64(len(data)))
	}
	f.mu.Unlock()
	if corrupt {
		if pos >= int64(len(data)) {
			pos = int64(len(data)) - 1
		}
		data[pos] ^= 0x40 // non-zero flip, like the network chaos proxy
		f.c.add(func(c *Counters) { c.ReadCorrupts++ })
	}
	return data, err
}

// Crash simulates process death plus the storage loss a real crash risks:
// every file's unsynced tail is torn at a seeded point inside
// [synced, size], and every handle opened before the crash is dead. The
// caller then reopens through a fresh view — exactly what the crash wall
// does across process boundaries.
func (f *FaultFS) Crash() error {
	f.mu.Lock()
	f.crashed = true
	f.crashes++
	crash := strconv.FormatInt(f.crashes, 10)
	type tear struct {
		path string
		to   int64
	}
	var tears []tear
	for path, st := range f.files {
		if st.size <= st.synced {
			continue
		}
		span := st.size - st.synced
		u := f.uniform("crash-tear", path, f.crashes)
		to := st.synced + int64(u*float64(span+1))
		if to > st.size {
			to = st.size
		}
		tears = append(tears, tear{path: path, to: to})
		st.size = to
		if st.synced > to {
			st.synced = to
		}
	}
	f.mu.Unlock()

	var first error
	for _, t := range tears {
		name := t.path
		if f.root != "" && !filepath.IsAbs(name) {
			name = filepath.Join(f.root, filepath.FromSlash(t.path))
		}
		err := func() error {
			h, err := f.base.OpenFile(name, os.O_RDWR, 0o644)
			if err != nil {
				if errors.Is(err, os.ErrNotExist) {
					return nil // created but never made durable at all
				}
				return err
			}
			terr := h.Truncate(t.to)
			if cerr := h.Close(); terr == nil {
				terr = cerr
			}
			return terr
		}()
		if err != nil && first == nil {
			first = fmt.Errorf("fsx: crash tear %s (%s): %w", t.path, crash, err)
		}
		f.c.add(func(c *Counters) { c.TornFiles++ })
	}
	f.c.add(func(c *Counters) { c.Crashes++ })
	return first
}

// Reopen clears the crashed flag so the same FaultFS can serve the
// post-crash recovery (with its fault schedule continuing where it left
// off). File durability state survives: what was synced stays synced.
func (f *FaultFS) Reopen() {
	f.mu.Lock()
	f.crashed = false
	f.mu.Unlock()
}

// faultFile is one open handle through the fault model.
type faultFile struct {
	fs   *FaultFS
	base File
	name string
	rel  string
	st   *fileState

	off    int64
	closed bool
}

func (h *faultFile) Name() string { return h.name }

var errCrashedHandle = fmt.Errorf("fsx: handle opened before crash: %w", ErrInjected)

// gate rejects operations on handles that predate a Crash. Caller holds
// fs.mu.
func (h *faultFile) gateLocked() error {
	if h.closed {
		return fmt.Errorf("fsx: %s: file already closed", h.rel)
	}
	if h.fs.crashed {
		return errCrashedHandle
	}
	return nil
}

func (h *faultFile) Write(p []byte) (int, error) {
	fs := h.fs
	fs.mu.Lock()
	if err := h.gateLocked(); err != nil {
		fs.mu.Unlock()
		return 0, err
	}
	idx := fs.nextIdx("write", h.rel)
	grant := int64(len(p))
	var ferr error
	if fs.budget >= 0 && grant > fs.budget {
		grant = fs.budget
		ferr = fmt.Errorf("fsx: write %s: %w", h.rel, ErrDiskFull)
	}
	if ferr == nil && fs.prof.WriteErrProb > 0 && fs.uniform("write", h.rel, idx) < fs.prof.WriteErrProb {
		// Torn write: a seeded prefix lands, the rest is lost.
		grant = int64(fs.uniform("write-tear", h.rel, idx) * float64(grant))
		ferr = injected("write", h.rel)
	}
	fs.mu.Unlock()

	n := 0
	var werr error
	if grant > 0 {
		n, werr = h.base.Write(p[:grant])
	}

	fs.mu.Lock()
	if fs.budget >= 0 {
		fs.budget -= int64(n)
	}
	h.off += int64(n)
	if h.off > h.st.size {
		h.st.size = h.off
	}
	fs.mu.Unlock()

	fs.c.add(func(c *Counters) {
		c.Writes++
		c.WrittenBytes += int64(n)
		switch {
		case werr != nil:
		case ferr == nil:
		case errors.Is(ferr, ErrDiskFull):
			c.NoSpace++
		default:
			c.WriteFaults++
		}
	})
	if werr != nil {
		return n, werr
	}
	return n, ferr
}

func (h *faultFile) Read(p []byte) (int, error) {
	fs := h.fs
	fs.mu.Lock()
	if err := h.gateLocked(); err != nil {
		fs.mu.Unlock()
		return 0, err
	}
	idx := fs.nextIdx("read", h.rel)
	corrupt := fs.prof.ReadCorruptProb > 0 && fs.uniform("read", h.rel, idx) < fs.prof.ReadCorruptProb
	pos := fs.uniform("read-pos", h.rel, idx)
	fs.mu.Unlock()

	n, err := h.base.Read(p)

	fs.mu.Lock()
	h.off += int64(n)
	fs.mu.Unlock()
	fs.c.add(func(c *Counters) { c.Reads++ })
	if corrupt && n > 0 {
		i := int(pos * float64(n))
		if i >= n {
			i = n - 1
		}
		p[i] ^= 0x40
		fs.c.add(func(c *Counters) { c.ReadCorrupts++ })
	}
	return n, err
}

func (h *faultFile) Seek(offset int64, whence int) (int64, error) {
	fs := h.fs
	fs.mu.Lock()
	if err := h.gateLocked(); err != nil {
		fs.mu.Unlock()
		return 0, err
	}
	fs.mu.Unlock()
	off, err := h.base.Seek(offset, whence)
	if err == nil {
		fs.mu.Lock()
		h.off = off
		fs.mu.Unlock()
	}
	return off, err
}

func (h *faultFile) Sync() error {
	fs := h.fs
	fs.mu.Lock()
	if err := h.gateLocked(); err != nil {
		fs.mu.Unlock()
		return err
	}
	idx := fs.nextIdx("sync", h.rel)
	fail := fs.prof.SyncErrProb > 0 && fs.uniform("sync", h.rel, idx) < fs.prof.SyncErrProb
	fs.mu.Unlock()
	fs.c.add(func(c *Counters) { c.Syncs++ })
	if fail {
		// The durable watermark does not move: the unsynced suffix stays
		// at risk, which is what fsync-failure poisoning must handle.
		fs.c.add(func(c *Counters) { c.SyncFaults++ })
		return fmt.Errorf("fsx: sync %s: %w", h.rel, ErrInjected)
	}
	if err := h.base.Sync(); err != nil {
		return err
	}
	fs.mu.Lock()
	if h.st.size > h.st.synced {
		h.st.synced = h.st.size
	}
	fs.mu.Unlock()
	return nil
}

func (h *faultFile) Truncate(size int64) error {
	fs := h.fs
	fs.mu.Lock()
	if err := h.gateLocked(); err != nil {
		fs.mu.Unlock()
		return err
	}
	fs.mu.Unlock()
	if err := h.base.Truncate(size); err != nil {
		return err
	}
	fs.mu.Lock()
	h.st.size = size
	if h.st.synced > size {
		h.st.synced = size
	}
	fs.mu.Unlock()
	return nil
}

func (h *faultFile) Close() error {
	fs := h.fs
	fs.mu.Lock()
	if h.closed {
		fs.mu.Unlock()
		return fmt.Errorf("fsx: %s: file already closed", h.rel)
	}
	h.closed = true
	idx := fs.nextIdx("close", h.rel)
	fail := fs.prof.CloseErrProb > 0 && fs.uniform("close", h.rel, idx) < fs.prof.CloseErrProb
	fs.mu.Unlock()

	err := h.base.Close()
	fs.c.add(func(c *Counters) { c.Closes++ })
	if err != nil {
		return err
	}
	if fail {
		fs.c.add(func(c *Counters) { c.CloseFaults++ })
		return fmt.Errorf("fsx: close %s: %w", h.rel, ErrInjected)
	}
	return nil
}
