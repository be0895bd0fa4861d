// Package fsx abstracts the filesystem operations the durable paths use —
// the WAL, the warehouse journal and the controller journal all talk to an
// FS instead of the os package directly.
// Production code runs on OS, a zero-cost passthrough; tests and chaos
// drills run on FaultFS, a seeded fault injector whose every decision is a
// pure identity-addressed draw (stats.Split over seed, operation, path and
// per-path call index), so the same seed reproduces the same fault
// schedule regardless of goroutine interleaving — the internal/fault and
// internal/chaos discipline applied to the disk.
//
// The interface is deliberately the small subset a log-structured store
// needs: open/create/rename/remove/readdir plus per-file read, write,
// seek, sync and truncate. Nothing here does locking or caching; an FS is
// a window onto a directory tree, not a database.
package fsx

import (
	"errors"
	"io"
	"os"
	"syscall"
)

// ErrDiskFull is the typed ENOSPC: FaultFS returns it (wrapped) when its
// byte budget runs out, and IsNoSpace folds the kernel's syscall.ENOSPC
// into the same errors.Is test so callers can treat real and injected
// disk-full identically — retryable after an operator frees space, unlike
// a poisoned segment.
var ErrDiskFull = errors.New("fsx: disk full")

// ErrInjected marks every non-ENOSPC fault a FaultFS injects (failed
// writes, fsyncs, closes, renames, corrupt reads). Callers distinguish
// injected chaos from real I/O errors with errors.Is.
var ErrInjected = errors.New("fsx: injected I/O fault")

// IsNoSpace reports whether err is a disk-full condition — injected
// (ErrDiskFull) or real (ENOSPC from the kernel).
func IsNoSpace(err error) bool {
	return errors.Is(err, ErrDiskFull) || errors.Is(err, syscall.ENOSPC)
}

// File is one open file. The method set mirrors *os.File; every
// implementation must honor io semantics (a short Write returns a non-nil
// error).
type File interface {
	io.Reader
	io.Writer
	io.Seeker
	io.Closer
	// Sync flushes the file to stable storage. A nil return is the
	// durability acknowledgment the WAL's fsync policies build on.
	Sync() error
	// Truncate changes the file size without moving the offset.
	Truncate(size int64) error
	// Name returns the path the file was opened with.
	Name() string
}

// FS is the filesystem surface of the durable paths.
type FS interface {
	// OpenFile is the general open, with os.O_* flags.
	OpenFile(name string, flag int, perm os.FileMode) (File, error)
	// Rename atomically replaces newpath with oldpath (the commit
	// primitive behind checkpoints and the journal's re-lane).
	Rename(oldpath, newpath string) error
	// Remove deletes a file.
	Remove(name string) error
	// RemoveAll deletes a tree; missing paths are not an error.
	RemoveAll(path string) error
	// MkdirAll creates a directory and its parents.
	MkdirAll(path string, perm os.FileMode) error
	// ReadDir lists a directory sorted by filename.
	ReadDir(name string) ([]os.DirEntry, error)
	// ReadFile reads a whole file.
	ReadFile(name string) ([]byte, error)
	// Stat describes a file.
	Stat(name string) (os.FileInfo, error)
	// SyncDir flushes directory metadata (renames, removes) to stable
	// storage. Filesystems that reject directory fsync report nil; the
	// rename itself is already atomic, so this is best-effort hardening.
	SyncDir(name string) error
}

// Open opens name read-only on fsys.
func Open(fsys FS, name string) (File, error) {
	return fsys.OpenFile(name, os.O_RDONLY, 0)
}

// Create creates or truncates name read-write on fsys.
func Create(fsys FS, name string) (File, error) {
	return fsys.OpenFile(name, os.O_RDWR|os.O_CREATE|os.O_TRUNC, 0o644)
}

// OS is the production filesystem: a stateless passthrough to the os
// package.
var OS FS = osFS{}

type osFS struct{}

func (osFS) OpenFile(name string, flag int, perm os.FileMode) (File, error) {
	f, err := os.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err
	}
	return f, nil
}

func (osFS) Rename(oldpath, newpath string) error { return os.Rename(oldpath, newpath) }
func (osFS) Remove(name string) error             { return os.Remove(name) }
func (osFS) RemoveAll(path string) error          { return os.RemoveAll(path) }
func (osFS) MkdirAll(path string, perm os.FileMode) error {
	return os.MkdirAll(path, perm)
}
func (osFS) ReadDir(name string) ([]os.DirEntry, error) { return os.ReadDir(name) }
func (osFS) ReadFile(name string) ([]byte, error)       { return os.ReadFile(name) }
func (osFS) Stat(name string) (os.FileInfo, error)      { return os.Stat(name) }

func (osFS) SyncDir(name string) error {
	d, err := os.Open(name)
	if err != nil {
		return err
	}
	defer d.Close()
	// Some filesystems reject directory fsync; swallow it — the renames
	// this hardens are already atomic.
	d.Sync()
	return nil
}
