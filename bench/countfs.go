package main

import (
	"os"
	"strings"
	"sync/atomic"
	"time"

	"vmwild"
)

// fileClass splits a WAL directory's traffic by what the file is for.
type fileClass int

const (
	classSegment    fileClass = iota // wal-*.log: appended records
	classCheckpoint                  // checkpoint-*.ckpt and its .tmp: full-state rewrites
	classOther
	numClasses
)

func classOf(name string) fileClass {
	switch {
	case strings.HasSuffix(name, ".log"):
		return classSegment
	case strings.HasSuffix(name, ".ckpt"), strings.HasSuffix(name, ".ckpt.tmp"):
		return classCheckpoint
	}
	return classOther
}

// fsCounters is one class's totals.
type fsCounters struct {
	Writes     int64
	WriteBytes int64
	WriteNs    int64
	Fsyncs     int64
	FsyncNs    int64
	// Creates counts files opened with O_CREATE; for the checkpoint class
	// that is one per checkpoint taken.
	Creates int64
}

type classCounters struct {
	writes, writeBytes, writeNs, fsyncs, fsyncNs, creates atomic.Int64
}

// countingFS is an fsx.FS that counts and times what the layer above does
// to the filesystem, from outside that layer: it is handed to
// wal.Options.FS. Directory syncs count as fsyncs of classOther.
type countingFS struct {
	base    vmwild.FS
	classes [numClasses]classCounters
	// onOp, when set, is told about every timed call — the controller
	// journal uses it to hang FS spans under the running interval.
	onOp func(op string, start, end time.Time)
}

func newCountingFS(base vmwild.FS) *countingFS { return &countingFS{base: base} }

func (c *countingFS) snapshot(class fileClass) fsCounters {
	k := &c.classes[class]
	return fsCounters{
		Writes:     k.writes.Load(),
		WriteBytes: k.writeBytes.Load(),
		WriteNs:    k.writeNs.Load(),
		Fsyncs:     k.fsyncs.Load(),
		FsyncNs:    k.fsyncNs.Load(),
		Creates:    k.creates.Load(),
	}
}

func (a fsCounters) plus(b fsCounters) fsCounters {
	return fsCounters{
		Writes:     a.Writes + b.Writes,
		WriteBytes: a.WriteBytes + b.WriteBytes,
		WriteNs:    a.WriteNs + b.WriteNs,
		Fsyncs:     a.Fsyncs + b.Fsyncs,
		FsyncNs:    a.FsyncNs + b.FsyncNs,
		Creates:    a.Creates + b.Creates,
	}
}

func (a fsCounters) minus(b fsCounters) fsCounters {
	return fsCounters{
		Writes:     a.Writes - b.Writes,
		WriteBytes: a.WriteBytes - b.WriteBytes,
		WriteNs:    a.WriteNs - b.WriteNs,
		Fsyncs:     a.Fsyncs - b.Fsyncs,
		FsyncNs:    a.FsyncNs - b.FsyncNs,
		Creates:    a.Creates - b.Creates,
	}
}

// snapshotAll reads every class's totals.
func (c *countingFS) snapshotAll() [numClasses]fsCounters {
	var out [numClasses]fsCounters
	for class := range out {
		out[class] = c.snapshot(fileClass(class))
	}
	return out
}

// total sums every class.
func (c *countingFS) total() fsCounters {
	var t fsCounters
	for _, s := range c.snapshotAll() {
		t = t.plus(s)
	}
	return t
}

func (c *countingFS) op(name string, start time.Time) time.Duration {
	end := time.Now()
	if c.onOp != nil {
		c.onOp(name, start, end)
	}
	return end.Sub(start)
}

// meta reports a metadata call (open, close, rename, remove, readdir): told
// to onOp like every other call, but kept out of the write and fsync totals.
func (c *countingFS) meta(name string, start time.Time) { c.op(name, start) }

func (c *countingFS) OpenFile(name string, flag int, perm os.FileMode) (vmwild.FSFile, error) {
	start := time.Now()
	f, err := c.base.OpenFile(name, flag, perm)
	c.meta("open", start)
	if err != nil {
		return nil, err
	}
	class := classOf(name)
	if flag&os.O_CREATE != 0 {
		c.classes[class].creates.Add(1)
	}
	return &countingFile{FSFile: f, fs: c, k: &c.classes[class]}, nil
}

func (c *countingFS) Rename(oldpath, newpath string) error {
	defer c.meta("rename", time.Now())
	return c.base.Rename(oldpath, newpath)
}

func (c *countingFS) Remove(name string) error {
	defer c.meta("remove", time.Now())
	return c.base.Remove(name)
}

func (c *countingFS) RemoveAll(path string) error {
	defer c.meta("remove", time.Now())
	return c.base.RemoveAll(path)
}

func (c *countingFS) MkdirAll(path string, perm os.FileMode) error {
	defer c.meta("mkdir", time.Now())
	return c.base.MkdirAll(path, perm)
}

func (c *countingFS) ReadDir(name string) ([]os.DirEntry, error) {
	defer c.meta("readdir", time.Now())
	return c.base.ReadDir(name)
}

func (c *countingFS) ReadFile(name string) ([]byte, error) {
	defer c.meta("read", time.Now())
	return c.base.ReadFile(name)
}

func (c *countingFS) Stat(name string) (os.FileInfo, error) {
	defer c.meta("stat", time.Now())
	return c.base.Stat(name)
}

func (c *countingFS) SyncDir(name string) error {
	start := time.Now()
	err := c.base.SyncDir(name)
	k := &c.classes[classOther]
	k.fsyncs.Add(1)
	k.fsyncNs.Add(int64(c.op("fsync", start)))
	return err
}

type countingFile struct {
	vmwild.FSFile
	fs *countingFS
	k  *classCounters
}

func (f *countingFile) Write(p []byte) (int, error) {
	start := time.Now()
	n, err := f.FSFile.Write(p)
	f.k.writes.Add(1)
	f.k.writeBytes.Add(int64(n))
	f.k.writeNs.Add(int64(f.fs.op("write", start)))
	return n, err
}

func (f *countingFile) Sync() error {
	start := time.Now()
	err := f.FSFile.Sync()
	f.k.fsyncs.Add(1)
	f.k.fsyncNs.Add(int64(f.fs.op("fsync", start)))
	return err
}

func (f *countingFile) Close() error {
	defer f.fs.meta("close", time.Now())
	return f.FSFile.Close()
}
