package main

import (
	"os"
	"os/exec"
	"runtime"
	"runtime/debug"
	"strings"
	"syscall"
	"time"
)

// procStat is the process-level cross-check: CPU time and GC pauses are
// far less sensitive to a noisy neighbour than wall time is.
type procStat struct {
	cpu     time.Duration
	gcPause time.Duration
	// peakRSSMB is the resident-set high-water mark so far. Linux reports
	// ru_maxrss in KiB.
	peakRSSMB float64
}

func readProc() procStat {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return procStat{
		cpu:       time.Duration(ru.Utime.Nano() + ru.Stime.Nano()),
		gcPause:   time.Duration(ms.PauseTotalNs),
		peakRSSMB: float64(ru.Maxrss) / 1024,
	}
}

// discard frees what a timed set-up that is not kept left behind, so that
// the set-ups before the last do not count towards peak RSS as garbage.
func discard() { debug.FreeOSMemory() }

// liveHeap is HeapAlloc after a forced collection: what the program keeps.
func liveHeap() uint64 {
	runtime.GC()
	runtime.GC() // the second pass frees what the first one's finalizers released
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// machine describes where numbers were recorded.
type machine struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	CPU        string `json:"cpu"`
	Go         string `json:"go"`
	Kernel     string `json:"kernel"`
	WALFS      string `json:"wal_filesystem"`
	Commit     string `json:"commit"`
}

func describeMachine(walDir string) machine {
	m := machine{
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Go:         runtime.Version(),
		CPU:        "unknown",
		Kernel:     "unknown",
		WALFS:      "unknown",
		Commit:     "unknown",
	}
	if data, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if name, ok := strings.CutPrefix(line, "model name"); ok {
				m.CPU = strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(name), ":"))
				break
			}
		}
	}
	if data, err := os.ReadFile("/proc/sys/kernel/osrelease"); err == nil {
		m.Kernel = strings.TrimSpace(string(data))
	}
	m.WALFS = filesystemOf(walDir)
	// A driver's checkout is not a git repository; the commit is then
	// simply unknown.
	if out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output(); err == nil {
		m.Commit = strings.TrimSpace(string(out))
	}
	return m
}

// filesystemOf names the filesystem type holding dir, from the longest
// matching mount point in /proc/mounts.
func filesystemOf(dir string) string {
	data, err := os.ReadFile("/proc/mounts")
	if err != nil {
		return "unknown"
	}
	best, fs := "", "unknown"
	for _, line := range strings.Split(string(data), "\n") {
		f := strings.Fields(line)
		if len(f) < 3 {
			continue
		}
		mp := f[1]
		if strings.HasPrefix(dir, mp) && len(mp) > len(best) {
			best, fs = mp, f[2]
		}
	}
	return fs
}
