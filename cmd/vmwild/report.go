package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"time"

	"vmwild"
)

// fullReport regenerates every table and figure of the paper's evaluation
// and writes the full report to stdout — the source of EXPERIMENTS.md.
//
// The experiment grid fans out across -parallel workers (default:
// GOMAXPROCS); the report is byte-identical at every worker count for the
// same -seed, so parallelism only buys wall-clock time. Progress lines go
// to stderr.
//
// -bench-json PATH additionally writes a machine-readable timing profile of
// the run: per-cell wall times, the total, and the worker count — the
// format of the committed BENCH_report.json. A "benchmarks" section already
// present in PATH (maintained from go test -bench runs) is preserved across
// rewrites.
//
// -cpuprofile PATH and -memprofile PATH capture pprof profiles of the full
// report run (CPU sampled throughout; heap snapshot at exit, after a GC),
// for `go tool pprof`. Profile with -parallel 1 when attributing costs to
// individual grid cells.
func fullReport(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("report", flag.ContinueOnError)
	seed := fs.Int64("seed", vmwild.DefaultSeed, "workload generator seed")
	parallel := fs.Int("parallel", runtime.GOMAXPROCS(0), "experiment grid workers (1 = sequential)")
	timeout := fs.Duration("timeout", 0, "abort the run after this duration (0 = no limit)")
	quiet := fs.Bool("quiet", false, "suppress progress lines on stderr")
	benchJSON := fs.String("bench-json", "", "write per-cell wall-time JSON to this path")
	cpuProfile := fs.String("cpuprofile", "", "write a pprof CPU profile of the run to this path")
	memProfile := fs.String("memprofile", "", "write a pprof heap profile at exit to this path")
	if err := fs.Parse(args); err != nil {
		return err
	}

	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			return fmt.Errorf("cpuprofile: %w", err)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			return fmt.Errorf("cpuprofile: %w", err)
		}
		defer pprof.StopCPUProfile()
	}

	ctx := context.Background()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}

	var cells []benchCell
	opts := vmwild.ReportOptions{Workers: *parallel}
	if !*quiet || *benchJSON != "" {
		opts.Progress = func(ev vmwild.ReportProgress) {
			if *benchJSON != "" {
				cells = append(cells, benchCell{Label: ev.Label, NS: ev.Elapsed.Nanoseconds()})
			}
			if *quiet {
				return
			}
			status := ""
			if ev.Err != nil {
				status = "  FAILED: " + ev.Err.Error()
			}
			fmt.Fprintf(os.Stderr, "[%3d/%3d] %-32s %6.1fs%s\n",
				ev.Done, ev.Total, ev.Label, ev.Elapsed.Seconds(), status)
		}
	}

	start := time.Now()
	if err := vmwild.WriteReportWith(ctx, stdout, *seed, opts); err != nil {
		return err
	}
	total := time.Since(start)
	if *benchJSON != "" {
		if err := writeBenchJSON(*benchJSON, *seed, *parallel, total, cells); err != nil {
			return fmt.Errorf("bench-json: %w", err)
		}
	}
	if *memProfile != "" {
		if err := writeHeapProfile(*memProfile); err != nil {
			return fmt.Errorf("memprofile: %w", err)
		}
	}
	if !*quiet {
		fmt.Fprintf(os.Stderr, "report complete in %.1fs (%d workers)\n",
			total.Seconds(), *parallel)
	}
	return nil
}

// writeHeapProfile settles the live heap and writes its profile to path.
func writeHeapProfile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	runtime.GC()
	if err := pprof.WriteHeapProfile(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// benchCell is one grid cell's wall time.
type benchCell struct {
	Label string `json:"label"`
	NS    int64  `json:"ns"`
}

// benchReport is the -bench-json document.
type benchReport struct {
	Schema  string      `json:"schema"`
	Seed    int64       `json:"seed"`
	Workers int         `json:"workers"`
	TotalNS int64       `json:"total_ns"`
	Cells   []benchCell `json:"cells"`
	// Benchmarks carries go test -bench numbers (ns/op, B/op, allocs/op
	// keyed by benchmark name and revision). The tool never computes them;
	// it round-trips whatever the existing file holds so regenerating the
	// timing profile does not lose the recorded baselines.
	Benchmarks json.RawMessage `json:"benchmarks,omitempty"`
}

// writeBenchJSON renders the timing profile, carrying over the benchmarks
// section of any existing document at path.
func writeBenchJSON(path string, seed int64, workers int, total time.Duration, cells []benchCell) error {
	rep := benchReport{
		Schema:  "vmwild-bench/1",
		Seed:    seed,
		Workers: workers,
		TotalNS: total.Nanoseconds(),
		Cells:   cells,
	}
	if prev, err := os.ReadFile(path); err == nil {
		var old benchReport
		if err := json.Unmarshal(prev, &old); err == nil {
			rep.Benchmarks = old.Benchmarks
		}
	}
	out, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(out, '\n'), 0o644)
}
