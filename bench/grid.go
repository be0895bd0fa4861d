package main

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"vmwild"
)

// gridParams sizes plan-grid.
type gridParams struct {
	warmups int // reports run as set-up, so caches fill and lazy init finishes off the clock
	pairs   int // the measured phase: one sequential and one all-workers report each
}

func gridSizes(quick bool) gridParams {
	if quick {
		return gridParams{warmups: 0, pairs: 1}
	}
	return gridParams{warmups: 5, pairs: 5}
}

// goldenPath is the committed report at the default seed, relative to the
// repository root.
var goldenPath = filepath.Join("internal", "experiments", "testdata", "report.golden")

// readGolden finds the golden report from the repository root (where the
// benchmark is run) or from this package's directory (where its tests run).
func readGolden() ([]byte, error) {
	data, err := os.ReadFile(goldenPath)
	if os.IsNotExist(err) {
		data, err = os.ReadFile(filepath.Join("..", goldenPath))
	}
	return data, err
}

// gridGroup names the per-layer metric a grid cell's time is booked to, or
// "" for a label the harness does not know — which fails the run, so a new
// cell cannot go unattributed.
func gridGroup(label string) string {
	if label == "table2" || label == "olio" || label == "migration-model" {
		return "analysis.figs_ms"
	}
	head, rest, ok := strings.Cut(label, "/")
	if !ok {
		return ""
	}
	if head == "generate" {
		return "workload.generate_ms"
	}
	switch kind, arg, _ := strings.Cut(rest, "/"); {
	case strings.HasPrefix(kind, "fig"):
		return "analysis.figs_ms"
	case kind == "verify-emulator":
		return "emulator.verify_ms"
	case kind == "run":
		switch arg {
		case "semi-static":
			return "core.semistatic_ms"
		case "stochastic":
			return "core.stochastic_ms"
		case "dynamic":
			return "core.dynamic_ms"
		}
	case kind == "sensitivity":
		return "experiments.sensitivity_ms"
	case kind == "interval":
		return "experiments.interval_ms"
	case kind == "predictor":
		return "experiments.predictor_ms"
	case kind == "improved-migration":
		return "experiments.mechanisms_ms"
	case kind == "blades":
		return "experiments.blades_ms"
	case kind == "execution":
		return "executor.execution_ms"
	case kind == "failure":
		return "executor.failure_ms"
	}
	return ""
}

// runGrid is plan-grid: the offline study. workload, analysis, sizing,
// core, placement, emulator, executor and sweep do all the work and monitor
// none, so a change to the serving loop must leave it flat and a planner
// optimisation shows here first.
func runGrid(ctx context.Context, e *env) (*result, error) {
	p := gridSizes(e.quick)
	res := &result{Workload: "plan-grid"}
	workers := runtime.GOMAXPROCS(0)

	var (
		cells   int
		unknown []string
	)
	// report renders one report; traced hangs a span per cell under the run.
	report := func(workers int, op int64, traced bool) ([]byte, time.Duration, error) {
		var buf bytes.Buffer
		e.tr.set(traced)
		root := e.tr.begin("report", -1, op)
		start := time.Now()
		err := vmwild.WriteReportWith(ctx, &buf, e.seed, vmwild.ReportOptions{
			Workers: workers,
			Progress: func(ev vmwild.ReportProgress) {
				cells++
				group := gridGroup(ev.Label)
				if group == "" {
					unknown = append(unknown, ev.Label)
					return
				}
				now := time.Now()
				e.tr.record(group, root, op, now.Add(-ev.Elapsed), now)
			},
		})
		d := time.Since(start)
		e.tr.end(root)
		e.tr.set(false)
		return buf.Bytes(), d, err
	}

	// Set-up is reading the golden report and one warm-up report on all
	// workers; it is timed warmups times over and the median reported.
	var (
		setups    []float64
		golden    []byte
		goldenErr error
	)
	for i := 0; i < max(p.warmups, 1); i++ {
		start := time.Now()
		golden, goldenErr = readGolden()
		if p.warmups > 0 {
			if _, _, err := report(workers, -1, false); err != nil {
				return nil, err
			}
		}
		setups = append(setups, time.Since(start).Seconds())
	}

	procBase := readProc()
	var (
		seqS, parS         []float64
		allocBytes, allocs []float64
		busy               time.Duration
		first              []byte
	)
	cells = 0
	phase := time.Now()
	traced := e.tr != nil
	run := 0
	for ; run < p.pairs && !e.overdue(phase); run++ {
		var before runtime.MemStats
		if traced {
			runtime.ReadMemStats(&before)
		}
		seq, d, err := report(1, int64(2*run), traced)
		res.Attempted++
		if err != nil {
			res.fail("run %d sequential: %v", run, err)
			continue
		}
		if traced {
			var after runtime.MemStats
			runtime.ReadMemStats(&after)
			allocBytes = append(allocBytes, float64(after.TotalAlloc-before.TotalAlloc))
			allocs = append(allocs, float64(after.Mallocs-before.Mallocs))
		}
		seqS = append(seqS, d.Seconds())
		busy += d

		par, d, err := report(workers, int64(2*run+1), false)
		res.Attempted++
		if err != nil {
			res.fail("run %d parallel: %v", run, err)
			continue
		}
		parS = append(parS, d.Seconds())
		busy += d

		res.check(bytes.Equal(seq, par), "run %d: sequential and %d-worker reports differ", run, workers)
		if first == nil {
			first = seq
		}
		res.check(bytes.Equal(seq, first), "run %d: report differs from the first run's at the same seed", run)
	}
	wall := time.Since(phase)
	procEnd := readProc()
	res.phaseEnd(wall, procEnd)
	res.check(run == p.pairs, "measured phase cut short after %d of %d report pairs: over %v", run, p.pairs, phaseLimit)

	if e.seed == defaultSeed {
		res.check(goldenErr == nil && bytes.Equal(first, golden), "report at the default seed differs from %s (read error: %v)", goldenPath, goldenErr)
	}
	res.check(len(unknown) == 0, "grid cells with no per-layer group: %v", unknown)

	res.add(metric{Name: "setup_s", Value: median(setups), Unit: "s", N: len(setups), Slot: slotSetup})
	res.add(metric{Name: "report_s", Value: median(seqS), Unit: "s", N: len(seqS)})
	res.add(metric{Name: "report_parallel_s", Value: median(parS), Unit: "s", N: len(parS)})
	res.add(metric{Name: "report_ms", Value: 1000 * median(seqS), Unit: "ms", N: len(seqS), Slot: slotP50})
	res.add(metric{Name: "report_ms_p75", Value: 1000 * percentile(seqS, 75), Unit: "ms", N: len(seqS), Slot: slotTail})
	res.add(metric{Name: "grid_cells_per_s", Value: float64(cells) / busy.Seconds(), Unit: "1/s", N: cells, Slot: slotThroughput})

	if e.tr != nil {
		L := newLayers()
		res.Layers = L
		spans := e.tr.closed()
		for name, perRun := range durationsByName(spans) {
			if _, ok := L[name]; ok {
				L[name] = median(perRun)
			}
		}
		if par := median(parS); par > 0 {
			L["sweep.parallel_efficiency"] = median(seqS) / (par * float64(workers))
		}
		L["report.alloc_bytes"] = median(allocBytes)
		L["report.allocs"] = median(allocs)
		L["sweep.report_parallel_ms"] = 1000 * median(parS)
		L["trace.overhead_ratio"] = e.overheadRatio(wall)
		var covered, whole float64
		self := selfTimes(spans)
		for _, s := range spans {
			if s.Name == "report" {
				whole += ms(s.dur())
				covered += ms(s.dur() - self[s.ID])
			}
		}
		if whole > 0 {
			L["trace.span_coverage"] = covered / whole
		}
		procLayers(L, procBase, procEnd)
		if err := e.writeTrace(res.Workload, spans); err != nil {
			return nil, err
		}
	}
	return res, nil
}
