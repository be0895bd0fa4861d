package main

import (
	"bytes"
	"context"
	"encoding/json"
	"maps"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
	"time"

	"vmwild"
)

func TestPercentileSelection(t *testing.T) {
	// The rule: report the highest ladder percentile with at least ten
	// samples beyond it.
	for _, tc := range []struct {
		n    int
		want float64
		ok   bool
	}{
		{n: 5, ok: false},
		{n: 19, ok: false},
		{n: 20, want: 50, ok: true},
		{n: 39, want: 50, ok: true},
		{n: 40, want: 75, ok: true},
		{n: 100, want: 90, ok: true},
		{n: 200, want: 95, ok: true},
		{n: 999, want: 95, ok: true},
		{n: 1000, want: 99, ok: true},
		{n: 10000, want: 99.9, ok: true},
	} {
		got, ok := supportedTail(tc.n)
		if ok != tc.ok || got != tc.want {
			t.Errorf("supportedTail(%d) = %v, %v; want %v, %v", tc.n, got, ok, tc.want, tc.ok)
		}
	}

	xs := make([]float64, 40)
	for i := range xs {
		xs[len(xs)-1-i] = float64(i + 1) // 40..1: percentile must sort a copy
	}
	if got := percentile(xs, 50); got != 20 {
		t.Errorf("p50 of 1..40 = %v, want 20", got)
	}
	if got := percentile(xs, 75); got != 30 {
		t.Errorf("p75 of 1..40 = %v, want 30", got)
	}
	if got := percentile(xs, 100); got != 40 {
		t.Errorf("p100 of 1..40 = %v, want 40", got)
	}
	if xs[0] != 40 {
		t.Error("percentile reordered its input")
	}
	if m := timing("x", "ms", xs, 75, ""); m.Note != "" || m.N != 40 {
		t.Errorf("p75 of 40 samples is supported, got note %q n=%d", m.Note, m.N)
	}
	if m := timing("x", "ms", xs, 99, ""); !strings.Contains(m.Note, "p75") {
		t.Errorf("p99 of 40 samples should be noted as beyond p75, got %q", m.Note)
	}
	if m := timing("x", "ms", xs[:12], 50, ""); !strings.Contains(m.Note, "no percentile") {
		t.Errorf("12 samples support no percentile, got %q", m.Note)
	}
}

func TestSpanSelfTime(t *testing.T) {
	spans := []span{
		{ID: 0, Parent: -1, Name: "interval", Start: 0, End: 100},
		{ID: 1, Parent: 0, Name: "flush", Start: 10, End: 40},
		{ID: 2, Parent: 0, Name: "run", Start: 50, End: 90},
		{ID: 3, Parent: 2, Name: "fetch", Start: 55, End: 70},
		// Two overlapping children of run (parallel workers): their union
		// [60, 85) is covered once.
		{ID: 4, Parent: 2, Name: "journal", Start: 60, End: 85},
		// A child that overruns its parent is clipped to it.
		{ID: 5, Parent: 1, Name: "late", Start: 35, End: 60},
	}
	self := selfTimes(spans)
	for id, want := range map[int]time.Duration{
		0: 100 - 30 - 40, // minus flush and run
		1: 30 - 5,        // minus the clipped [35, 40)
		2: 40 - 30,       // minus the union [55, 85)
		3: 15,
		4: 25,
		5: 25,
	} {
		if self[id] != want {
			t.Errorf("self time of span %d (%s) = %d, want %d", id, spans[id].Name, self[id], want)
		}
	}

	by := durationsByName([]span{
		{ID: 0, Name: "journal", Op: 7, Start: 0, End: 2e6},
		{ID: 1, Name: "journal", Op: 7, Start: 3e6, End: 4e6},
		{ID: 2, Name: "journal", Op: 9, Start: 5e6, End: 10e6},
	})
	if got := by["journal"]; !slices.Equal(got, []float64{3, 5}) {
		t.Errorf("journal ms per op = %v, want [3 5]", got)
	}
}

func TestTracerOffRecordsNothing(t *testing.T) {
	var nilTracer *tracer
	if id := nilTracer.begin("x", -1, 0); id != -1 || nilTracer.end(id) != 0 {
		t.Error("nil tracer must ignore spans")
	}
	tr := newTracer()
	tr.end(tr.begin("off", -1, 0))
	tr.set(true)
	id := tr.begin("on", -1, 1)
	tr.set(false) // a span opened while on still closes
	tr.end(id)
	spans := tr.closed()
	if len(spans) != 1 || spans[0].Name != "on" || spans[0].End < spans[0].Start {
		t.Errorf("spans = %+v, want just the one opened while on", spans)
	}
}

func TestCountingFS(t *testing.T) {
	dir := t.TempDir()
	var ops []string
	cfs := newCountingFS(vmwild.OSFS)
	cfs.onOp = func(op string, start, end time.Time) {
		if end.Before(start) {
			t.Errorf("%s ended before it started", op)
		}
		ops = append(ops, op)
	}
	create := os.O_RDWR | os.O_CREATE | os.O_TRUNC

	// A segment: three appends, two fsyncs.
	seg, err := cfs.OpenFile(filepath.Join(dir, "wal-0000000000000000.log"), create, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range []int{10, 20, 30} {
		if _, err := seg.Write(make([]byte, n)); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 2; i++ {
		if err := seg.Sync(); err != nil {
			t.Fatal(err)
		}
	}
	if err := seg.Close(); err != nil {
		t.Fatal(err)
	}

	// A checkpoint the way wal.Log takes one: temp file, write, fsync,
	// close, rename, directory sync.
	tmp := filepath.Join(dir, "checkpoint-0000000000000001.ckpt.tmp")
	ck, err := cfs.OpenFile(tmp, create, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ck.Write(make([]byte, 1000)); err != nil {
		t.Fatal(err)
	}
	if err := ck.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := ck.Close(); err != nil {
		t.Fatal(err)
	}
	if err := cfs.Rename(tmp, strings.TrimSuffix(tmp, ".tmp")); err != nil {
		t.Fatal(err)
	}
	if err := cfs.SyncDir(dir); err != nil {
		t.Fatal(err)
	}
	// Reading back is not a write.
	if _, err := cfs.ReadFile(strings.TrimSuffix(tmp, ".tmp")); err != nil {
		t.Fatal(err)
	}

	strip := func(c fsCounters) fsCounters { c.WriteNs, c.FsyncNs = 0, 0; return c }
	if got, want := strip(cfs.snapshot(classSegment)), (fsCounters{Writes: 3, WriteBytes: 60, Fsyncs: 2, Creates: 1}); got != want {
		t.Errorf("segment class = %+v, want %+v", got, want)
	}
	if got, want := strip(cfs.snapshot(classCheckpoint)), (fsCounters{Writes: 1, WriteBytes: 1000, Fsyncs: 1, Creates: 1}); got != want {
		t.Errorf("checkpoint class = %+v, want %+v", got, want)
	}
	if got, want := strip(cfs.snapshot(classOther)), (fsCounters{Fsyncs: 1}); got != want {
		t.Errorf("other class = %+v, want %+v", got, want)
	}
	if got, want := strip(cfs.total()), (fsCounters{Writes: 4, WriteBytes: 1060, Fsyncs: 4, Creates: 2}); got != want {
		t.Errorf("total = %+v, want %+v", got, want)
	}
	if tot := cfs.total(); tot.WriteNs <= 0 || tot.FsyncNs <= 0 {
		t.Errorf("write and fsync time must be positive, got %d and %d ns", tot.WriteNs, tot.FsyncNs)
	}
	base := cfs.snapshotAll()
	if d := cfs.snapshot(classSegment).minus(base[classSegment]); d != (fsCounters{}) {
		t.Errorf("diff against own snapshot = %+v, want zero", d)
	}
	wantOps := []string{"open", "write", "write", "write", "fsync", "fsync", "close",
		"open", "write", "fsync", "close", "rename", "fsync", "read"}
	if !slices.Equal(ops, wantOps) {
		t.Errorf("ops = %v, want %v", ops, wantOps)
	}
}

func TestGridGroups(t *testing.T) {
	known := make(map[string]bool)
	for _, l := range perLayer {
		known[l.name] = true
	}
	for label, want := range map[string]string{
		"generate/A":                "workload.generate_ms",
		"table2":                    "analysis.figs_ms",
		"olio":                      "analysis.figs_ms",
		"migration-model":           "analysis.figs_ms",
		"A/fig1":                    "analysis.figs_ms",
		"C/fig2-peak-avg-cpu":       "analysis.figs_ms",
		"B/fig6-resource-ratio":     "analysis.figs_ms",
		"D/fig10-11-utilization":    "analysis.figs_ms",
		"A/verify-emulator":         "emulator.verify_ms",
		"A/run/semi-static":         "core.semistatic_ms",
		"B/run/stochastic":          "core.stochastic_ms",
		"C/run/dynamic":             "core.dynamic_ms",
		"D/sensitivity/baselines":   "experiments.sensitivity_ms",
		"A/sensitivity/bound=0.85":  "experiments.sensitivity_ms",
		"A/interval/4h":             "experiments.interval_ms",
		"A/predictor/recent-peak":   "experiments.predictor_ms",
		"A/improved-migration":      "experiments.mechanisms_ms",
		"A/blades":                  "experiments.blades_ms",
		"A/execution":               "executor.execution_ms",
		"A/failure":                 "executor.failure_ms",
		"A/run/ant-colony":          "", // a planner the harness has not been told about
		"A/brand-new-study":         "",
		"brand-new-top-level-study": "",
	} {
		got := gridGroup(label)
		if got != want {
			t.Errorf("gridGroup(%q) = %q, want %q", label, got, want)
		}
		if got != "" && !known[got] {
			t.Errorf("gridGroup(%q) = %q, which is not a per-layer metric", label, got)
		}
	}
	// That the table above covers every label the report really emits is
	// checked where the report runs: TestQuickSmoke's plan-grid run fails
	// on any cell without a group.
}

// benchmarkFile mirrors BENCHMARK.json.
type benchmarkFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

// TestBenchmarkFileMatchesHarness keeps BENCHMARK.json and the tables the
// harness prints from in step.
func TestBenchmarkFileMatchesHarness(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkFile
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&b); err != nil {
		t.Fatal(err)
	}
	if b.RunSeconds != runSeconds {
		t.Errorf("run_seconds %d, the harness documents %d", b.RunSeconds, runSeconds)
	}
	if !slices.Equal(b.Paths, []string{"bench"}) || !slices.Equal(b.Command, []string{"go", "run", "./bench"}) {
		t.Errorf("command %v paths %v", b.Command, b.Paths)
	}
	if len(b.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in the file, %d in the harness", len(b.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if b.Workloads[i].Name != w.name || b.Workloads[i].Why != w.why {
			t.Errorf("workload %d: file has %q (%q), harness %q (%q)", i, b.Workloads[i].Name, b.Workloads[i].Why, w.name, w.why)
		}
	}
	if len(b.EndToEnd) != len(endToEnd) {
		t.Fatalf("%d end-to-end metrics in the file, %d in the harness", len(b.EndToEnd), len(endToEnd))
	}
	for i, m := range endToEnd {
		f := b.EndToEnd[i]
		if f.Name != m.name || f.Unit != m.unit || f.Bound != m.bound {
			t.Errorf("end-to-end %d: file has %+v, harness %+v", i, f, m)
		}
		if f.Bound <= 0 || f.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", f.Name, f.Bound)
		}
	}
	if len(b.PerLayer) != len(perLayer) {
		t.Fatalf("%d per-layer metrics in the file, %d in the harness", len(b.PerLayer), len(perLayer))
	}
	for i, m := range perLayer {
		if f := b.PerLayer[i]; f.Name != m.name || f.Unit != m.unit {
			t.Errorf("per-layer %d: file has %+v, harness %+v", i, f, m)
		}
	}
}

// TestQuickSmoke runs every workload at smoke size, traced, so tier-1
// exercises every workload path, every output check and both output
// shapes. Its numbers mean nothing.
func TestQuickSmoke(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			if w.name == "plan-grid" && (testing.Short() || raceEnabled) {
				t.Skip("the full report grid is too slow for -short and -race runs")
			}
			for _, traced := range []bool{false, true} {
				if w.name == "plan-grid" && !traced {
					continue // one grid pass is enough; the traced one covers more
				}
				e := &env{seed: defaultSeed, quick: true, outDir: t.TempDir()}
				if traced {
					e.tr = newTracer()
				}
				res, err := w.run(context.Background(), e)
				if err != nil {
					t.Fatal(err)
				}
				if res.Failed != 0 || res.Attempted == 0 {
					t.Errorf("traced=%v: %d of %d operations failed: %v", traced, res.Failed, res.Attempted, res.Failures)
				}
				line, err := contractLine(res, traced)
				if err != nil {
					t.Fatal(err)
				}
				var out contractOut
				if err := json.Unmarshal([]byte(line), &out); err != nil {
					t.Fatal(err)
				}
				var want []string
				if traced {
					for _, m := range perLayer {
						want = append(want, m.name)
					}
					if _, err := os.Stat(filepath.Join(e.outDir, w.name+".trace.jsonl")); err != nil {
						t.Errorf("no trace written: %v", err)
					}
				} else {
					for _, m := range endToEnd {
						want = append(want, m.name)
						if out.Metrics[m.name].Value <= 0 {
							t.Errorf("%s = %v, want a positive value", m.name, out.Metrics[m.name].Value)
						}
					}
				}
				slices.Sort(want)
				if got := slices.Sorted(maps.Keys(out.Metrics)); !slices.Equal(got, want) {
					t.Errorf("traced=%v: metrics %v, want %v", traced, got, want)
				}
				if !out.Correct {
					t.Errorf("traced=%v: correct is false", traced)
				}
				// Scratch state is removed; only the trace may remain.
				left, _ := filepath.Glob(filepath.Join(e.outDir, "*-*"))
				for _, f := range left {
					if !strings.HasSuffix(f, ".trace.jsonl") {
						t.Errorf("scratch state left behind: %s", f)
					}
				}
			}
		})
	}
}

func TestRunRejectsBadArguments(t *testing.T) {
	var stdout, stderr bytes.Buffer
	for _, args := range [][]string{
		{"-workload", "no-such-workload", "-quick"},
		{"-trace", "2"},
		{"-reps", "0"},
		{"stray"},
	} {
		if code := run(args, &stdout, &stderr); code == 0 {
			t.Errorf("run(%v) = 0, want a failure", args)
		}
	}
	if stdout.Len() != 0 {
		t.Errorf("a refused run printed a result: %q", stdout.String())
	}
}
