// Command bench is the repository's closed-loop benchmark. It stands up, in
// one process, the stack vmwildd assembles — sharded warehouse, write-ahead
// log, read replicas, query server — drives it the way a deployment is
// driven (agents through ReliableSender, a controller with its journal
// fetching over QueryClient) and reports end-to-end and per-layer numbers.
// Layers are measured from outside: by timing calls into their public
// functions, by wrapping the seams they already expose (controller fetch,
// WAL filesystem, report progress) and by differential runs.
//
//	go run ./bench -workload loop-steady          one workload, untraced
//	go run ./bench -workload loop-steady -trace 1 the traced pass (after an untraced one in a child): per-layer metrics
//	go run ./bench -workload all                  every workload, each in its own process
//	go run ./bench -aa                            the whole set twice; fails when the two disagree
//
// The last line of a single-workload run is one JSON object
// {"correct","attempted","failed","metrics"}. See README.md.
package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"maps"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"time"
)

const (
	defaultSeed = 20141208
	// runSeconds is BENCHMARK.json's run_seconds: about how long the measured
	// phases take on the recording machine. It is documentation; the work of
	// a run is the fixed operation count in its workload's sizes table.
	runSeconds = 20
	// phaseLimit is how long a measured phase may run before it is cut short
	// and the run fails: the tree under test is then several times slower,
	// and the run must still end inside the driver's per-run limit.
	phaseLimit = time.Minute
	// aaReps is how many runs per workload one A/A side takes the median
	// of: single runs on a shared two-core host spread too widely for the
	// tighter bounds.
	aaReps = 3
)

type workloadDef struct {
	name string
	why  string
	// procs is the GOMAXPROCS a single-workload run sets before it starts (0
	// leaves the runtime's default), unless the GOMAXPROCS environment
	// variable says otherwise. The served-stack workloads hold client, server
	// and collector in this one process; on the two hardware threads of the
	// recording host their medians then depended on where the Go scheduler
	// happened to put the goroutines (ack_ms_p50 came out at 2.1 or at 4.0 ms
	// from run to run on identical work, and over half of a 0.09 ms window
	// round trip was cross-thread wake-up). On one P the goroutines hand over
	// to each other in one thread and a run measures the work of an
	// operation. See README.md, "Steadiness".
	procs int
	run   func(context.Context, *env) (*result, error)
}

// workloads in report order, with why each exists.
var workloads = []workloadDef{
	{"loop-steady", "sample to journaled plan through every layer in the paper's order; the headline latency lives here", 1, runLoop},
	{"ingest-burst", "acked journaled ingest from two senders with late samples, then recovery: monitor write path, wal and fsx only", 1, runIngest},
	{"query-fleet", "30-day fleet reads beside trickle writes on fresh replica generations: query tier, replicas, Gorilla and client decode", 1, runQuery},
	{"plan-grid", "the offline study report, sequential and on all workers: workload, analysis, sizing, core, placement, emulator, executor, sweep", 0, runGrid},
}

// env is what a workload run is given.
type env struct {
	seed  int64
	quick bool
	// tr is nil on an untraced run.
	tr *tracer
	// untracedWall is the measured-phase wall of the untraced pass at the
	// same seed, which a traced run takes first in a process of its own; 0
	// when there was none (the tests call the workloads directly).
	untracedWall time.Duration
	outDir       string
}

// overdue reports that the measured phase has passed phaseLimit and must
// stop early. The smoke sizes are exempt: tests check paths, not speed.
func (e *env) overdue(phase time.Time) bool {
	return !e.quick && time.Since(phase) > phaseLimit
}

// overheadRatio is trace.overhead_ratio: this traced pass's measured-phase
// wall over the untraced pass's, same seed, same work.
func (e *env) overheadRatio(wall time.Duration) float64 {
	if e.untracedWall <= 0 {
		return 0
	}
	return wall.Seconds() / e.untracedWall.Seconds()
}

// tempDir makes a scratch directory under the output directory — inside
// the checkout, next to the traces, never in the system temp dir.
func (e *env) tempDir(prefix string) (string, error) {
	if err := os.MkdirAll(e.outDir, 0o755); err != nil {
		return "", err
	}
	return os.MkdirTemp(e.outDir, prefix+"-")
}

func (e *env) writeTrace(workload string, spans []span) error {
	return writeJSONL(filepath.Join(e.outDir, workload+".trace.jsonl"), spans)
}

type options struct {
	workload string
	seed     int64
	trace    int
	aa       bool
	reps     int
	quick    bool
	out      string
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	var o options
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	fs.StringVar(&o.workload, "workload", "all", "workload to run: loop-steady, ingest-burst, query-fleet, plan-grid or all")
	fs.Int64Var(&o.seed, "seed", defaultSeed, "seed of every generated input")
	fs.Float64("seconds", runSeconds, "accepted from the benchmark driver and ignored: a run is a fixed operation count, not a time box")
	fs.IntVar(&o.trace, "trace", 0, "1 runs the traced pass and reports the per-layer metrics instead of the end-to-end ones")
	fs.BoolVar(&o.aa, "aa", false, "run the selected workloads (default all) twice on this tree and compare the two within each metric's bound")
	fs.IntVar(&o.reps, "reps", 1, "runs per workload, each in its own process; the median of per-run values is reported")
	fs.BoolVar(&o.quick, "quick", false, "smoke sizes for tests; never for recorded numbers")
	fs.StringVar(&o.out, "out", filepath.Join("bench", "out"), "directory for traces and scratch state")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() > 0 || o.reps < 1 || (o.trace != 0 && o.trace != 1) {
		fmt.Fprintln(stderr, "bench: bad arguments; see -h")
		return 2
	}

	var err error
	switch {
	case o.aa:
		err = runAA(o, stdout, stderr)
	case o.workload == "all" || o.reps > 1:
		err = runMany(o, stdout, stderr)
	default:
		err = runSingle(o, stdout, stderr)
	}
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	return 0
}

// runSingle runs one workload in this process and prints its report; the
// last line is the contract's JSON object.
func runSingle(o options, stdout, stderr io.Writer) error {
	i := slices.IndexFunc(workloads, func(w workloadDef) bool { return w.name == o.workload })
	if i < 0 {
		return fmt.Errorf("unknown workload %q", o.workload)
	}
	if p := workloads[i].procs; p > 0 && os.Getenv("GOMAXPROCS") == "" {
		runtime.GOMAXPROCS(p)
	}
	e := &env{seed: o.seed, quick: o.quick, outDir: o.out}
	if o.trace == 1 {
		var err error
		if e.untracedWall, err = untracedWall(o, stderr); err != nil {
			return err
		}
		e.tr = newTracer()
	}
	res, err := workloads[i].run(context.Background(), e)
	if err != nil {
		return fmt.Errorf("%s: %w", o.workload, err)
	}
	printReport(stdout, o, res)
	line, err := contractLine(res, o.trace == 1)
	if err != nil {
		return err
	}
	fmt.Fprintln(stdout, line)
	if res.Failed > 0 {
		return fmt.Errorf("%s: output checks failed: %d of %d", o.workload, res.Failed, res.Attempted)
	}
	return nil
}

// untracedWall runs the untraced pass of a traced run — same workload, seed
// and work, in a process of its own — and returns its measured-phase wall.
func untracedWall(o options, stderr io.Writer) (time.Duration, error) {
	o.trace = 0
	var report bytes.Buffer
	if _, err := spawn(o, o.workload, &report, stderr); err != nil {
		return 0, fmt.Errorf("untraced pass: %w", err)
	}
	for _, line := range strings.Split(report.String(), "\n") {
		var (
			name string
			v    float64
		)
		if _, err := fmt.Sscanf(line, "%s %f", &name, &v); err == nil && name == measuredWall {
			return time.Duration(v * float64(time.Second)), nil
		}
	}
	return 0, fmt.Errorf("untraced pass reported no %s", measuredWall)
}

func printReport(w io.Writer, o options, res *result) {
	fmt.Fprintf(w, "== %s  seed=%d trace=%d quick=%v gomaxprocs=%d ==\n", res.Workload, o.seed, o.trace, o.quick, runtime.GOMAXPROCS(0))
	for _, m := range res.Named {
		line := fmt.Sprintf("  %-28s %14.4f %-5s", m.Name, m.Value, m.Unit)
		if m.N > 0 {
			line += fmt.Sprintf(" n=%d", m.N)
		}
		if m.Slot != "" && m.Slot != m.Name {
			line += " -> " + m.Slot
		}
		if m.Note != "" {
			line += "  (" + m.Note + ")"
		}
		fmt.Fprintln(w, line)
	}
	fmt.Fprintf(w, "  %-28s %14.6f ratio (%d of %d)\n", "failed_ops_ratio", res.failedRatio(), res.Failed, res.Attempted)
	for _, f := range res.Failures {
		fmt.Fprintln(w, "  FAILED:", f)
	}
	if res.Layers == nil {
		return
	}
	fmt.Fprintln(w, "  per-layer (0 = the layer does no work on this workload, or the metric is another workload's):")
	for _, l := range perLayer {
		fmt.Fprintf(w, "    %-44s %16.4f %s\n", l.name, res.Layers[l.name], l.unit)
	}
}

// contractOut is the last line of a run.
type contractOut struct {
	Correct   bool                     `json:"correct"`
	Attempted int                      `json:"attempted"`
	Failed    int                      `json:"failed"`
	Metrics   map[string]contractValue `json:"metrics"`
}

type contractValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func contractLine(res *result, traced bool) (string, error) {
	out := contractOut{
		Correct:   res.Failed == 0,
		Attempted: max(res.Attempted, 1),
		Failed:    res.Failed,
		Metrics:   make(map[string]contractValue),
	}
	if traced {
		for _, l := range perLayer {
			out.Metrics[l.name] = contractValue{Value: res.Layers[l.name], Unit: l.unit}
		}
	} else {
		for _, m := range endToEnd {
			v, ok := res.slot(m.name)
			if !ok {
				return "", fmt.Errorf("%s filled no %s", res.Workload, m.name)
			}
			out.Metrics[m.name] = contractValue{Value: v, Unit: m.unit}
		}
	}
	b, err := json.Marshal(out)
	return string(b), err
}

// spawn runs one workload once in a child process of this same binary — a
// process of its own, so peak RSS, CPU time and GC pauses are that run's
// alone — streams its report through and returns its last line.
func spawn(o options, workload string, stdout, stderr io.Writer) (contractOut, error) {
	self, err := os.Executable()
	if err != nil {
		return contractOut{}, err
	}
	args := []string{
		"-workload", workload,
		"-seed", strconv.FormatInt(o.seed, 10),
		"-trace", strconv.Itoa(o.trace),
		"-out", o.out,
	}
	if o.quick {
		args = append(args, "-quick")
	}
	cmd := exec.Command(self, args...)
	cmd.Stderr = stderr
	pipe, err := cmd.StdoutPipe()
	if err != nil {
		return contractOut{}, err
	}
	if err := cmd.Start(); err != nil {
		return contractOut{}, err
	}
	var last string
	sc := bufio.NewScanner(pipe)
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		last = sc.Text()
		if !strings.HasPrefix(last, "{") {
			fmt.Fprintln(stdout, last)
		}
	}
	werr := cmd.Wait()
	var out contractOut
	if jerr := json.Unmarshal([]byte(last), &out); jerr != nil {
		return out, fmt.Errorf("%s: no result line (%v; exit: %v)", workload, jerr, werr)
	}
	if werr != nil {
		return out, fmt.Errorf("%s: %w", workload, werr)
	}
	return out, nil
}

func selected(o options) []string {
	if o.workload != "all" {
		return []string{o.workload}
	}
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	return names
}

// runSet runs every selected workload o.reps times and returns, per
// workload, the median of each metric over the runs.
func runSet(o options, stdout, stderr io.Writer) (map[string]map[string]contractValue, error) {
	set := make(map[string]map[string]contractValue)
	var failed error
	for _, name := range selected(o) {
		values := make(map[string][]float64)
		units := make(map[string]string)
		for r := 0; r < o.reps; r++ {
			out, err := spawn(o, name, stdout, stderr)
			if err != nil {
				failed = errors.Join(failed, err)
			}
			for k, v := range out.Metrics {
				values[k] = append(values[k], v.Value)
				units[k] = v.Unit
			}
		}
		set[name] = make(map[string]contractValue)
		for k, xs := range values {
			set[name][k] = contractValue{Value: median(xs), Unit: units[k]}
		}
	}
	return set, failed
}

// runMany is -workload all and -reps N: child processes, medians printed.
func runMany(o options, stdout, stderr io.Writer) error {
	set, err := runSet(o, stdout, stderr)
	fmt.Fprintf(stdout, "== medians over %d run(s) per workload ==\n", o.reps)
	for _, name := range selected(o) {
		for _, k := range slices.Sorted(maps.Keys(set[name])) {
			v := set[name][k]
			fmt.Fprintf(stdout, "  %-13s %-44s %16.4f %s\n", name, k, v.Value, v.Unit)
		}
	}
	return err
}

// runAA measures the same tree twice and compares: every end-to-end metric
// of every workload must agree within its bound, or the benchmark cannot
// tell a regression of that size from noise.
func runAA(o options, stdout, stderr io.Writer) error {
	o.trace = 0
	if o.reps == 1 {
		o.reps = aaReps
	}
	var sides [2]map[string]map[string]contractValue
	var failed error
	for i := range sides {
		var err error
		sides[i], err = runSet(o, io.Discard, stderr)
		failed = errors.Join(failed, err)
	}
	type row struct {
		Workload string  `json:"workload"`
		Metric   string  `json:"metric"`
		Unit     string  `json:"unit"`
		A        float64 `json:"a"`
		B        float64 `json:"b"`
		RelDiff  float64 `json:"rel_diff"`
		Bound    float64 `json:"bound"`
		OK       bool    `json:"ok"`
	}
	var rows []row
	fmt.Fprintf(stdout, "A/A: two sets of %d run(s) per workload, seed %d\n", o.reps, o.seed)
	fmt.Fprintf(stdout, "%-13s %-18s %14s %14s %8s %6s\n", "workload", "metric", "A", "B", "diff", "bound")
	for _, name := range selected(o) {
		for _, m := range endToEnd {
			a, b := sides[0][name][m.name], sides[1][name][m.name]
			r := row{Workload: name, Metric: m.name, Unit: m.unit, A: a.Value, B: b.Value, Bound: m.bound}
			if a.Value != 0 {
				r.RelDiff = (b.Value - a.Value) / a.Value
			}
			r.OK = a.Value != 0 && b.Value != 0 && math.Abs(r.RelDiff) <= m.bound
			rows = append(rows, r)
			verdict := ""
			if !r.OK {
				verdict = "  OUT OF BOUND"
				failed = errors.Join(failed, fmt.Errorf("%s %s: A/A difference %.3f exceeds bound %.2f", name, m.name, r.RelDiff, m.bound))
			}
			fmt.Fprintf(stdout, "%-13s %-18s %14.4f %14.4f %+8.3f %6.2f%s\n", name, m.name, a.Value, b.Value, r.RelDiff, m.bound, verdict)
		}
	}
	doc, err := json.MarshalIndent(map[string]any{
		"machine": describeMachine(mustAbs(o.out)),
		"seed":    o.seed,
		"reps":    o.reps,
		"aa":      rows,
	}, "", "  ")
	if err != nil {
		return err
	}
	fmt.Fprintln(stdout, string(doc))
	return failed
}

func mustAbs(p string) string {
	if a, err := filepath.Abs(p); err == nil {
		return a
	}
	return p
}
