package experiments

import (
	"bytes"
	"context"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"reflect"
	"sync"
	"testing"

	"vmwild/internal/core"
	"vmwild/internal/emulator"
	"vmwild/internal/placement"
	"vmwild/internal/workload"
)

// The golden-report wall. testdata/report.golden is the full report at the
// default seed, committed so that any drift in the reproduced numbers —
// silent or not — fails the build. The same bytes must come out of the
// sequential path and the parallel sweep at any worker count; regenerate
// with
//
//	go test ./internal/experiments -run TestGoldenReport -update

var update = flag.Bool("update", false, "rewrite testdata/report.golden from the current code")

const goldenPath = "testdata/report.golden"

// reportRun caches one full-grid collection per worker count, shared by the
// golden and parallel tests so the package does not repeat 25s collections.
type reportRun struct {
	once sync.Once
	res  *Results
	out  []byte
	err  error
}

var (
	seqRun reportRun // workers = 1
	parRun reportRun // workers = 8
)

func (r *reportRun) collect(t *testing.T, workers int) (*Results, []byte) {
	t.Helper()
	r.once.Do(func() {
		res, err := Collect(context.Background(), DefaultConfig(), Options{Workers: workers})
		if err != nil {
			r.err = err
			return
		}
		var buf bytes.Buffer
		if err := Render(&buf, res); err != nil {
			r.err = err
			return
		}
		r.res, r.out = res, buf.Bytes()
	})
	if r.err != nil {
		t.Fatal(r.err)
	}
	return r.res, r.out
}

// TestGoldenReport: WriteAll reproduces the committed report byte for byte
// at the default seed.
func TestGoldenReport(t *testing.T) {
	skipHeavy(t, "full report collection")
	_, out := seqRun.collect(t, 1)
	if *update {
		if err := os.WriteFile(goldenPath, out, 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s (%d bytes)", goldenPath, len(out))
		return
	}
	want, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("read golden (regenerate with -update): %v", err)
	}
	diffBytes(t, "sequential report", want, out)

	// WriteAll is the public sequential entry point; it must emit the very
	// bytes the cached collection rendered.
	var buf bytes.Buffer
	if err := WriteAll(&buf, DefaultConfig()); err != nil {
		t.Fatal(err)
	}
	diffBytes(t, "WriteAll", want, buf.Bytes())
}

// TestParallelReportMatchesGolden: the sweep engine at 8 workers emits the
// identical bytes — the parallel==sequential guarantee, end to end.
func TestParallelReportMatchesGolden(t *testing.T) {
	skipHeavy(t, "full report collection")
	_, out := parRun.collect(t, 8)
	want, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("read golden (regenerate with -update): %v", err)
	}
	diffBytes(t, "parallel report (8 workers)", want, out)
}

// TestFullGridDeterminism: the typed results of the full grid agree cell by
// cell between the sequential and the 8-worker collection.
func TestFullGridDeterminism(t *testing.T) {
	skipHeavy(t, "full report collection")
	seq, _ := seqRun.collect(t, 1)
	par, _ := parRun.collect(t, 8)
	assertResultsEqual(t, "workers 1 vs 8 (full grid)", seq, par)
}

// TestSweepDeterminism: the regression net for shared-RNG leaks. A reduced
// grid (the Airlines datacenter) is collected from scratch at worker counts
// 1, 4 and 8; every typed cell must be identical. This test runs under the
// race detector, where it doubles as the concurrency check for the whole
// collect machinery (once-caches, run memoization, slot writes).
func TestSweepDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("reduced-grid collection")
	}
	grid := func(workers int) *Results {
		t.Helper()
		res, err := collect(context.Background(), DefaultConfig(), Options{Workers: workers},
			[]*workload.Profile{workload.Airlines()})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		return res
	}
	base := grid(1)
	for _, workers := range []int{4, 8} {
		assertResultsEqual(t, fmt.Sprintf("workers 1 vs %d", workers), base, grid(workers))
	}
}

// TestSharedCacheConcurrency hammers the context-level demand and
// correlation caches from 8 goroutines at once. Every caller must observe
// the same matrix (pointer identity: each key computes exactly once), the
// shared correlation function must tolerate concurrent reads and fills of
// its memo matrix, and the resulting plans must agree. Not gated by
// skipHeavy: under -race this is the concurrency proof for both caches.
func TestSharedCacheConcurrency(t *testing.T) {
	c := smallContext(t)

	const workers = 8
	var (
		wg    sync.WaitGroup
		mats  [workers]*core.DemandMatrix
		plans [workers]*core.Plan
		errs  [workers]error
	)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			in := c.Input()
			m, err := c.SizedDemands(in)
			if err != nil {
				errs[w] = err
				return
			}
			mats[w] = m
			table, err := c.CorrTable(core.DefaultIntervalHours)
			if err != nil {
				errs[w] = err
				return
			}
			corr := table.Func()
			servers := c.Monitoring.Servers
			for i := range servers {
				for j := i + 1; j < len(servers); j++ {
					corr(servers[i].ID, servers[j].ID)
				}
			}
			plan, err := c.PlanDynamic(in)
			if err != nil {
				errs[w] = err
				return
			}
			plans[w] = plan
		}(w)
	}
	wg.Wait()
	for w, err := range errs {
		if err != nil {
			t.Fatalf("worker %d: %v", w, err)
		}
	}
	for w := 1; w < workers; w++ {
		if mats[w] != mats[0] {
			t.Errorf("worker %d observed a different demand matrix (key computed more than once)", w)
		}
		if plans[w].Provisioned != plans[0].Provisioned || plans[w].Migrations != plans[0].Migrations {
			t.Errorf("worker %d plan differs: %d hosts / %d migrations, worker 0 got %d / %d",
				w, plans[w].Provisioned, plans[w].Migrations, plans[0].Provisioned, plans[0].Migrations)
		}
	}
}

// smallContext builds a 48-server data center: large enough for consolidation
// and correlation pooling to matter, small enough for -race.
func smallContext(t *testing.T) *Context {
	t.Helper()
	p, err := workload.FromTemplate(workload.Template{
		Name: "cache-race", Servers: 48, WebFraction: 0.5, Burstiness: 0.5,
	})
	if err != nil {
		t.Fatal(err)
	}
	c, err := NewContext(p, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// TestSharedInputsMatchInline: the context's shared artefacts — demand
// histories and matrices for the dynamic planner, correlation tables and
// envelopes for the stochastic one — and the plan-only dynamic path are
// pure performance. A plan routed through the context must equal the plan
// the planner computes inline from a bare input: same counters (the data
// volume bit for bit) and the same Encode bytes for every scheduled
// placement, at the default keys and at a non-default interval and body
// percentile. Not gated by skipHeavy, so it also runs under -race.
func TestSharedInputsMatchInline(t *testing.T) {
	c := smallContext(t)
	keys := []struct {
		name       string
		interval   int
		percentile float64
	}{
		{"default", 0, 0},
		{"interval=4,body=95", 4, 95},
	}
	for _, k := range keys {
		in := c.Input()
		in.IntervalHours, in.BodyPercentile = k.interval, k.percentile

		if shared := c.withDemands(in); shared.Demands == nil {
			t.Fatalf("%s: context attached no demand matrix", k.name)
		}
		if shared := c.withCorrelations(in); shared.CorrIndex == nil || shared.Envelopes == nil {
			t.Fatalf("%s: context attached no correlation table or envelopes", k.name)
		}

		for _, planner := range []core.Planner{core.Dynamic{}, core.Stochastic{}} {
			tag := fmt.Sprintf("%s %s", k.name, planner.Name())
			inline, err := planner.Plan(in)
			if err != nil {
				t.Fatalf("%s inline: %v", tag, err)
			}
			run, err := c.RunWith(planner, in)
			if err != nil {
				t.Fatalf("%s shared: %v", tag, err)
			}
			assertSameCounters(t, tag+" RunWith", inline, run.Plan)
			want, got := schedulePlacements(inline.Schedule), schedulePlacements(run.Plan.Schedule)
			if len(want) == 0 || len(want) != len(got) {
				t.Fatalf("%s: %d scheduled placements inline, %d shared", tag, len(want), len(got))
			}
			for i := range want {
				wb, err := want[i].Encode()
				if err != nil {
					t.Fatal(err)
				}
				gb, err := got[i].Encode()
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(wb, gb) {
					t.Errorf("%s: scheduled placement %d differs from the inline plan", tag, i)
				}
			}

			if _, ok := planner.(core.Dynamic); ok {
				only, err := c.PlanDynamic(in)
				if err != nil {
					t.Fatalf("%s PlanDynamic: %v", tag, err)
				}
				assertSameCounters(t, tag+" PlanDynamic", inline, only)
				if only.Schedule != nil {
					t.Errorf("%s: PlanDynamic returned a schedule", tag)
				}
			}
		}
	}
}

func assertSameCounters(t *testing.T, tag string, want, got *core.Plan) {
	t.Helper()
	if got.Provisioned != want.Provisioned || got.Migrations != want.Migrations ||
		math.Float64bits(got.MigrationDataMB) != math.Float64bits(want.MigrationDataMB) {
		t.Errorf("%s: %d hosts / %d migrations / %v MB, inline plan %d / %d / %v",
			tag, got.Provisioned, got.Migrations, got.MigrationDataMB,
			want.Provisioned, want.Migrations, want.MigrationDataMB)
	}
}

// schedulePlacements lists every placement a planner scheduled.
func schedulePlacements(s emulator.Schedule) []*placement.Placement {
	switch s := s.(type) {
	case emulator.StaticSchedule:
		return []*placement.Placement{s.P}
	case emulator.IntervalSchedule:
		return s.Placements
	}
	return nil
}

// TestCollectCancellation: a canceled context aborts the grid promptly with
// the context error instead of running (or deadlocking on) the remaining
// cells.
func TestCollectCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := Collect(ctx, DefaultConfig(), Options{Workers: 4})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("Collect on canceled context = %v, want context.Canceled", err)
	}
}

// assertResultsEqual compares two collections field by field so a
// determinism regression names the drifted artifact.
func assertResultsEqual(t *testing.T, tag string, a, b *Results) {
	t.Helper()
	va, vb := reflect.ValueOf(*a), reflect.ValueOf(*b)
	tp := reflect.TypeOf(*a)
	for i := 0; i < tp.NumField(); i++ {
		if !reflect.DeepEqual(va.Field(i).Interface(), vb.Field(i).Interface()) {
			t.Errorf("%s: artifact %s differs between runs", tag, tp.Field(i).Name)
		}
	}
}

// diffBytes fails with the first differing line, so a golden mismatch
// points at the drifted table instead of dumping 14 KB.
func diffBytes(t *testing.T, tag string, want, got []byte) {
	t.Helper()
	if bytes.Equal(want, got) {
		return
	}
	wantLines, gotLines := bytes.Split(want, []byte("\n")), bytes.Split(got, []byte("\n"))
	for i := 0; i < len(wantLines) && i < len(gotLines); i++ {
		if !bytes.Equal(wantLines[i], gotLines[i]) {
			t.Fatalf("%s: line %d differs\n  want: %s\n  got:  %s", tag, i+1, wantLines[i], gotLines[i])
		}
	}
	t.Fatalf("%s: length differs: want %d lines, got %d", tag, len(wantLines), len(gotLines))
}
