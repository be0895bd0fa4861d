package main

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"vmwild"
	"vmwild/internal/core"
	"vmwild/internal/trace"
)

// loopParams sizes loop-steady.
type loopParams struct {
	servers      int // fleet size
	preloadHours int // history ingested in process during set-up
	perHour      int // samples per server per virtual hour
	stepHours    int // virtual hours queued per interval
	intervals    int // the measured phase: 20 put ten samples beyond the median
	setups       int // set-ups timed; the last one is kept
}

func loopSizes(quick bool) loopParams {
	if quick {
		return loopParams{servers: 24, preloadHours: 168, perHour: 4, stepHours: 2, intervals: 4, setups: 1}
	}
	return loopParams{servers: 400, preloadHours: 168, perHour: 4, stepHours: 2, intervals: 20, setups: 5}
}

// loopState is one assembled loop: serving stack, sender, query client,
// controller and its journal.
type loopState struct {
	fleet   *fleet
	dir     string
	stack   *stack
	whFS    *countingFS // nil on an untraced run
	jFS     *countingFS
	sender  *vmwild.ReliableSender
	qc      *vmwild.QueryClient
	journal *vmwild.ControllerJournal
	ctrl    *vmwild.Controller

	// Set by the harness around RunInterval, read by the wrapped seams
	// (same goroutine: RunInterval calls Fetch and the journal inline).
	runSpan int
	op      int64
	lastSet *vmwild.TraceSet
}

func plannerInput(stepHours int) vmwild.PlanInput {
	return vmwild.PlanInput{Host: vmwild.HS23Elite(), IntervalHours: stepHours}
}

func setupLoop(ctx context.Context, e *env, p loopParams) (*loopState, error) {
	fl, err := newFleet(e.seed, p.servers, p.preloadHours+p.intervals*p.stepHours)
	if err != nil {
		return nil, err
	}
	dir, err := e.tempDir("loop")
	if err != nil {
		return nil, err
	}
	s := &loopState{fleet: fl, dir: dir, runSpan: -1}
	var whFS, jFS vmwild.FS
	if e.tr != nil {
		s.whFS, s.jFS = newCountingFS(vmwild.OSFS), newCountingFS(vmwild.OSFS)
		s.jFS.onOp = func(_ string, start, end time.Time) {
			e.tr.record("controller.journal", s.runSpan, s.op, start, end)
		}
		whFS, jFS = s.whFS, s.jFS
	}
	s.stack, err = startStack(stackConfig{
		walDir:   filepath.Join(dir, "warehouse"),
		fs:       whFS,
		replicas: true,
		query:    true,
	}, func(w *vmwild.Warehouse) error {
		_, err := fl.preload(w, p.preloadHours, p.perHour)
		return err
	})
	if err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	s.journal, err = vmwild.OpenControllerJournal(filepath.Join(dir, "controller"), vmwild.WALOptions{Sync: vmwild.SyncInterval, FS: jFS})
	if err != nil {
		s.close()
		return nil, fmt.Errorf("open controller journal: %w", err)
	}
	s.qc, err = vmwild.DialQuery(ctx, s.stack.queryAddr)
	if err != nil {
		s.close()
		return nil, err
	}
	s.ctrl, err = vmwild.NewController(vmwild.ControllerConfig{
		Fetch: func() (*vmwild.TraceSet, error) {
			sp := e.tr.begin("controller.fetch", s.runSpan, s.op)
			set, err := s.qc.FetchSet(fl.set.Name, fl.specs, epoch)
			e.tr.end(sp)
			s.lastSet = set
			return set, err
		},
		Planner:         plannerInput(p.stepHours),
		Executor:        vmwild.DefaultExecutorConfig(),
		MinHistoryHours: p.preloadHours,
		Journal:         s.journal,
	})
	if err != nil {
		s.close()
		return nil, err
	}
	s.sender = newSender(s.stack.ingestAddr, agentName(0), e.seed, p.servers*p.perHour*p.stepHours)
	return s, nil
}

// close tears everything down and waits for the servers' goroutines.
func (s *loopState) close() {
	if s.sender != nil {
		s.sender.Close()
	}
	if s.qc != nil {
		s.qc.Close()
	}
	if s.journal != nil {
		s.journal.Close()
	}
	if s.stack != nil {
		s.stack.Close()
	}
	os.RemoveAll(s.dir)
}

// runLoop is loop-steady: the only workload where every layer runs in the
// paper's order. Each interval queues stepHours of samples for the whole
// fleet, flushes them through the acked, journaled ingest path, republishes
// the replicas and runs one controller interval that fetches over the query
// protocol and commits to its journal.
func runLoop(ctx context.Context, e *env) (*result, error) {
	p := loopSizes(e.quick)
	res := &result{Workload: "loop-steady"}

	var (
		s      *loopState
		setups []float64
	)
	for i := 0; i < p.setups; i++ {
		if s != nil {
			s.close()
			discard()
		}
		start := time.Now()
		var err error
		if s, err = setupLoop(ctx, e, p); err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(start).Seconds())
	}
	defer func() { s.close() }()

	var whBase [numClasses]fsCounters
	if s.whFS != nil {
		whBase = s.whFS.snapshotAll()
	}
	procBase := readProc()

	var (
		s2j, intervalMs    []float64
		cycle              time.Duration
		samples, envelopes int
		migrations, waves  []float64
		jFsyncs, jBytes    []float64
		batch              []vmwild.MonitorSample
		shadow             *core.Adapter
		perInterval        = p.stepHours * p.perHour
	)
	traced := e.tr != nil
	e.tr.set(true)
	phase := time.Now()
	k := 0
	for ; k < p.intervals && !e.overdue(phase); k++ {
		batch = batch[:0]
		for t := 0; t < perInterval; t++ {
			var err error
			tick := p.preloadHours*p.perHour + k*perInterval + t
			if batch, err = s.fleet.tick(batch, tick, p.perHour); err != nil {
				return nil, err
			}
		}
		var prev *vmwild.Placement
		var jBefore fsCounters
		if traced {
			prev = s.ctrl.Placement()
			jBefore = s.jFS.total()
		}

		c0 := time.Now()
		for i := range batch[:len(batch)-1] {
			s.sender.Queue(batch[i])
		}
		t0 := time.Now()
		s.op = int64(k)
		root := e.tr.beginAt("interval", -1, s.op, t0)
		s.sender.Queue(batch[len(batch)-1])

		sp := e.tr.begin("monitor.sender.flush", root, s.op)
		ferr := flushAll(ctx, s.sender)
		e.tr.end(sp)

		sp = e.tr.begin("monitor.replica.publish", root, s.op)
		s.stack.wh.PublishReplicas()
		e.tr.end(sp)

		s.runSpan = e.tr.begin("controller.run_interval", root, s.op)
		r0 := time.Now()
		tick, rerr := s.ctrl.RunInterval()
		t1 := time.Now()
		e.tr.end(s.runSpan)
		s.runSpan = -1
		e.tr.end(root)

		res.Attempted += len(batch) + 1
		samples += len(batch)
		envelopes += (len(batch) + 511) / 512 // the sender's default chunk
		if ferr != nil {
			res.fail("interval %d: flush: %v", k, ferr)
		}
		if rerr != nil {
			res.fail("interval %d: run: %v", k, rerr)
			continue
		}
		want := p.preloadHours + (k+1)*p.stepHours
		res.check(tick.HistoryHours == want,
			"interval %d planned on %d history hours, want %d: the plan did not read the interval's last sample", k, tick.HistoryHours, want)

		d := ms(t1.Sub(t0))
		s2j = append(s2j, d)
		intervalMs = append(intervalMs, ms(t1.Sub(r0)))
		cycle += t1.Sub(c0)
		if !traced {
			continue
		}
		// Counters and shadow re-runs happen after the interval's clock
		// stopped, so they cost the traced run wall time but not latency.
		migrations = append(migrations, float64(tick.Step.Migrations))
		if tick.Execution != nil {
			waves = append(waves, float64(len(tick.Execution.Waves)))
		} else {
			waves = append(waves, 0)
		}
		jAfter := s.jFS.total()
		jFsyncs = append(jFsyncs, float64(jAfter.Fsyncs-jBefore.Fsyncs))
		jBytes = append(jBytes, float64(jAfter.WriteBytes-jBefore.WriteBytes))
		var err error
		if shadow, err = shadowInterval(e.tr, shadow, s.lastSet, prev, s.ctrl.Placement(), p.stepHours, s.op); err != nil {
			res.fail("interval %d: shadow: %v", k, err)
		}
	}
	e.tr.set(false)
	wall := time.Since(phase)
	procEnd := readProc()
	res.phaseEnd(wall, procEnd)
	res.check(k == p.intervals, "measured phase cut short after %d of %d intervals: over %v", k, p.intervals, phaseLimit)
	intervals := k

	// Output checks.
	c := s.sender.Counters()
	res.ledger("sender", c)

	final, err := encodePlacement(s.ctrl.Placement())
	if err != nil {
		return nil, err
	}
	if err := s.journal.Close(); err != nil {
		res.fail("close controller journal: %v", err)
	}
	s.journal = nil
	reopened, err := vmwild.OpenControllerJournal(filepath.Join(s.dir, "controller"), vmwild.WALOptions{Sync: vmwild.SyncInterval})
	if err != nil {
		res.check(false, "reopen controller journal: %v", err)
	} else {
		rec := reopened.Recovery()
		got, err := encodePlacement(rec.Placement)
		res.check(err == nil && bytes.Equal(got, final) && rec.Intervals == intervals && !rec.Interrupted,
			"journal recovered %d intervals (interrupted %v, err %v); placement equal to the controller's: %v, want %d intervals",
			rec.Intervals, rec.Interrupted, err, bytes.Equal(got, final), intervals)
		reopened.Close()
	}
	ref, err := referenceLoop(e.seed, p, intervals)
	res.check(err == nil && bytes.Equal(ref, final),
		"same-seed in-process run (no sockets, no WAL) ended on a different placement (err %v)", err)

	res.add(metric{Name: "setup_s", Value: median(setups), Unit: "s", N: len(setups), Slot: slotSetup})
	res.add(timing("sample_to_journal_ms_p50", "ms", s2j, 50, slotP50))
	res.add(timing("sample_to_journal_ms_p75", "ms", s2j, 75, slotTail))
	res.add(timing("interval_ms_p50", "ms", intervalMs, 50, ""))
	res.add(metric{Name: "loop_samples_per_s", Value: float64(samples) / cycle.Seconds(), Unit: "1/s", N: intervals, Slot: slotThroughput})

	if e.tr != nil {
		L := newLayers()
		res.Layers = L
		spans := e.tr.closed()
		by := durationsByName(spans)
		L["monitor.sender.flush_ms"] = median(by["monitor.sender.flush"])
		L["monitor.sender.envelopes"] = float64(envelopes)
		stackLayers(L, s.stack, s.whFS, whBase, samples)
		L["monitor.sender.retries"] = float64(c.Retries)
		L["monitor.replica.publish_ms_p50"] = median(by["monitor.replica.publish"])
		fetch, sizing, pack := median(by["controller.fetch"]), median(by["core.sizing.shadow"]), median(by["core.pack.shadow"])
		sched, journal, run := median(by["executor.schedule.shadow"]), median(by["controller.journal"]), median(by["controller.run_interval"])
		L["controller.fetch_ms_p50"] = fetch
		L["core.sizing_ms_p50"] = sizing
		L["core.pack_ms_p50"] = pack
		L["executor.schedule_ms_p50"] = sched
		L["controller.journal_ms_p50"] = journal
		L["controller.other_ms_p50"] = max(0, run-fetch-sizing-pack-sched-journal)
		L["controller.interval_ms_p50"] = median(intervalMs)
		L["controller.journal_fsyncs_per_interval"] = median(jFsyncs)
		L["controller.journal_bytes_per_interval"] = median(jBytes)
		L["controller.migrations_per_interval"] = median(migrations)
		L["executor.waves_per_interval"] = median(waves)
		// Shares are taken interval by interval, then the median: the
		// stages' medians come from different intervals and do not add up.
		var share, coverage []float64
		wholes, runs, fetches := by["interval"], by["controller.run_interval"], by["controller.fetch"]
		flushes, publishes := by["monitor.sender.flush"], by["monitor.replica.publish"]
		for i := range min(len(wholes), len(runs), len(fetches), len(flushes), len(publishes)) {
			// What a planner, executor or journal speed-up can save at most.
			share = append(share, (runs[i]-fetches[i])/wholes[i])
			coverage = append(coverage, (flushes[i]+publishes[i]+runs[i])/wholes[i])
		}
		L["controller.share_of_sample_to_journal"] = median(share)
		L["trace.span_coverage"] = median(coverage)
		L["trace.overhead_ratio"] = e.overheadRatio(wall)
		procLayers(L, procBase, procEnd)
		if err := e.writeTrace(res.Workload, spans); err != nil {
			return nil, err
		}
	}
	return res, nil
}

// shadowInterval re-runs one interval's sizing, packing and scheduling on
// the inputs the controller just used, from outside the controller: the
// fetched set, the placement before and the placement after. adapter is
// the shadow adapter carried between intervals (nil before the first).
func shadowInterval(tr *tracer, adapter *core.Adapter, set *vmwild.TraceSet, prev, cur *vmwild.Placement, stepHours int, op int64) (*core.Adapter, error) {
	in := plannerInput(stepHours)
	n := len(set.Servers)
	ids := make([]vmwild.ServerID, n)
	specs := make([]vmwild.Spec, n)
	cpu := make([][]float64, n)
	mem := make([][]float64, n)
	for i, st := range set.Servers {
		ids[i], specs[i] = st.ID, st.Spec
		cpu[i], mem[i] = st.Series.Values(trace.CPU), st.Series.Values(trace.Mem)
	}
	sp := tr.begin("core.sizing.shadow", -1, op)
	items, err := core.PredictItems(in, ids, specs, cpu, mem, stepHours)
	tr.end(sp)
	if err != nil {
		return adapter, err
	}

	if adapter == nil {
		if adapter, err = core.NewAdapter(in); err != nil {
			return nil, err
		}
	}
	if prev != nil {
		if err := adapter.Restore(prev); err != nil {
			return adapter, err
		}
	}
	sp = tr.begin("core.pack.shadow", -1, op)
	_, err = adapter.Step(items)
	tr.end(sp)
	if err != nil {
		return adapter, err
	}

	if prev != nil && cur != nil {
		cfg := vmwild.DefaultExecutorConfig()
		cfg.SpareHost = true // as the controller sets it
		sp = tr.begin("executor.schedule.shadow", -1, op)
		_, _, err = vmwild.ScheduleTransition(prev, cur, cfg)
		tr.end(sp)
	}
	return adapter, err
}

// referenceLoop replays the same seed's loop with no sockets, no WAL and no
// replicas — in-process ingest, CollectSet fetch — and returns the final
// placement's encoding. The served loop must land on the same bytes.
func referenceLoop(seed int64, p loopParams, intervals int) ([]byte, error) {
	fl, err := newFleet(seed, p.servers, p.preloadHours+intervals*p.stepHours)
	if err != nil {
		return nil, err
	}
	w := vmwild.NewWarehouseShards(retention, vmwild.DefaultIngestShards)
	if _, err := fl.preload(w, p.preloadHours, p.perHour); err != nil {
		return nil, err
	}
	ctrl, err := vmwild.NewController(vmwild.ControllerConfig{
		Fetch: func() (*vmwild.TraceSet, error) {
			return w.CollectSet(fl.set.Name, fl.specs, epoch)
		},
		Planner:         plannerInput(p.stepHours),
		Executor:        vmwild.DefaultExecutorConfig(),
		MinHistoryHours: p.preloadHours,
	})
	if err != nil {
		return nil, err
	}
	var batch []vmwild.MonitorSample
	perInterval := p.stepHours * p.perHour
	for k := 0; k < intervals; k++ {
		for t := 0; t < perInterval; t++ {
			tick := p.preloadHours*p.perHour + k*perInterval + t
			if batch, err = fl.tick(batch[:0], tick, p.perHour); err != nil {
				return nil, err
			}
			w.IngestBatch(batch)
		}
		if _, err := ctrl.RunInterval(); err != nil {
			return nil, fmt.Errorf("reference interval %d: %w", k, err)
		}
	}
	return encodePlacement(ctrl.Placement())
}

// encodePlacement is the placement's canonical encoding, which doubles as
// an equality fingerprint (host and VM order are preserved).
func encodePlacement(p *vmwild.Placement) ([]byte, error) {
	if p == nil {
		return nil, fmt.Errorf("no placement")
	}
	return p.Encode()
}
