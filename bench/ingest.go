package main

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"sync"
	"time"

	"vmwild"
	"vmwild/internal/stats"
)

// ingestParams sizes ingest-burst.
type ingestParams struct {
	senders      int // closed-loop sender goroutines, one connection each
	perSender    int // servers per sender; one envelope carries one minute of them
	preloadHours int // per-minute history ingested in process during set-up
	envelopes    int // the measured phase, per sender: one per virtual minute
	lateFrac     float64
	maxLateMin   int
	setups       int
	recoveries   int
}

func ingestSizes(quick bool) ingestParams {
	if quick {
		return ingestParams{senders: 2, perSender: 8, preloadHours: 1, envelopes: 180, lateFrac: 0.05, maxLateMin: 90, setups: 1, recoveries: 1}
	}
	return ingestParams{senders: 2, perSender: 100, preloadHours: 12, envelopes: 375, lateFrac: 0.05, maxLateMin: 90, setups: 5, recoveries: 3}
}

const perMinute = 60 // samples per server per virtual hour

// hourRef is the harness's own hourly aggregate of the samples it
// generated, accumulated in timestamp order.
type hourRef struct {
	pct, mem float64
	n        int
}

// ingestSender is one closed-loop agent: it owns a contiguous server range,
// sends one envelope per virtual minute and waits for each ack.
type ingestSender struct {
	lo, hi    int
	snd       *vmwild.ReliableSender
	rng       *rand.Rand
	due       map[int][]vmwild.MonitorSample // withheld samples by the minute they are released
	ref       [][]hourRef                    // [server-lo][hour]
	ackMs     []float64
	envelopes [][]vmwild.MonitorSample // kept on a traced run, for the differential passes
	samples   int
	late      int
	err       error
}

// ingestSetup is one assembled ingest-burst stack.
type ingestSetup struct {
	fleet     *fleet
	stack     *stack
	fs        *countingFS // nil on an untraced run
	dir       string
	preloaded int
}

func setupIngest(e *env, p ingestParams, hours int) (*ingestSetup, error) {
	fl, err := newFleet(e.seed, p.senders*p.perSender, hours)
	if err != nil {
		return nil, err
	}
	dir, err := e.tempDir("ingest")
	if err != nil {
		return nil, err
	}
	u := &ingestSetup{fleet: fl, dir: dir}
	cfg := stackConfig{walDir: filepath.Join(dir, "warehouse"), replicas: true}
	if e.tr != nil {
		u.fs = newCountingFS(vmwild.OSFS)
		cfg.fs = u.fs
	}
	u.stack, err = startStack(cfg, func(w *vmwild.Warehouse) error {
		var err error
		u.preloaded, err = fl.preload(w, p.preloadHours, perMinute)
		return err
	})
	if err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	return u, nil
}

// close stops the stack, if it still stands, and removes its directory.
func (u *ingestSetup) close() {
	if u.stack != nil {
		u.stack.Close()
	}
	os.RemoveAll(u.dir)
}

// runIngest is ingest-burst: monitor's write path, wal and fsx do all the
// work; core and placement none.
func runIngest(ctx context.Context, e *env) (*result, error) {
	p := ingestSizes(e.quick)
	res := &result{Workload: "ingest-burst"}
	hours := p.preloadHours + (p.envelopes+perMinute-1)/perMinute

	var (
		u      *ingestSetup
		setups []float64
	)
	for i := 0; i < p.setups; i++ {
		if u != nil {
			u.close()
			discard()
		}
		start := time.Now()
		var err error
		if u, err = setupIngest(e, p, hours); err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(start).Seconds())
	}
	defer func() { u.close() }()
	fl, st, dir := u.fleet, u.stack, u.dir

	var fsBase [numClasses]fsCounters
	if u.fs != nil {
		fsBase = u.fs.snapshotAll()
	}
	procBase := readProc()
	e.tr.set(true)

	senders := make([]*ingestSender, p.senders)
	for g := range senders {
		lo := g * p.perSender
		s := &ingestSender{
			lo: lo, hi: lo + p.perSender,
			snd: newSender(st.ingestAddr, agentName(g), e.seed, 0),
			rng: rand.New(rand.NewSource(stats.Split(e.seed, "late", agentName(g)))),
			due: make(map[int][]vmwild.MonitorSample),
			ref: make([][]hourRef, p.perSender),
		}
		senders[g] = s
	}

	phase := time.Now()
	var wg sync.WaitGroup
	for g, s := range senders {
		wg.Add(1)
		go func() {
			defer wg.Done()
			s.err = s.stream(ctx, e, fl, p, g, hours, phase)
		}()
	}
	wg.Wait()
	wall := time.Since(phase)
	e.tr.set(false)
	procEnd := readProc()
	res.phaseEnd(wall, procEnd)

	var (
		acks                   []float64
		acked, envelopes, late int
		retries                int64
	)
	for _, s := range senders {
		if s.err != nil {
			res.fail("sender %d: %v", s.lo/p.perSender, s.err)
		}
		c := s.snd.Counters()
		s.snd.Close()
		res.ledger(s.snd.AgentID, c)
		res.Attempted += int(c.Queued)
		acked += int(c.Acked)
		retries += c.Retries
		envelopes += len(s.ackMs)
		late += s.late
		acks = append(acks, s.ackMs...)
	}

	// Layer counters must be read while the stack still stands.
	var L map[string]float64
	if e.tr != nil {
		L = newLayers()
		res.Layers = L
		stackLayers(L, st, u.fs, fsBase, acked)
	}

	// Close as vmwildd shuts down (final checkpoint), reopen into a fresh
	// warehouse, verify.
	if err := st.Close(); err != nil {
		res.fail("close stack: %v", err)
	}
	u.stack = nil
	// Recovery is one short measurement, so it is taken recoveries times —
	// each into a fresh warehouse, each closed as cleanly as the first — and
	// the median reported; the last one is verified.
	var (
		recoveryS []float64
		rec       vmwild.WarehouseRecovery
	)
	for i := 0; i < p.recoveries; i++ {
		recovered := vmwild.NewWarehouseShards(retention, vmwild.DefaultIngestShards)
		start := time.Now()
		wlog, err := vmwild.OpenWarehouseLog(recovered, filepath.Join(dir, "warehouse"), 0, vmwild.WALOptions{Sync: vmwild.SyncInterval})
		recoveryS = append(recoveryS, time.Since(start).Seconds())
		if err != nil {
			res.check(false, "reopen warehouse log: %v", err)
			break
		}
		if i == p.recoveries-1 {
			rec = wlog.Recovery()
			res.check(rec.Restored+rec.Replayed == u.preloaded+acked && recovered.Stats().Samples == u.preloaded+acked,
				"recovered %d+%d samples (warehouse holds %d), want %d preloaded + %d acked",
				rec.Restored, rec.Replayed, recovered.Stats().Samples, u.preloaded, acked)
			verifyHourly(res, recovered, fl, senders, p)
		}
		if err := wlog.Close(); err != nil {
			res.fail("close recovered log: %v", err)
		}
	}
	recovery := median(recoveryS)

	res.add(metric{Name: "setup_s", Value: median(setups), Unit: "s", N: len(setups), Slot: slotSetup})
	res.add(metric{Name: "ingest_samples_per_s", Value: float64(acked) / wall.Seconds(), Unit: "1/s", N: envelopes, Slot: slotThroughput})
	res.add(timing("ack_ms_p50", "ms", acks, 50, slotP50))
	// A quarter of a minute of envelopes supports p95 under the ten-beyond
	// rule, and one envelope in five carries a lane checkpoint, so p95 is
	// already the stall tail; p99 is printed for the record.
	res.add(timing("ack_ms_p95", "ms", acks, 95, slotTail))
	res.add(timing("ack_ms_p99", "ms", acks, 99, ""))
	res.add(metric{Name: "recovery_s", Value: recovery, Unit: "s", N: len(recoveryS)})

	if e.tr != nil {
		spans := e.tr.closed()
		L["monitor.sender.flush_ms"] = median(durationsByName(spans)["monitor.sender.flush"])
		L["monitor.sender.envelopes"] = float64(envelopes)
		L["monitor.sender.retries"] = float64(retries)
		L["monitor.late_samples"] = float64(late)
		L["wal.replayed_samples"] = float64(rec.Replayed)
		L["wal.restored_samples"] = float64(rec.Restored)
		L["wal.recovery_ms"] = 1000 * recovery
		L["trace.overhead_ratio"] = e.overheadRatio(wall)
		L["trace.span_coverage"] = 1 // the envelope's span is the flush itself
		procLayers(L, procBase, procEnd)
		if err := ingestDifferential(ctx, e, p, senders, L, float64(wall)/float64(acked)); err != nil {
			return nil, err
		}
		if err := e.writeTrace(res.Workload, spans); err != nil {
			return nil, err
		}
	}
	return res, nil
}

// stream is one sender's measured phase.
func (s *ingestSender) stream(ctx context.Context, e *env, fl *fleet, p ingestParams, g, hours int, phase time.Time) error {
	for i := range s.ref {
		s.ref[i] = make([]hourRef, hours)
	}
	var batch, envelope []vmwild.MonitorSample
	minute := p.preloadHours * perMinute
	last := minute + p.envelopes
	send := func(out []vmwild.MonitorSample, n int) error {
		if len(out) == 0 {
			return nil
		}
		for i := range out {
			s.snd.Queue(out[i])
		}
		t0 := time.Now()
		sp := e.tr.beginAt("monitor.sender.flush", -1, int64(g)<<32|int64(n), t0)
		err := flushAll(ctx, s.snd)
		d := time.Since(t0)
		e.tr.end(sp)
		s.ackMs = append(s.ackMs, ms(d))
		s.samples += len(out)
		if e.tr != nil {
			s.envelopes = append(s.envelopes, slices.Clone(out))
		}
		return err
	}
	n := 0
	for ; minute < last && !e.overdue(phase); minute++ {
		var err error
		if batch, err = fl.tickRange(batch[:0], s.lo, s.hi, minute, perMinute); err != nil {
			return err
		}
		envelope = append(envelope[:0], s.due[minute]...)
		delete(s.due, minute)
		for i, smp := range batch {
			r := &s.ref[i][minute/perMinute]
			r.pct += smp.TotalProcessorPct
			r.mem += smp.MemCommittedMB
			r.n++
			if s.rng.Float64() < p.lateFrac {
				at := minute + 1 + s.rng.Intn(p.maxLateMin)
				s.due[at] = append(s.due[at], smp)
				s.late++
				continue
			}
			envelope = append(envelope, smp)
		}
		if err := send(envelope, n); err != nil {
			return err
		}
		n++
	}
	// Whatever is still withheld goes out in one last envelope, in release
	// order, so every generated sample is sent exactly once.
	envelope = envelope[:0]
	for at := minute; at <= minute+p.maxLateMin; at++ {
		envelope = append(envelope, s.due[at]...)
	}
	if err := send(envelope, n); err != nil {
		return err
	}
	if minute < last {
		return fmt.Errorf("measured phase cut short after %d of %d envelopes: over %v", n, p.envelopes, phaseLimit)
	}
	return nil
}

// verifyHourly checks every streamed hour's mean in the recovered warehouse
// against the harness's own aggregate of the samples it generated, late
// ones included.
func verifyHourly(res *result, w *vmwild.Warehouse, fl *fleet, senders []*ingestSender, p ingestParams) {
	bad, checked := 0, 0
	var firstBad string
	for _, s := range senders {
		for i := range s.ref {
			st := fl.set.Servers[s.lo+i]
			series, err := w.HourlySeries(st.ID, st.Spec, epoch)
			if err != nil {
				bad++
				firstBad = fmt.Sprintf("%s: %v", st.ID, err)
				continue
			}
			for h := p.preloadHours; h < len(s.ref[i]); h++ {
				r := s.ref[i][h]
				if r.n == 0 {
					continue
				}
				checked++
				if h >= series.Len() {
					bad++
					continue
				}
				got := series.Samples[h]
				wantCPU := r.pct / float64(r.n) / 100 * st.Spec.CPURPE2
				wantMem := r.mem / float64(r.n)
				if !near(got.CPU, wantCPU) || !near(got.Mem, wantMem) {
					if bad == 0 {
						firstBad = fmt.Sprintf("%s hour %d: got cpu %v mem %v, want %v %v", st.ID, h, got.CPU, got.Mem, wantCPU, wantMem)
					}
					bad++
				}
			}
		}
	}
	res.check(bad == 0 && checked > 0, "%d of %d recovered hourly means differ from the harness reference (first: %s)", bad, checked, firstBad)
}

// near allows for a different summation order only: late samples are stored
// in timestamp order, as the reference sums them, so the slack is a few ulps.
func near(got, want float64) bool {
	return math.Abs(got-want) <= 1e-9*math.Max(1, math.Abs(want))
}

// ingestDifferential replays the measured phase's envelopes twice more —
// straight into an unjournaled warehouse in process, then over loopback
// into an unjournaled stack — with the same two-goroutine shape, and splits
// the journaled per-sample cost by subtraction.
func ingestDifferential(ctx context.Context, e *env, p ingestParams, senders []*ingestSender, l map[string]float64, journaledNs float64) error {
	total := 0
	for _, s := range senders {
		total += s.samples
	}
	if total == 0 {
		return nil
	}
	replay := func(addr string, w *vmwild.Warehouse) (float64, error) {
		errs := make([]error, len(senders))
		var wg sync.WaitGroup
		start := time.Now()
		for g, s := range senders {
			wg.Add(1)
			go func() {
				defer wg.Done()
				var snd *vmwild.ReliableSender
				if addr != "" {
					snd = newSender(addr, agentName(g), e.seed, 0)
					defer snd.Close()
				}
				for _, out := range s.envelopes {
					if snd == nil {
						w.IngestBatch(out)
						continue
					}
					for i := range out {
						snd.Queue(out[i])
					}
					if err := flushAll(ctx, snd); err != nil {
						errs[g] = err
						return
					}
				}
			}()
		}
		wg.Wait()
		ns := float64(time.Since(start)) / float64(total)
		for _, err := range errs {
			if err != nil {
				return 0, err
			}
		}
		return ns, nil
	}
	fresh := func() (*stack, error) {
		fl, err := newFleet(e.seed, p.senders*p.perSender, p.preloadHours)
		if err != nil {
			return nil, err
		}
		return startStack(stackConfig{replicas: true}, func(w *vmwild.Warehouse) error {
			_, err := fl.preload(w, p.preloadHours, perMinute)
			return err
		})
	}

	inproc, err := fresh()
	if err != nil {
		return err
	}
	shardNs, err := replay("", inproc.wh)
	inproc.Close()
	if err != nil {
		return err
	}
	loopback, err := fresh()
	if err != nil {
		return err
	}
	wireNs, err := replay(loopback.ingestAddr, nil)
	loopback.Close()
	if err != nil {
		return err
	}
	l["monitor.shard.ingest_ns_per_sample"] = shardNs
	l["monitor.wire.ns_per_sample"] = wireNs - shardNs
	l["wal.journal_ns_per_sample"] = journaledNs - wireNs
	return nil
}
