package scenario

import (
	"context"
	"fmt"
	"math"
	"time"

	"vmwild/internal/chaos"
	"vmwild/internal/monitor"
	"vmwild/internal/stats"
	"vmwild/internal/trace"
	"vmwild/internal/workload"
)

// The chaos wall: resilience scenarios that drive the real serving plane —
// reliable senders → TCP → warehouse → query server → controller — through
// a seeded fault proxy and assert invariants that must hold under ANY
// timing realization of the chaos:
//
//   - exact accounting: every sample ever queued is acked, shed by the
//     server, dropped from a bounded queue, or still pending — the four
//     counters reconcile to the queue total with no slack;
//   - value integrity: nothing the warehouse retains differs by a single
//     bit from what was generated — corruption is rejected, never stored;
//   - aggregate identity: the hourly series the chaos-battered warehouse
//     serves are bitwise identical to a clean warehouse rebuilt from the
//     surviving samples alone;
//   - bounded recovery: after the fault clears, a fixed number of flush
//     rounds drains every sender to empty.
//
// What the wall never asserts is HOW MANY faults fired at exactly which
// byte: kernel read batching makes chunk boundaries nondeterministic, so
// fault counts vary run to run even at a fixed seed. The invariants above
// are the ones that cannot.

// ResilienceScenario is one network-chaos drill against the serving plane.
// Unlike consolidation scenarios these run real sockets, so wall-clock
// nondeterminism is part of the test surface — Run returns the same
// Result/CheckpointResult shape, but checkpoints assert timing-free
// invariants only.
type ResilienceScenario struct {
	ID          string
	Name        string
	Description string

	rig rigConfig
	run func(r *chaosRig) error
}

// Resilience returns the chaos-wall scenarios in wall order.
func Resilience() []*ResilienceScenario {
	return []*ResilienceScenario{IngestStorm(), PartitionHeal(), SlowLorisSiege()}
}

// GetResilience finds a resilience scenario by ID.
func GetResilience(id string) (*ResilienceScenario, error) {
	for _, rs := range Resilience() {
		if rs.ID == id {
			return rs, nil
		}
	}
	return nil, fmt.Errorf("scenario: unknown resilience scenario %q", id)
}

// Run executes the drill at the given seed. The returned Result carries
// one CheckpointResult per invariant checked; Run itself errors only on
// harness failures (generation, listen), never on a failed checkpoint.
func (rs *ResilienceScenario) Run(seed int64) (*Result, error) {
	r, err := newChaosRig(rs.ID, seed, rs.rig)
	if err != nil {
		return nil, err
	}
	defer r.close()
	if err := rs.run(r); err != nil {
		return nil, fmt.Errorf("scenario %s: %w", rs.ID, err)
	}
	res := &Result{
		ID:          rs.ID,
		Seed:        seed,
		Servers:     len(r.set.Servers),
		Checkpoints: r.checkpoints,
		Passed:      true,
	}
	for _, cp := range res.Checkpoints {
		if !cp.Passed {
			res.Passed = false
		}
	}
	return res, nil
}

// rigConfig parameterizes the chaos rig one scenario runs against.
type rigConfig struct {
	servers int
	hours   int
	perHour int
	profile func() *workload.Profile
	shards  int

	// ingest and query shape the fault proxies in front of the warehouse
	// ingest port and the query server; their Seed fields are overwritten
	// with identity-derived splits of the run seed.
	ingest chaos.Config
	query  chaos.Config

	warehouse func(w *monitor.Warehouse)
	sender    func(i int, s *monitor.ReliableSender)
}

type genKey struct {
	id trace.ServerID
	ts int64
}

type genVal struct {
	cpu float64
	mem float64
}

// chaosRig is the live stack a resilience scenario drives: ground-truth
// traces, one reliable sender per server dialing the warehouse through a
// chaos proxy, and a query server behind its own proxy. Everything runs
// single-goroutine in the scenario body; only the servers spawn handlers.
type chaosRig struct {
	id   string
	seed int64

	set     *trace.Set
	specs   map[trace.ServerID]trace.Spec
	perHour int

	wh          *monitor.Warehouse
	qs          *monitor.QueryServer
	ingestProxy *chaos.Proxy
	queryProxy  *chaos.Proxy
	// ingestAddr and queryAddr are the proxy fronts — what senders and
	// query clients dial.
	ingestAddr string
	queryAddr  string

	senders []*monitor.ReliableSender

	// generated maps every queued (server, timestamp) to the exact values
	// handed to the sender — the ground truth the survivor checks compare
	// against.
	generated map[genKey]genVal

	turn        string
	checkpoints []CheckpointResult
}

func newChaosRig(id string, seed int64, cfg rigConfig) (*chaosRig, error) {
	prof := *cfg.profile()
	prof.Servers = cfg.servers
	set, err := workload.Generate(&prof, cfg.hours, stats.Split(seed, "resilience", id))
	if err != nil {
		return nil, fmt.Errorf("scenario %s: generate workload: %w", id, err)
	}
	r := &chaosRig{
		id:        id,
		seed:      seed,
		set:       set,
		perHour:   cfg.perHour,
		specs:     make(map[trace.ServerID]trace.Spec, len(set.Servers)),
		generated: make(map[genKey]genVal, cfg.servers*cfg.hours*cfg.perHour),
		turn:      "setup",
	}
	for _, st := range set.Servers {
		r.specs[st.ID] = st.Spec
	}

	shards := cfg.shards
	if shards <= 0 {
		shards = 4
	}
	// Retention 0: a resilience run must never age samples out mid-drill,
	// or the survivor accounting would have a second leak path.
	r.wh = monitor.NewWarehouseShards(0, shards)
	r.wh.BackoffSeed = stats.Split(seed, "resilience", id, "warehouse-backoff")
	if cfg.warehouse != nil {
		cfg.warehouse(r.wh)
	}
	whAddr, err := r.wh.Listen("127.0.0.1:0")
	if err != nil {
		r.close()
		return nil, fmt.Errorf("scenario %s: warehouse listen: %w", id, err)
	}
	icfg := cfg.ingest
	icfg.Seed = stats.Split(seed, "resilience", id, "chaos-ingest")
	r.ingestProxy, err = chaos.New(icfg, whAddr)
	if err == nil {
		r.ingestAddr, err = r.ingestProxy.Listen("127.0.0.1:0")
	}
	if err != nil {
		r.close()
		return nil, fmt.Errorf("scenario %s: ingest proxy: %w", id, err)
	}

	r.qs = monitor.NewQueryServer(r.wh)
	r.qs.WriteTimeout = 2 * time.Second
	r.qs.BackoffSeed = stats.Split(seed, "resilience", id, "query-backoff")
	qsAddr, err := r.qs.Listen("127.0.0.1:0")
	if err != nil {
		r.close()
		return nil, fmt.Errorf("scenario %s: query server listen: %w", id, err)
	}
	qcfg := cfg.query
	qcfg.Seed = stats.Split(seed, "resilience", id, "chaos-query")
	r.queryProxy, err = chaos.New(qcfg, qsAddr)
	if err == nil {
		r.queryAddr, err = r.queryProxy.Listen("127.0.0.1:0")
	}
	if err != nil {
		r.close()
		return nil, fmt.Errorf("scenario %s: query proxy: %w", id, err)
	}

	senderSeed := stats.Split(seed, "resilience", id, "sender")
	for i, st := range set.Servers {
		s := &monitor.ReliableSender{
			Addr:       r.ingestAddr,
			AgentID:    string(st.ID),
			Seed:       stats.Derive(senderSeed, int64(i)),
			Backoff:    2 * time.Millisecond,
			BackoffMax: 100 * time.Millisecond,
			Timeout:    2 * time.Second,
		}
		if cfg.sender != nil {
			cfg.sender(i, s)
		}
		r.senders = append(r.senders, s)
	}
	return r, nil
}

func (r *chaosRig) close() {
	for _, s := range r.senders {
		s.Close()
	}
	if r.ingestProxy != nil {
		r.ingestProxy.Close()
	}
	if r.queryProxy != nil {
		r.queryProxy.Close()
	}
	if r.qs != nil {
		r.qs.Close()
	}
	if r.wh != nil {
		r.wh.Close()
	}
}

// phase labels subsequent checkpoints, mirroring Turn on the consolidation
// wall's checkpoint results.
func (r *chaosRig) phase(name string) { r.turn = name }

// check records one invariant's outcome.
func (r *chaosRig) check(name string, err error) {
	cp := CheckpointResult{Name: name, Turn: r.turn, Passed: err == nil}
	if err != nil {
		cp.Detail = err.Error()
	}
	r.checkpoints = append(r.checkpoints, cp)
}

// queueHours queues hours [from, to) of every server's trace into its
// sender, converting ground-truth Usage into monitoring samples exactly as
// the soak worlds do, and records each (server, timestamp, values) triple
// as ground truth for the survivor checks.
func (r *chaosRig) queueHours(from, to int) {
	slot := time.Hour / time.Duration(r.perHour)
	for si, st := range r.set.Servers {
		spec := st.Spec
		for h := from; h < to; h++ {
			u := st.Series.Samples[h]
			pct := 0.0
			if spec.CPURPE2 > 0 {
				pct = u.CPU / spec.CPURPE2 * 100
			}
			pct = min(max(pct, 0), 100)
			mem := max(u.Mem, 0)
			for k := 0; k < r.perHour; k++ {
				ts := soakEpoch.Add(time.Duration(h)*time.Hour + time.Duration(k)*slot)
				r.senders[si].Queue(monitor.Sample{
					Server:            st.ID,
					Timestamp:         ts,
					TotalProcessorPct: pct,
					MemCommittedMB:    mem,
				})
				r.generated[genKey{st.ID, ts.UnixNano()}] = genVal{cpu: pct, mem: mem}
			}
		}
	}
}

// flushAll flushes every sender once, allowing attempts tries per
// envelope, and reports the first failure (with how many senders failed).
func (r *chaosRig) flushAll(attempts int) error {
	ctx, cancel := context.WithTimeout(context.Background(), 90*time.Second)
	defer cancel()
	var firstErr error
	failed := 0
	for _, s := range r.senders {
		if err := s.Flush(ctx, attempts); err != nil {
			failed++
			if firstErr == nil {
				firstErr = err
			}
		}
	}
	if firstErr != nil {
		return fmt.Errorf("%d of %d senders unflushed: %w", failed, len(r.senders), firstErr)
	}
	return nil
}

// drain is the recovery deadline: up to maxRounds flush rounds to get
// every sender to empty. It returns the round that finished the job.
func (r *chaosRig) drain(maxRounds, attempts int) (int, error) {
	var lastErr error
	for round := 1; round <= maxRounds; round++ {
		if lastErr = r.flushAll(attempts); lastErr == nil {
			return round, nil
		}
	}
	t := r.totals()
	return maxRounds, fmt.Errorf("%d samples still pending after %d drain rounds: %w",
		t.Pending, maxRounds, lastErr)
}

// totals sums the senders' reconciliation counters.
func (r *chaosRig) totals() monitor.SenderCounters {
	var t monitor.SenderCounters
	for _, s := range r.senders {
		c := s.Counters()
		t.Queued += c.Queued
		t.DroppedQueue += c.DroppedQueue
		t.Acked += c.Acked
		t.ServerShed += c.ServerShed
		t.Retries += c.Retries
		t.Reconnects += c.Reconnects
		t.Pending += c.Pending
	}
	return t
}

// checkAccounting asserts the exactly-once ledger: sender-side counters
// reconcile to Queued with no slack, and the warehouse's own books agree
// with them — what the senders think was acked is what the warehouse
// admitted and stored, and what they think was shed is what the limiter
// counted.
func (r *chaosRig) checkAccounting() error {
	t := r.totals()
	if got := t.Acked + t.ServerShed + t.DroppedQueue + t.Pending; got != t.Queued {
		return fmt.Errorf("sender ledger leaks: queued %d but acked %d + shed %d + dropped %d + pending %d = %d",
			t.Queued, t.Acked, t.ServerShed, t.DroppedQueue, t.Pending, got)
	}
	m := r.wh.Metrics()
	if m.AckedSamples != t.Acked {
		return fmt.Errorf("warehouse admitted %d samples, senders hold acks for %d", m.AckedSamples, t.Acked)
	}
	if m.ShedIngest+m.ShedDisk != t.ServerShed {
		return fmt.Errorf("warehouse shed %d samples (%d limiter + %d disk), senders were told %d",
			m.ShedIngest+m.ShedDisk, m.ShedIngest, m.ShedDisk, t.ServerShed)
	}
	var stored, shardShed int64
	for _, sh := range m.Shards {
		stored += int64(sh.Samples)
		shardShed += sh.Shed
	}
	if stored != t.Acked {
		return fmt.Errorf("warehouse stores %d samples but acked %d — an admitted sample vanished", stored, t.Acked)
	}
	if shardShed != m.ShedIngest+m.ShedDisk {
		return fmt.Errorf("per-shard shed %d does not sum to global %d", shardShed, m.ShedIngest+m.ShedDisk)
	}
	return nil
}

// survivors reads every retained sample's hot columns — server,
// timestamp, CPU and memory, the fields the identity checks compare —
// ordered by server then timestamp. The rig reads it once its senders
// have flushed, so the warehouse is quiescent.
func (r *chaosRig) survivors() ([]monitor.Sample, error) {
	var out []monitor.Sample
	for _, id := range r.wh.Servers() {
		points, err := r.wh.Range(id, math.MinInt64, math.MaxInt64)
		if err != nil {
			return nil, err
		}
		for _, p := range points {
			out = append(out, monitor.Sample{
				Server:            id,
				Timestamp:         time.Unix(0, p.TS).UTC(),
				TotalProcessorPct: p.CPU,
				MemCommittedMB:    p.Mem,
			})
		}
	}
	return out, nil
}

// verifyIdentity is the wall's strongest invariant, in three layers:
//
//  1. value integrity — every retained sample matches the generated
//     ground truth for its (server, timestamp) bit for bit, exactly once;
//  2. completeness (when requireAll) — the survivor set IS the generated
//     set: nothing the fault model threw at the network lost a sample;
//  3. aggregate identity — the hourly series served after the chaos are
//     bitwise identical to a clean warehouse rebuilt from the survivors,
//     so resets, retries and shedding left no hidden aggregation skew.
func (r *chaosRig) verifyIdentity(requireAll bool) error {
	survivors, err := r.survivors()
	if err != nil {
		return err
	}
	seen := make(map[genKey]bool, len(survivors))
	for _, s := range survivors {
		k := genKey{s.Server, s.Timestamp.UnixNano()}
		want, ok := r.generated[k]
		if !ok {
			return fmt.Errorf("warehouse retains a sample never generated: %s @ %s", s.Server, s.Timestamp)
		}
		if s.TotalProcessorPct != want.cpu || s.MemCommittedMB != want.mem {
			return fmt.Errorf("corrupted values survived for %s @ %s: stored (%v, %v), generated (%v, %v)",
				s.Server, s.Timestamp, s.TotalProcessorPct, s.MemCommittedMB, want.cpu, want.mem)
		}
		if seen[k] {
			return fmt.Errorf("sample ingested twice: %s @ %s", s.Server, s.Timestamp)
		}
		seen[k] = true
	}
	if requireAll && len(survivors) != len(r.generated) {
		return fmt.Errorf("only %d of %d generated samples survived", len(survivors), len(r.generated))
	}

	ref := monitor.NewWarehouseShards(0, r.wh.Shards())
	for _, s := range survivors {
		ref.Ingest(s)
	}
	for _, st := range r.set.Servers {
		got, gotErr := r.wh.HourlySeries(st.ID, st.Spec, soakEpoch)
		want, wantErr := ref.HourlySeries(st.ID, st.Spec, soakEpoch)
		if (gotErr != nil) != (wantErr != nil) {
			return fmt.Errorf("server %s: chaos warehouse err %v, clean rebuild err %v", st.ID, gotErr, wantErr)
		}
		if gotErr != nil {
			continue // no survivors for this server on either side
		}
		if len(got.Samples) != len(want.Samples) {
			return fmt.Errorf("server %s: chaos warehouse serves %d hours, clean rebuild %d",
				st.ID, len(got.Samples), len(want.Samples))
		}
		for h := range got.Samples {
			if got.Samples[h] != want.Samples[h] {
				return fmt.Errorf("server %s hour %d: aggregates diverge — chaos %+v, clean rebuild %+v",
					st.ID, h, got.Samples[h], want.Samples[h])
			}
		}
	}
	return nil
}
