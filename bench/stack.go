package main

import (
	"context"
	"errors"
	"fmt"
	"strconv"
	"time"

	"vmwild"
	"vmwild/internal/stats"
)

// epoch is hour zero of every generated fleet (hour-aligned, so hourly
// reads take the warehouse's aggregate fast path as a deployment's do).
var epoch = time.Date(2012, 6, 4, 0, 0, 0, 0, time.UTC)

// retention is vmwildd's default: the paper's planners use the most recent
// 30 days.
const retention = 30 * 24 * time.Hour

// fleet is one generated data center: hourly demand traces and, on top of
// them, the per-server sample sources agents would poll. Everything is a
// pure function of (seed, servers, hours).
type fleet struct {
	set     *vmwild.TraceSet
	specs   map[vmwild.ServerID]vmwild.Spec
	sources []vmwild.MonitorSource
}

// newFleet generates a Banking-profile fleet. The Banking mix is the
// paper's data center A; servers rescales it, hours is the horizon samples
// may be drawn from.
func newFleet(seed int64, servers, hours int) (*fleet, error) {
	p := vmwild.Banking()
	p.Servers = servers
	set, err := vmwild.Generate(p, hours, stats.Split(seed, "fleet"))
	if err != nil {
		return nil, fmt.Errorf("generate fleet: %w", err)
	}
	f := &fleet{
		set:     set,
		specs:   make(map[vmwild.ServerID]vmwild.Spec, len(set.Servers)),
		sources: make([]vmwild.MonitorSource, len(set.Servers)),
	}
	for i, st := range set.Servers {
		f.specs[st.ID] = st.Spec
		src, err := vmwild.NewTraceSource(st, epoch, stats.Split(seed, "source", string(st.ID)))
		if err != nil {
			return nil, fmt.Errorf("trace source %s: %w", st.ID, err)
		}
		f.sources[i] = src
	}
	return f, nil
}

func (f *fleet) servers() int { return len(f.sources) }

// tick appends every server's sample at the given tick (perHour ticks per
// virtual hour) in server order. Sources are stateful jitter streams, so
// ticks must be drawn in increasing order, once each.
func (f *fleet) tick(dst []vmwild.MonitorSample, tick, perHour int) ([]vmwild.MonitorSample, error) {
	return f.tickRange(dst, 0, f.servers(), tick, perHour)
}

// tickRange is tick over servers [lo, hi).
func (f *fleet) tickRange(dst []vmwild.MonitorSample, lo, hi, tick, perHour int) ([]vmwild.MonitorSample, error) {
	ts := epoch.Add(time.Duration(tick) * time.Hour / time.Duration(perHour))
	for i := lo; i < hi; i++ {
		s, err := f.sources[i].Collect(ts)
		if err != nil {
			return dst, fmt.Errorf("collect %s tick %d: %w", f.set.Servers[i].ID, tick, err)
		}
		dst = append(dst, s)
	}
	return dst, nil
}

// preload ingests ticks [0, hours*perHour) in process and returns how many
// samples went in. It runs before the WAL is attached, as set-up: the
// first checkpoint then covers the preloaded state.
func (f *fleet) preload(w *vmwild.Warehouse, hours, perHour int) (int, error) {
	var (
		batch []vmwild.MonitorSample
		n     int
		err   error
	)
	for tick := 0; tick < hours*perHour; tick++ {
		batch, err = f.tick(batch[:0], tick, perHour)
		if err != nil {
			return n, err
		}
		w.IngestBatch(batch)
		n += len(batch)
	}
	return n, nil
}

// stackConfig says which parts of the vmwildd assembly a workload needs.
type stackConfig struct {
	// walDir turns journaling on (fsync=interval, default checkpoint
	// cadence); fs is the filesystem it runs on (nil = the OS).
	walDir string
	fs     vmwild.FS
	// replicas enables the read replicas at vmwildd's default cadence.
	replicas bool
	// query starts the query server.
	query bool
}

// stack is the in-process equivalent of a serving vmwildd: the same
// constructors in the same order with the same defaults as cmd/vmwildd's
// serve, minus flags and signal handling.
type stack struct {
	wh   *vmwild.Warehouse
	wlog *vmwild.WarehouseLog
	qs   *vmwild.QueryServer

	ingestAddr string
	queryAddr  string
}

// startStack assembles the stack. preload, when non-nil, fills the
// warehouse before the journal attaches.
func startStack(cfg stackConfig, preload func(*vmwild.Warehouse) error) (*stack, error) {
	s := &stack{wh: vmwild.NewWarehouseShards(retention, vmwild.DefaultIngestShards)}
	s.wh.ReadTimeout = 5 * time.Minute
	if preload != nil {
		if err := preload(s.wh); err != nil {
			return nil, err
		}
	}
	if cfg.walDir != "" {
		wlog, err := vmwild.OpenWarehouseLog(s.wh, cfg.walDir, 0, vmwild.WALOptions{Sync: vmwild.SyncInterval, FS: cfg.fs})
		if err != nil {
			return nil, fmt.Errorf("open warehouse log: %w", err)
		}
		s.wlog = wlog
		if preload != nil {
			// Make the preloaded state durable, so what recovery must
			// reproduce is exactly what the warehouse holds.
			if err := wlog.Checkpoint(); err != nil {
				s.Close()
				return nil, fmt.Errorf("checkpoint preload: %w", err)
			}
		}
	}
	if cfg.replicas {
		err := s.wh.EnableReplicas(vmwild.ReplicaConfig{
			EverySamples: vmwild.DefaultReplicaEverySamples,
			MaxAge:       vmwild.DefaultReplicaMaxAge,
		})
		if err != nil {
			s.Close()
			return nil, fmt.Errorf("enable replicas: %w", err)
		}
	}
	addr, err := s.wh.Listen("127.0.0.1:0")
	if err != nil {
		s.Close()
		return nil, err
	}
	s.ingestAddr = addr
	if cfg.query {
		s.qs = vmwild.NewQueryServer(s.wh)
		s.qs.ReadTimeout = 5 * time.Minute
		s.qs.RejectWhen = s.wh.UnderPressure
		qaddr, err := s.qs.Listen("127.0.0.1:0")
		if err != nil {
			s.Close()
			return nil, err
		}
		s.queryAddr = qaddr
	}
	return s, nil
}

// Close stops the listeners and, like vmwildd's shutdown, takes the final
// checkpoint. It waits for every server goroutine to end.
func (s *stack) Close() error {
	var errs []error
	if s.qs != nil {
		errs = append(errs, s.qs.Close())
	}
	// Also ends the replica goroutine of a stack that never got to listen.
	errs = append(errs, s.wh.Close())
	if s.wlog != nil {
		errs = append(errs, s.wlog.Close())
	}
	return errors.Join(errs...)
}

// newSender builds one agent-side sender with the library's defaults (512
// samples per envelope); maxPending sizes the queue to the largest burst the
// workload hands it before a Flush (0 keeps the default 4096).
func newSender(addr, agent string, seed int64, maxPending int) *vmwild.ReliableSender {
	return &vmwild.ReliableSender{
		Addr:       addr,
		AgentID:    agent,
		Seed:       stats.Split(seed, "sender", agent),
		MaxPending: maxPending,
	}
}

// flushAll drives a sender's queue to empty, allowing each envelope three
// tries. The workloads are chosen so that nothing fails; a retry that does
// happen shows in monitor.sender.retries.
func flushAll(ctx context.Context, snd *vmwild.ReliableSender) error {
	return snd.Flush(ctx, 3)
}

func agentName(i int) string { return "bench-agent-" + strconv.Itoa(i) }
