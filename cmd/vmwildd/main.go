// Command vmwildd is the deployable consolidation service: it runs the
// monitoring warehouse (agents connect over TCP), the query server
// (planning tools pull aggregated series), and — once enough history has
// accumulated — the dynamic consolidation control loop.
//
//	vmwildd -listen :7700 -query-listen :7701 -interval 2h
//
// For a self-contained demonstration, -simulate A feeds the daemon a
// synthetic Banking fleet on compressed time and prints each consolidation
// tick:
//
//	vmwildd -simulate A -servers 40 -ticks 12
package main

import (
	"errors"
	"flag"
	"fmt"
	"io/fs"
	"os"
	"os/signal"
	"path/filepath"
	"strings"
	"syscall"
	"time"

	"vmwild"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "vmwildd:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		listen       = flag.String("listen", "127.0.0.1:7700", "agent ingestion address")
		queryListen  = flag.String("query-listen", "127.0.0.1:7701", "query protocol address")
		interval     = flag.Duration("interval", 2*time.Hour, "consolidation interval")
		retention    = flag.Duration("retention", 30*24*time.Hour, "sample retention")
		ingestShards = flag.Int("ingest-shards", vmwild.DefaultIngestShards, "warehouse ingest shard count (also the WAL lane count)")
		snapshot     = flag.String("snapshot", "", "restore this snapshot file at startup and rewrite it on shutdown")
		walDir       = flag.String("wal-dir", "", "journal accepted samples to a write-ahead log in this directory and recover from it at startup")
		fsync        = flag.String("fsync", "interval", "WAL fsync policy: always, interval or never")
		ckptEvery    = flag.Int("checkpoint-every", 0, "floor on WAL appends between warehouse checkpoints; a lane checkpoints after a quarter of its shard size or this share, whichever is larger (0 = default 4096)")
		healthListen = flag.String("health-listen", "", "serve /healthz and /readyz on this address (empty disables)")
		readTimeout  = flag.Duration("read-timeout", 5*time.Minute, "sever ingestion/query connections silent longer than this (0 disables)")
		writeTimeout = flag.Duration("write-timeout", 0, "per-write deadline on ack and response writes (0 = 30s default)")
		maxLineBytes = flag.Int("max-line-bytes", 0, "size bound on one ingest frame and one query line; larger ones close the connection (0 = 1 MiB default)")
		maxConns     = flag.Int("max-conns", 0, "max concurrent agent connections; excess waits in the accept backlog (0 = unbounded)")
		qryMaxConns  = flag.Int("query-max-conns", 0, "max concurrent query connections (0 = unbounded)")
		queryWorkers = flag.Int("query-workers", 0, "pipelined query worker pool size (0 = default 8)")
		ingestRate   = flag.Float64("ingest-rate", 0, "token-bucket ingest refill in samples/sec; requires -ingest-burst")
		ingestBurst  = flag.Int("ingest-burst", 0, "token-bucket ingest burst in samples; 0 disables the limiter")
		faultProfile = flag.String("disk-fault-profile", "", "inject seeded filesystem faults on the durable paths: off, flaky, corrupt or enospc:<bytes> (testing only, never production)")
		faultSeed    = flag.Int64("disk-fault-seed", vmwild.DefaultSeed, "seed for the -disk-fault-profile fault schedule")
		simulate     = flag.String("simulate", "", "run a self-contained simulation of workload A, B, C or D instead of serving")
		servers      = flag.Int("servers", 40, "simulated fleet size")
		ticks        = flag.Int("ticks", 12, "simulated consolidation intervals")
		seed         = flag.Int64("seed", vmwild.DefaultSeed, "simulation seed")
		failRate     = flag.Float64("fail-rate", 0, "simulated per-attempt migration failure probability")
		stallRate    = flag.Float64("stall-rate", 0, "simulated per-attempt migration stall probability")
		dropRate     = flag.Float64("drop-rate", 0, "simulated per-sample agent dropout probability")
		retryBudget  = flag.Int("retry-budget", 0, "migration attempts per VM before aborting (0 = default 3)")
	)
	flag.Parse()

	if *simulate != "" {
		return simulateRun(*simulate, *servers, *ticks, *seed, simFaults{
			failRate:    *failRate,
			stallRate:   *stallRate,
			dropRate:    *dropRate,
			retryBudget: *retryBudget,
		})
	}
	return serve(serveConfig{
		listen:       *listen,
		queryListen:  *queryListen,
		interval:     *interval,
		retention:    *retention,
		ingestShards: *ingestShards,
		snapshotPath: *snapshot,
		walDir:       *walDir,
		fsync:        *fsync,
		ckptEvery:    *ckptEvery,
		healthListen: *healthListen,
		readTimeout:  *readTimeout,
		writeTimeout: *writeTimeout,
		maxLineBytes: *maxLineBytes,
		maxConns:     *maxConns,
		qryMaxConns:  *qryMaxConns,
		queryWorkers: *queryWorkers,
		ingestRate:   *ingestRate,
		ingestBurst:  *ingestBurst,
		faultProfile: *faultProfile,
		faultSeed:    *faultSeed,
	})
}

// serveConfig carries the daemon-mode settings.
type serveConfig struct {
	listen, queryListen string
	interval, retention time.Duration
	ingestShards        int
	snapshotPath        string
	walDir, fsync       string
	ckptEvery           int
	healthListen        string
	readTimeout         time.Duration
	writeTimeout        time.Duration
	maxLineBytes        int
	maxConns            int
	qryMaxConns         int
	queryWorkers        int
	ingestRate          float64
	ingestBurst         int
	faultProfile        string
	faultSeed           int64
}

// storageFS picks the filesystem the durable paths run on: the real OS,
// or — when -disk-fault-profile asks for it — a seeded fault injector
// rooted at the durable directory. A dev/test hook: it lets an operator
// rehearse the daemon's ENOSPC shedding, poisoned-segment handling and
// crash recovery without sacrificing a disk.
func (cfg serveConfig) storageFS(root string) (vmwild.FS, error) {
	prof, err := vmwild.ParseFaultProfile(cfg.faultProfile)
	if err != nil {
		return nil, err
	}
	if prof == (vmwild.FaultProfile{}) {
		return vmwild.OSFS, nil
	}
	fmt.Fprintf(os.Stderr, "vmwildd: DISK FAULT INJECTION ACTIVE (profile %q, seed %d) — testing only\n",
		cfg.faultProfile, cfg.faultSeed)
	return vmwild.NewFaultFS(vmwild.OSFS, root, cfg.faultSeed, prof)
}

// serve runs the daemon against real agents until SIGINT/SIGTERM.
func serve(cfg serveConfig) error {
	if cfg.walDir != "" && cfg.snapshotPath != "" {
		// The WAL checkpoints subsume shutdown snapshots; restoring both
		// would double-count every sample the snapshot shares with the log.
		return errors.New("-snapshot and -wal-dir are mutually exclusive")
	}

	// One filesystem for every durable path, rooted at whichever durable
	// directory is in use (the mutual exclusion above guarantees at most
	// one), so a fault schedule keys on stable relative paths.
	durableRoot := cfg.walDir
	if durableRoot == "" && cfg.snapshotPath != "" {
		durableRoot = filepath.Dir(cfg.snapshotPath)
	}
	if cfg.faultProfile != "" && durableRoot == "" {
		return errors.New("-disk-fault-profile requires -wal-dir or -snapshot")
	}
	storeFS, err := cfg.storageFS(durableRoot)
	if err != nil {
		return err
	}

	// Liveness first: /healthz must answer while a large WAL is still
	// replaying, /readyz flips only once recovery and the listeners are up.
	var health *healthServer
	if cfg.healthListen != "" {
		h, err := startHealth(cfg.healthListen)
		if err != nil {
			return fmt.Errorf("health listener: %w", err)
		}
		health = h
		defer health.Close()
		fmt.Printf("health endpoints on %s\n", health.Addr())
	}

	if cfg.ingestRate > 0 && cfg.ingestBurst <= 0 {
		return errors.New("-ingest-rate requires -ingest-burst")
	}

	warehouse := vmwild.NewWarehouseShards(cfg.retention, cfg.ingestShards)
	warehouse.ReadTimeout = cfg.readTimeout
	warehouse.WriteTimeout = cfg.writeTimeout
	warehouse.MaxLineBytes = cfg.maxLineBytes
	warehouse.MaxConns = cfg.maxConns
	if cfg.ingestBurst > 0 {
		warehouse.SetIngestLimit(cfg.ingestRate, cfg.ingestBurst)
	}
	if cfg.snapshotPath != "" {
		// A crash during a previous shutdown snapshot may have stranded
		// temp files next to the target; sweep them before writing more.
		cleanupStaleSnapshots(storeFS, cfg.snapshotPath)
		f, err := storeFS.OpenFile(cfg.snapshotPath, os.O_RDONLY, 0)
		switch {
		case err == nil:
			n, err := warehouse.Restore(f)
			f.Close()
			if err != nil {
				return fmt.Errorf("restore snapshot: %w", err)
			}
			fmt.Printf("restored %d samples from %s\n", n, cfg.snapshotPath)
		case errors.Is(err, fs.ErrNotExist):
			// First boot: nothing to restore yet.
		default:
			// A present-but-unreadable snapshot (permissions, I/O) must
			// abort startup, not silently run on an empty warehouse.
			return fmt.Errorf("open snapshot: %w", err)
		}
	}

	detail := map[string]any{"phase": "serving"}
	var wlog *vmwild.WarehouseLog
	if cfg.walDir != "" {
		policy, err := vmwild.ParseSyncPolicy(cfg.fsync)
		if err != nil {
			return err
		}
		wlog, err = vmwild.OpenWarehouseLog(warehouse, cfg.walDir, cfg.ckptEvery, vmwild.WALOptions{Sync: policy, FS: storeFS})
		if err != nil {
			return fmt.Errorf("wal recovery: %w", err)
		}
		rec := wlog.Recovery()
		fmt.Printf("wal recovery: %d samples from checkpoint, %d replayed", rec.Restored, rec.Replayed)
		if rec.TornBytes > 0 {
			fmt.Printf(", %d torn bytes discarded", rec.TornBytes)
		}
		fmt.Println()
		detail["walRestored"] = rec.Restored
		detail["walReplayed"] = rec.Replayed
		detail["walTornBytes"] = rec.TornBytes
	}

	addr, err := warehouse.Listen(cfg.listen)
	if err != nil {
		return err
	}
	qs := vmwild.NewQueryServer(warehouse)
	qs.ReadTimeout = cfg.readTimeout
	qs.WriteTimeout = cfg.writeTimeout
	qs.MaxLineBytes = cfg.maxLineBytes
	qs.MaxConns = cfg.qryMaxConns
	qs.Workers = cfg.queryWorkers
	// Priority shedding: when the agent side approaches its connection
	// cap, refuse NEW query connections first — losing a planning query
	// is recoverable, losing monitoring samples is not.
	qs.RejectWhen = warehouse.UnderPressure
	qaddr, err := qs.Listen(cfg.queryListen)
	if err != nil {
		warehouse.Close()
		return err
	}
	fmt.Printf("ingesting on %s, serving queries on %s, interval %v\n", addr, qaddr, cfg.interval)
	if health != nil {
		detail["ingest"] = addr
		detail["query"] = qaddr
		health.setReady(detail)
		health.setVarz(func() any {
			return map[string]any{
				"warehouse": warehouse.Metrics(),
				"query":     qs.Metrics(),
			}
		})
		// A disk-degraded warehouse is alive but refusing ingest; surface
		// that on /readyz so load balancers steer agents to a healthy
		// replica while the operator frees space.
		health.setDegraded(warehouse.DiskDegraded)
	}

	stop := make(chan os.Signal, 1)
	signal.Notify(stop, syscall.SIGINT, syscall.SIGTERM)
	defer signal.Stop(stop)
	<-stop

	// Close the listeners and drain the handlers before the final
	// checkpoint: an envelope reaching a closed log would be acked as
	// shed, and its sender would never retry it.
	closeErr := errors.Join(qs.Close(), warehouse.Close())
	if wlog != nil {
		// Close takes a final checkpoint, so the next boot restores
		// without replay.
		if err := wlog.Close(); err != nil {
			return fmt.Errorf("wal shutdown checkpoint: %w", err)
		}
		fmt.Printf("wal checkpointed in %s\n", cfg.walDir)
	}
	if cfg.snapshotPath != "" {
		if err := writeSnapshot(storeFS, warehouse, cfg.snapshotPath); err != nil {
			return err
		}
		fmt.Printf("snapshot written to %s\n", cfg.snapshotPath)
	}
	return closeErr
}

// cleanupStaleSnapshots removes temp files a crashed shutdown snapshot
// left behind in the snapshot's directory, logging each one — silent
// accumulation is how disks fill up.
func cleanupStaleSnapshots(fsys vmwild.FS, path string) {
	dir := filepath.Dir(path)
	entries, err := fsys.ReadDir(dir)
	if err != nil {
		fmt.Fprintf(os.Stderr, "vmwildd: stale snapshot sweep of %s: %v\n", dir, err)
		return
	}
	for _, e := range entries {
		if e.IsDir() || !strings.HasPrefix(e.Name(), ".snapshot-") {
			continue
		}
		f := filepath.Join(dir, e.Name())
		if err := fsys.Remove(f); err != nil {
			fmt.Fprintf(os.Stderr, "vmwildd: stale snapshot %s: %v\n", f, err)
			continue
		}
		fmt.Printf("removed stale snapshot temp file %s\n", f)
	}
}

// writeSnapshot persists the warehouse atomically: the snapshot streams
// into a temp file in the target directory and replaces the old file only
// by rename, so a crash mid-write can never truncate the previous good
// snapshot. Every step's error is checked — the rename commits only
// durable bytes (fsync before rename, directory sync after).
func writeSnapshot(fsys vmwild.FS, warehouse *vmwild.Warehouse, path string) error {
	tmpName := filepath.Join(filepath.Dir(path), ".snapshot-"+filepath.Base(path)+".tmp")
	tmp, err := fsys.OpenFile(tmpName, os.O_RDWR|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return fmt.Errorf("write snapshot: %w", err)
	}
	// On any failure, remove the temp file and say so: a silently stranded
	// temp both leaks disk and hides that the snapshot is missing.
	closed := false
	fail := func(stage string, err error) error {
		if !closed {
			tmp.Close()
		}
		if rmErr := fsys.Remove(tmpName); rmErr != nil {
			fmt.Fprintf(os.Stderr, "vmwildd: snapshot %s failed and temp file %s could not be removed: %v\n",
				stage, tmpName, rmErr)
		} else {
			fmt.Fprintf(os.Stderr, "vmwildd: snapshot %s failed, temp file removed\n", stage)
		}
		return fmt.Errorf("write snapshot: %s: %w", stage, err)
	}
	if err := warehouse.Snapshot(tmp); err != nil {
		return fail("stream", err)
	}
	if err := tmp.Sync(); err != nil {
		return fail("sync", err)
	}
	if err := tmp.Close(); err != nil {
		closed = true
		return fail("close", err)
	}
	closed = true
	if err := fsys.Rename(tmpName, path); err != nil {
		return fail("rename", err)
	}
	if err := fsys.SyncDir(filepath.Dir(path)); err != nil {
		// The rename itself is atomic; a failed directory sync weakens
		// crash ordering but does not invalidate the snapshot.
		fmt.Fprintf(os.Stderr, "vmwildd: snapshot directory sync: %v\n", err)
	}
	return nil
}

// simFaults carries the simulation's fault-injection knobs.
type simFaults struct {
	failRate, stallRate, dropRate float64
	retryBudget                   int
}

func (s simFaults) enabled() bool {
	return s.failRate > 0 || s.stallRate > 0 || s.dropRate > 0
}

// simulateRun exercises the full daemon loop on compressed time.
func simulateRun(workload string, servers, ticks int, seed int64, faults simFaults) error {
	var profile *vmwild.Profile
	for _, p := range vmwild.Profiles() {
		if p.Name == workload {
			profile = p
			break
		}
	}
	if profile == nil {
		return fmt.Errorf("unknown workload %q", workload)
	}
	profile.Servers = servers

	warmup := 7 * 24
	horizon := warmup + 2*ticks + 2
	fleet, err := vmwild.Generate(profile, horizon, seed)
	if err != nil {
		return err
	}
	epoch := time.Date(2012, 6, 4, 0, 0, 0, 0, time.UTC)
	warehouse := vmwild.NewWarehouse(0)
	specs := make(map[vmwild.ServerID]vmwild.Spec)
	sources := make([]vmwild.MonitorSource, len(fleet.Servers))
	for i, st := range fleet.Servers {
		specs[st.ID] = st.Spec
		src, err := vmwild.NewTraceSource(st, epoch, int64(i))
		if err != nil {
			return err
		}
		sources[i] = src
	}
	var injector *vmwild.FaultInjector
	if faults.enabled() {
		injector, err = vmwild.NewFaultInjector(vmwild.FaultConfig{
			Seed:             seed,
			MigrationFailure: faults.failRate,
			MigrationStall:   faults.stallRate,
			AgentDropout:     faults.dropRate,
		})
		if err != nil {
			return err
		}
	}

	streamed := 0
	streamUpTo := func(hour int) error {
		for ; streamed < hour*4; streamed++ {
			ts := epoch.Add(time.Duration(streamed*15) * time.Minute)
			for i, src := range sources {
				s, err := src.Collect(ts)
				if err != nil {
					return err
				}
				// A dropped-out agent simply misses this observation;
				// the warehouse aggregates whatever arrived.
				if injector.AgentDrops(fleet.Servers[i].ID, streamed) {
					continue
				}
				warehouse.Ingest(s)
			}
		}
		return nil
	}

	execCfg := vmwild.DefaultExecutorConfig()
	if injector != nil {
		execCfg.Fault = injector
	}
	if faults.retryBudget > 0 {
		execCfg.RetryBudget = faults.retryBudget
	}
	ctrl, err := vmwild.NewController(vmwild.ControllerConfig{
		Fetch: func() (*vmwild.TraceSet, error) {
			return warehouse.CollectSet(profile.Name, specs, epoch)
		},
		Planner:  vmwild.PlanInput{Host: vmwild.HS23Elite()},
		Executor: execCfg,
	})
	if err != nil {
		return err
	}

	fmt.Printf("simulating workload %s: %d servers, %d intervals after a %dh warm-up\n\n",
		profile.Name, servers, ticks, warmup)
	fmt.Println("interval | hosts | migrations | attempted | ok | aborted | wave | feasible")
	for k := 0; k < ticks; k++ {
		hour := warmup + 2*k
		if err := streamUpTo(hour); err != nil {
			return err
		}
		tick, err := ctrl.RunInterval()
		if err != nil {
			return err
		}
		wave := "-"
		if tick.Execution != nil {
			wave = tick.Execution.Total.Round(time.Second).String()
		}
		degraded := ""
		if tick.Degraded {
			degraded = " (degraded)"
		}
		fmt.Printf("%8d | %5d | %10d | %9d | %2d | %7d | %6s | %v%s\n",
			tick.Interval, tick.Step.ActiveHosts, tick.Step.Migrations,
			tick.Moves.Attempted, tick.Moves.Succeeded, tick.Moves.Aborted,
			wave, tick.Feasible, degraded)
	}
	return nil
}
