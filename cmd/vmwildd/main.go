// Command vmwildd is the deployable monitoring service: it runs the
// warehouse (agents connect over TCP and stream samples), the query
// server (planning tools pull aggregated series), and optionally the
// per-shard write-ahead journal that makes the warehouse survive restarts.
// It has one mode, serve, and runs until SIGINT or SIGTERM:
//
//	vmwildd -listen :7700 -query-listen :7701 -wal-dir /var/lib/vmwild -health-listen :7702
//
// A self-fed demonstration of the whole loop (agents over TCP into a live
// warehouse and controller) is go run ./examples/runtime; the same loop
// under injected faults is vmwild scenario run correlated-rack-outage.
package main

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
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
	)
	flag.Parse()
	return serve(serveConfig{
		listen:       *listen,
		queryListen:  *queryListen,
		interval:     *interval,
		retention:    *retention,
		ingestShards: *ingestShards,
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
// rooted at the WAL directory. A dev/test hook: it lets an operator
// rehearse the daemon's ENOSPC shedding, poisoned-segment handling and
// crash recovery without sacrificing a disk.
func (cfg serveConfig) storageFS() (vmwild.FS, error) {
	prof, err := vmwild.ParseFaultProfile(cfg.faultProfile)
	if err != nil {
		return nil, err
	}
	if prof == (vmwild.FaultProfile{}) {
		return vmwild.OSFS, nil
	}
	fmt.Fprintf(os.Stderr, "vmwildd: DISK FAULT INJECTION ACTIVE (profile %q, seed %d) — testing only\n",
		cfg.faultProfile, cfg.faultSeed)
	return vmwild.NewFaultFS(vmwild.OSFS, cfg.walDir, cfg.faultSeed, prof)
}

// serve runs the daemon against real agents until SIGINT/SIGTERM.
func serve(cfg serveConfig) error {
	// The journal's filesystem is rooted at -wal-dir, so a fault schedule
	// keys on stable relative paths.
	if cfg.faultProfile != "" && cfg.walDir == "" {
		return errors.New("-disk-fault-profile requires -wal-dir")
	}
	storeFS, err := cfg.storageFS()
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
	return closeErr
}
