package main

import (
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"sync/atomic"
	"syscall"
	"testing"
	"time"

	"vmwild"
)

// freeAddr picks a loopback port nothing listens on.
func freeAddr(t *testing.T) string {
	t.Helper()
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := lis.Addr().String()
	lis.Close()
	return addr
}

// TestServeShutdownDrainsBeforeCheckpoint raises SIGTERM while a sender
// streams into a journaled daemon. The listeners must close and the
// handlers drain before the final checkpoint, so no envelope is acked as
// shed against a closed log, and the reopened WAL holds exactly what the
// sender saw acked.
func TestServeShutdownDrainsBeforeCheckpoint(t *testing.T) {
	// Registered first, so a SIGTERM that lands before serve's own handler
	// is caught here instead of killing the test binary.
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGTERM)
	defer signal.Stop(sig)

	cfg := serveConfig{
		listen:       freeAddr(t),
		queryListen:  freeAddr(t),
		retention:    30 * 24 * time.Hour,
		ingestShards: vmwild.DefaultIngestShards,
		walDir:       t.TempDir(),
		fsync:        "interval",
	}
	served := make(chan error, 1)
	go func() { served <- serve(cfg) }()

	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	snd := &vmwild.ReliableSender{
		Addr:       cfg.listen,
		AgentID:    "drain",
		Chunk:      16,
		Backoff:    time.Millisecond,
		BackoffMax: 5 * time.Millisecond,
	}
	epoch := time.Date(2012, 6, 4, 0, 0, 0, 0, time.UTC)
	var acked atomic.Int64
	streamed := make(chan struct{})
	go func() {
		defer close(streamed)
		defer snd.Close()
		for i := 0; ctx.Err() == nil; i++ {
			snd.Queue(vmwild.MonitorSample{
				Server:            vmwild.ServerID(fmt.Sprintf("s%02d", i%8)),
				Timestamp:         epoch.Add(time.Duration(i) * time.Second),
				TotalProcessorPct: 50,
				MemCommittedMB:    512,
			})
			if i%16 == 15 {
				snd.Flush(ctx, 1) //nolint:errcheck // unacked samples stay queued
				acked.Store(snd.Counters().Acked)
			}
		}
	}()

	for acked.Load() < 500 {
		if ctx.Err() != nil {
			t.Fatal("sender never got 500 samples acked")
		}
		time.Sleep(5 * time.Millisecond)
	}
	// serve may not have registered its own handler the moment it starts
	// acking, so repeat the signal until it returns.
	for done := false; !done; {
		if err := syscall.Kill(syscall.Getpid(), syscall.SIGTERM); err != nil {
			t.Fatal(err)
		}
		select {
		case err := <-served:
			if err != nil {
				t.Fatalf("serve: %v", err)
			}
			done = true
		case <-time.After(50 * time.Millisecond):
		case <-ctx.Done():
			t.Fatal("serve did not return after SIGTERM")
		}
	}
	cancel()
	<-streamed

	c := snd.Counters()
	if c.ServerShed != 0 {
		t.Errorf("shutdown acked %d samples as shed", c.ServerShed)
	}
	w := vmwild.NewWarehouseShards(cfg.retention, cfg.ingestShards)
	wlog, err := vmwild.OpenWarehouseLog(w, cfg.walDir, 0, vmwild.WALOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer wlog.Close()
	rec := wlog.Recovery()
	if got := int64(rec.Restored + rec.Replayed); got != c.Acked {
		t.Errorf("recovered %d samples, sender saw %d acked (%+v)", got, c.Acked, c)
	}
	if got := int64(w.Stats().Samples); got != c.Acked {
		t.Errorf("reopened warehouse holds %d samples, sender saw %d acked", got, c.Acked)
	}
}

func TestHealthEndpointsGateOnRecovery(t *testing.T) {
	h, err := startHealth("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer h.Close()
	get := func(path string) int {
		t.Helper()
		resp, err := http.Get("http://" + h.Addr() + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}
	// Alive from the first moment, not ready until recovery finishes.
	if got := get("/healthz"); got != http.StatusOK {
		t.Errorf("/healthz during recovery = %d, want 200", got)
	}
	if got := get("/readyz"); got != http.StatusServiceUnavailable {
		t.Errorf("/readyz during recovery = %d, want 503", got)
	}
	if got := get("/varz"); got != http.StatusServiceUnavailable {
		t.Errorf("/varz before the servers exist = %d, want 503", got)
	}
	h.setReady(map[string]any{"walReplayed": 7})
	if got := get("/readyz"); got != http.StatusOK {
		t.Errorf("/readyz after recovery = %d, want 200", got)
	}
	if got := get("/healthz"); got != http.StatusOK {
		t.Errorf("/healthz after recovery = %d, want 200", got)
	}
}

func TestVarzServesWarehouseMetrics(t *testing.T) {
	h, err := startHealth("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer h.Close()
	w := vmwild.NewWarehouse(0)
	w.MaxConns = 64
	qs := vmwild.NewQueryServer(w)
	h.setVarz(func() any {
		return map[string]any{"warehouse": w.Metrics(), "query": qs.Metrics()}
	})
	resp, err := http.Get("http://" + h.Addr() + "/varz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/varz = %d, want 200", resp.StatusCode)
	}
	var body struct {
		Warehouse vmwild.WarehouseMetrics `json:"warehouse"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		t.Fatal(err)
	}
	if body.Warehouse.MaxConns != 64 {
		t.Fatalf("/varz warehouse.maxConns = %d, want 64", body.Warehouse.MaxConns)
	}
}

func TestServeRejectsFaultProfileWithoutDurablePath(t *testing.T) {
	err := serve(serveConfig{faultProfile: "flaky"})
	if err == nil || !strings.Contains(err.Error(), "requires -wal-dir") {
		t.Fatalf("err = %v, want missing-durable-path error", err)
	}
}

func TestServeRejectsBadFaultProfile(t *testing.T) {
	err := serve(serveConfig{faultProfile: "explode", walDir: "wal"})
	if err == nil || !strings.Contains(err.Error(), "unknown fault profile") {
		t.Fatalf("err = %v, want unknown-profile error", err)
	}
}

// TestReadyzReportsStorageDegraded: once the degraded check flips,
// /readyz turns 503 while /healthz stays 200 — the daemon is alive, just
// refusing ingest.
func TestReadyzReportsStorageDegraded(t *testing.T) {
	h, err := startHealth("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer h.Close()
	h.setReady(nil)
	degraded := false
	h.setDegraded(func() bool { return degraded })
	get := func(path string) int {
		t.Helper()
		resp, err := http.Get("http://" + h.Addr() + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}
	if got := get("/readyz"); got != http.StatusOK {
		t.Fatalf("/readyz healthy = %d, want 200", got)
	}
	degraded = true
	if got := get("/readyz"); got != http.StatusServiceUnavailable {
		t.Errorf("/readyz degraded = %d, want 503", got)
	}
	if got := get("/healthz"); got != http.StatusOK {
		t.Errorf("/healthz degraded = %d, want 200 (liveness is not readiness)", got)
	}
}
