package monitor

import (
	"context"
	"encoding/json"
	"math"
	"net"
	"strings"
	"testing"
	"time"

	"vmwild/internal/trace"
)

func startQueryServer(t *testing.T, w *Warehouse) (addr string, qs *QueryServer) {
	t.Helper()
	qs = NewQueryServer(w)
	addr, err := qs.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { qs.Close() })
	return addr, qs
}

func seedWarehouse(t *testing.T) *Warehouse {
	t.Helper()
	w := NewWarehouse(0)
	for m := 0; m < 120; m++ {
		ts := epoch.Add(time.Duration(m) * time.Minute)
		w.Ingest(Sample{Server: "a", Timestamp: ts, TotalProcessorPct: 20, MemCommittedMB: 2000})
		w.Ingest(Sample{Server: "b", Timestamp: ts, TotalProcessorPct: 40, MemCommittedMB: 4000})
	}
	return w
}

func TestQueryRoundTrip(t *testing.T) {
	w := seedWarehouse(t)
	addr, qs := startQueryServer(t, w)

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	c, err := DialQuery(ctx, addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	ids, err := c.Servers()
	if err != nil {
		t.Fatal(err)
	}
	if len(ids) != 2 || ids[0] != "a" || ids[1] != "b" {
		t.Fatalf("servers = %v", ids)
	}

	stat, err := c.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if stat.Servers != 2 || stat.Samples != 240 {
		t.Errorf("stats = %+v", stat)
	}

	spec := trace.Spec{CPURPE2: 1000, MemMB: 8192}
	series, err := c.HourlySeries("a", spec, epoch)
	if err != nil {
		t.Fatal(err)
	}
	if series.Len() != 2 {
		t.Fatalf("series length = %d", series.Len())
	}
	// 20% of 1000 RPE2 = 200.
	if math.Abs(series.Samples[0].CPU-200) > 1e-9 || math.Abs(series.Samples[0].Mem-2000) > 1e-9 {
		t.Errorf("hour 0 = %+v", series.Samples[0])
	}

	// The whole pull is one pooled request; a spec for a server the
	// warehouse does not hold is ignored.
	pooled := qs.Metrics().PooledRequests
	set, err := c.FetchSet("dc", map[trace.ServerID]trace.Spec{"a": spec, "b": spec, "gone": spec}, epoch)
	if err != nil {
		t.Fatal(err)
	}
	if n := qs.Metrics().PooledRequests - pooled; n != 1 {
		t.Errorf("FetchSet made %d pooled requests, want 1", n)
	}
	if len(set.Servers) != 2 || set.Servers[0].ID != "a" || set.Servers[1].ID != "b" {
		t.Fatalf("fetched %d servers", len(set.Servers))
	}
	if math.Abs(set.Servers[1].Series.Samples[0].CPU-400) > 1e-9 {
		t.Errorf("server b hour 0 = %+v", set.Servers[1].Series.Samples[0])
	}
}

func TestQueryErrors(t *testing.T) {
	w := seedWarehouse(t)
	addr, _ := startQueryServer(t, w)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	c, err := DialQuery(ctx, addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	// Unknown server.
	if _, err := c.HourlySeries("ghost", trace.Spec{CPURPE2: 1, MemMB: 1}, epoch); err == nil {
		t.Error("expected error for unknown server")
	}
	// The connection must survive an error response.
	if _, err := c.Servers(); err != nil {
		t.Errorf("connection unusable after error: %v", err)
	}
	// FetchSet failures; each leaves the connection serving.
	spec := trace.Spec{CPURPE2: 1, MemMB: 1}
	for _, tc := range []struct {
		name  string
		specs map[trace.ServerID]trace.Spec
		epoch time.Time
		want  string
	}{
		{"missing spec", map[trace.ServerID]trace.Spec{"a": spec}, epoch, "no spec for server b"},
		{"no CPU rating", map[trace.ServerID]trace.Spec{"a": spec, "b": {MemMB: 1}}, epoch, errNoCPURating.Error()},
		{"epoch after first sample", map[trace.ServerID]trace.Spec{"a": spec, "b": spec}, epoch.Add(time.Hour), errPrecedeEpoch.Error()},
	} {
		if _, err := c.FetchSet("dc", tc.specs, tc.epoch); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: err = %v, want %q", tc.name, err, tc.want)
		}
		if s, err := c.HourlySeries("a", spec, epoch); err != nil || s.Len() != 2 {
			t.Fatalf("after %s: series = %v, %v", tc.name, s, err)
		}
	}
}

func TestQueryUnknownOpAndMalformed(t *testing.T) {
	w := seedWarehouse(t)
	addr, _ := startQueryServer(t, w)
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	enc := json.NewEncoder(conn)
	dec := json.NewDecoder(conn)

	// Unknown op yields ok=false but keeps serving.
	if err := enc.Encode(map[string]string{"op": "nonsense"}); err != nil {
		t.Fatal(err)
	}
	var resp queryResponse
	if err := dec.Decode(&resp); err != nil {
		t.Fatal(err)
	}
	if resp.OK || resp.Error == "" {
		t.Errorf("unknown op response = %+v", resp)
	}
	// Still serving on the same connection.
	if err := enc.Encode(map[string]string{"op": "servers"}); err != nil {
		t.Fatal(err)
	}
	if err := dec.Decode(&resp); err != nil {
		t.Fatal(err)
	}
	if !resp.OK || len(resp.Servers) != 2 {
		t.Errorf("servers after error = %+v", resp)
	}
}

func TestQueryMalformedJSONKeepsConnUsable(t *testing.T) {
	w := seedWarehouse(t)
	addr, _ := startQueryServer(t, w)
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	conn.SetDeadline(time.Now().Add(5 * time.Second))
	if _, err := conn.Write([]byte("this is not json\n")); err != nil {
		t.Fatal(err)
	}
	// The bounded malformed line is answered with an error response and
	// the connection stays usable for well-formed requests.
	dec := json.NewDecoder(conn)
	var resp queryResponse
	if err := dec.Decode(&resp); err != nil {
		t.Fatal(err)
	}
	if resp.OK || resp.Error == "" {
		t.Errorf("malformed request response = %+v", resp)
	}
	if err := json.NewEncoder(conn).Encode(map[string]string{"op": "servers"}); err != nil {
		t.Fatal(err)
	}
	if err := dec.Decode(&resp); err != nil {
		t.Fatal(err)
	}
	if !resp.OK || len(resp.Servers) != 2 {
		t.Errorf("servers after malformed request = %+v", resp)
	}
}

func TestQueryServerCloseUnblocks(t *testing.T) {
	w := seedWarehouse(t)
	qs := NewQueryServer(w)
	if _, err := qs.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- qs.Close() }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("close error: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Close did not return")
	}
}
