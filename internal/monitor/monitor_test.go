package monitor

import (
	"bytes"
	"context"
	"math"
	"net"
	"testing"
	"time"

	"vmwild/internal/trace"
)

var epoch = time.Date(2012, 6, 4, 0, 0, 0, 0, time.UTC) // a Monday

func flatTrace(id string, cpu, mem float64, hours int) *trace.ServerTrace {
	samples := make([]trace.Usage, hours)
	for i := range samples {
		samples[i] = trace.Usage{CPU: cpu, Mem: mem}
	}
	s, err := trace.NewSeries(time.Hour, samples)
	if err != nil {
		panic(err)
	}
	return &trace.ServerTrace{
		ID:     trace.ServerID(id),
		Spec:   trace.Spec{CPURPE2: 1000, MemMB: 8192},
		Series: s,
	}
}

func TestSampleValidate(t *testing.T) {
	good := Sample{Server: "s", Timestamp: epoch, TotalProcessorPct: 50, MemCommittedMB: 100}
	if err := good.Validate(); err != nil {
		t.Errorf("valid sample rejected: %v", err)
	}
	tests := []struct {
		name string
		s    Sample
	}{
		{name: "no server", s: Sample{Timestamp: epoch}},
		{name: "no timestamp", s: Sample{Server: "s"}},
		{name: "cpu out of range", s: Sample{Server: "s", Timestamp: epoch, TotalProcessorPct: 101}},
		{name: "negative memory", s: Sample{Server: "s", Timestamp: epoch, MemCommittedMB: -1}},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if err := tt.s.Validate(); err == nil {
				t.Error("expected validation error")
			}
		})
	}
}

func TestTraceSource(t *testing.T) {
	st := flatTrace("s1", 250, 2048, 4)
	src, err := NewTraceSource(st, epoch, 7)
	if err != nil {
		t.Fatal(err)
	}
	s, err := src.Collect(epoch.Add(90 * time.Minute))
	if err != nil {
		t.Fatal(err)
	}
	if s.Server != "s1" {
		t.Errorf("server = %s", s.Server)
	}
	// 250/1000 = 25% CPU, with ~5% jitter.
	if s.TotalProcessorPct < 15 || s.TotalProcessorPct > 40 {
		t.Errorf("cpu pct = %v, want near 25", s.TotalProcessorPct)
	}
	if s.MemCommittedMB < 1800 || s.MemCommittedMB > 2300 {
		t.Errorf("mem = %v, want near 2048", s.MemCommittedMB)
	}
	if math.Abs(s.PrivilegedPct+s.UserPct-s.TotalProcessorPct) > 1e-9 {
		t.Error("priv + user must equal total processor time")
	}
	if _, err := src.Collect(epoch.Add(-time.Hour)); err == nil {
		t.Error("expected error before epoch")
	}
	if _, err := src.Collect(epoch.Add(100 * time.Hour)); err == nil {
		t.Error("expected error beyond horizon")
	}
	if _, err := NewTraceSource(nil, epoch, 1); err == nil {
		t.Error("expected error for nil trace")
	}
}

func TestWarehouseIngestAndAggregate(t *testing.T) {
	w := NewWarehouse(0)
	// Two samples in hour 0, one in hour 1.
	w.Ingest(Sample{Server: "a", Timestamp: epoch.Add(10 * time.Minute), TotalProcessorPct: 10, MemCommittedMB: 1000})
	w.Ingest(Sample{Server: "a", Timestamp: epoch.Add(40 * time.Minute), TotalProcessorPct: 30, MemCommittedMB: 3000})
	w.Ingest(Sample{Server: "a", Timestamp: epoch.Add(80 * time.Minute), TotalProcessorPct: 50, MemCommittedMB: 5000})
	series, err := w.HourlySeries("a", trace.Spec{CPURPE2: 1000, MemMB: 8192}, epoch)
	if err != nil {
		t.Fatal(err)
	}
	if series.Len() != 2 {
		t.Fatalf("series length = %d, want 2", series.Len())
	}
	// Hour 0 average: (10%+30%)/2 of 1000 = 200 RPE2, mem 2000.
	if math.Abs(series.Samples[0].CPU-200) > 1e-9 || math.Abs(series.Samples[0].Mem-2000) > 1e-9 {
		t.Errorf("hour 0 = %+v, want {200 2000}", series.Samples[0])
	}
	if math.Abs(series.Samples[1].CPU-500) > 1e-9 {
		t.Errorf("hour 1 CPU = %v, want 500", series.Samples[1].CPU)
	}
}

func TestWarehouseOutOfOrderSamples(t *testing.T) {
	w := NewWarehouse(0)
	w.Ingest(Sample{Server: "a", Timestamp: epoch.Add(30 * time.Minute), TotalProcessorPct: 30, MemCommittedMB: 1})
	w.Ingest(Sample{Server: "a", Timestamp: epoch.Add(10 * time.Minute), TotalProcessorPct: 10, MemCommittedMB: 1})
	series, err := w.HourlySeries("a", trace.Spec{CPURPE2: 100, MemMB: 100}, epoch)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(series.Samples[0].CPU-20) > 1e-9 {
		t.Errorf("out-of-order aggregation wrong: %+v", series.Samples[0])
	}
}

func TestWarehouseRetention(t *testing.T) {
	w := NewWarehouse(time.Hour)
	w.Ingest(Sample{Server: "a", Timestamp: epoch, TotalProcessorPct: 1, MemCommittedMB: 1})
	w.Ingest(Sample{Server: "a", Timestamp: epoch.Add(3 * time.Hour), TotalProcessorPct: 2, MemCommittedMB: 1})
	if got := w.SampleCount("a"); got != 1 {
		t.Errorf("retained %d samples, want 1 after expiry", got)
	}
	if w.Dropped() != 1 {
		t.Errorf("dropped = %d, want 1", w.Dropped())
	}
}

func TestWarehouseRejectsInvalid(t *testing.T) {
	w := NewWarehouse(0)
	w.Ingest(Sample{Server: "", Timestamp: epoch})
	if w.Dropped() != 1 || len(w.Servers()) != 0 {
		t.Error("invalid sample should be dropped")
	}
}

func TestWarehouseErrors(t *testing.T) {
	w := NewWarehouse(0)
	if _, err := w.HourlySeries("missing", trace.Spec{CPURPE2: 1}, epoch); err == nil {
		t.Error("expected error for unknown server")
	}
	w.Ingest(Sample{Server: "a", Timestamp: epoch, TotalProcessorPct: 1, MemCommittedMB: 1})
	if _, err := w.HourlySeries("a", trace.Spec{}, epoch); err == nil {
		t.Error("expected error for zero spec")
	}
	if _, err := w.HourlySeries("a", trace.Spec{CPURPE2: 1}, epoch.Add(time.Hour)); err == nil {
		t.Error("expected error for samples before epoch")
	}
	if _, err := w.CollectSet("x", map[trace.ServerID]trace.Spec{}, epoch); err == nil {
		t.Error("expected error for missing spec in CollectSet")
	}
}

func TestEndToEndOverTCP(t *testing.T) {
	w := NewWarehouse(0)
	addr, err := w.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()

	// Backfill two servers' worth of per-minute samples over the socket.
	specs := make(map[trace.ServerID]trace.Spec)
	var ids []trace.ServerID
	const minutes = 120
	for _, id := range []string{"web-1", "web-2"} {
		st := flatTrace(id, 400, 3000, 3)
		specs[st.ID] = st.Spec
		ids = append(ids, st.ID)
		src, err := NewTraceSource(st, epoch, 42)
		if err != nil {
			t.Fatal(err)
		}
		batch := make([]Sample, 0, minutes)
		for m := 0; m < minutes; m++ {
			s, err := src.Collect(epoch.Add(time.Duration(m) * time.Minute))
			if err != nil {
				t.Fatal(err)
			}
			batch = append(batch, s)
		}
		if err := sendSamples(ctx, addr, batch); err != nil {
			t.Fatal(err)
		}
	}

	if err := w.WaitForSamples(ctx, ids, minutes); err != nil {
		t.Fatalf("samples did not arrive: %v (stats %+v)", err, w.Stats())
	}
	set, err := w.CollectSet("demo", specs, epoch)
	if err != nil {
		t.Fatal(err)
	}
	if len(set.Servers) != 2 {
		t.Fatalf("collected %d servers, want 2", len(set.Servers))
	}
	for _, st := range set.Servers {
		if st.Series.Len() != 2 {
			t.Errorf("%s aggregated %d hours, want 2", st.ID, st.Series.Len())
		}
		// The hourly average should track the underlying 400 RPE2 /
		// 3000 MB demand within jitter.
		u := st.Series.Samples[0]
		if u.CPU < 330 || u.CPU > 470 {
			t.Errorf("%s hour-0 CPU = %v, want near 400", st.ID, u.CPU)
		}
		if u.Mem < 2700 || u.Mem > 3300 {
			t.Errorf("%s hour-0 mem = %v, want near 3000", st.ID, u.Mem)
		}
	}
	stat := w.Stats()
	if stat.Servers != 2 || stat.Samples != 2*minutes {
		t.Errorf("stats = %+v", stat)
	}
}

func TestAgentStreamsOverTCP(t *testing.T) {
	w := NewWarehouse(0)
	addr, err := w.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()

	st := flatTrace("agent-1", 100, 1000, 100)
	src, err := NewTraceSource(st, epoch, 7)
	if err != nil {
		t.Fatal(err)
	}
	// Compress time: each 2ms tick observes one simulated minute.
	var tick int
	agent := &Agent{
		Source:   src,
		Addr:     addr,
		Interval: 2 * time.Millisecond,
		Now: func() time.Time {
			tick++
			return epoch.Add(time.Duration(tick) * time.Minute)
		},
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	done := make(chan error, 1)
	go func() { done <- agent.Run(ctx) }()

	if err := w.WaitForSamples(ctx, []trace.ServerID{"agent-1"}, 20); err != nil {
		t.Fatalf("agent samples did not arrive: %v", err)
	}
	cancel()
	if err := <-done; err != nil {
		t.Fatalf("agent returned error: %v", err)
	}
	if w.SampleCount("agent-1") < 20 {
		t.Error("expected at least 20 samples")
	}
}

func TestAgentConfigErrors(t *testing.T) {
	ctx := context.Background()
	if err := (&Agent{}).Run(ctx); err == nil {
		t.Error("expected error for missing source")
	}
	src, _ := NewTraceSource(flatTrace("x", 1, 1, 1), epoch, 1)
	if err := (&Agent{Source: src}).Run(ctx); err == nil {
		t.Error("expected error for missing address")
	}
	if err := (&Agent{Source: src, Addr: "127.0.0.1:1"}).Run(ctx); err == nil {
		t.Error("expected error for non-positive interval")
	}
}

func TestAgentReconnectsAfterWarehouseRestart(t *testing.T) {
	// Start a warehouse, kill it mid-stream, restart on the same port:
	// the agent must reconnect and keep delivering.
	w1 := NewWarehouse(0)
	addr, err := w1.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}

	st := flatTrace("phoenix", 200, 1000, 1000)
	src, err := NewTraceSource(st, epoch, 3)
	if err != nil {
		t.Fatal(err)
	}
	var tick int
	agent := &Agent{
		Source:   src,
		Addr:     addr,
		Interval: 2 * time.Millisecond,
		Backoff:  5 * time.Millisecond,
		Now: func() time.Time {
			tick++
			return epoch.Add(time.Duration(tick) * time.Minute)
		},
	}
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()
	done := make(chan error, 1)
	go func() { done <- agent.Run(ctx) }()

	if err := w1.WaitForSamples(ctx, []trace.ServerID{"phoenix"}, 5); err != nil {
		t.Fatalf("first warehouse got no samples: %v", err)
	}
	if err := w1.Close(); err != nil {
		t.Fatalf("close first warehouse: %v", err)
	}

	// Restart on the same address (retry briefly: the port lingers).
	var w2 *Warehouse
	for attempt := 0; attempt < 100; attempt++ {
		w2 = NewWarehouse(0)
		if _, err := w2.Listen(addr); err == nil {
			break
		}
		w2 = nil
		time.Sleep(20 * time.Millisecond)
	}
	if w2 == nil {
		t.Fatal("could not rebind warehouse address")
	}
	defer w2.Close()

	if err := w2.WaitForSamples(ctx, []trace.ServerID{"phoenix"}, 5); err != nil {
		t.Fatalf("agent did not reconnect: %v (stats %+v)", err, w2.Stats())
	}
	cancel()
	if err := <-done; err != nil {
		t.Fatalf("agent error: %v", err)
	}
}

func TestWarehouseRejectsGarbageOverTCP(t *testing.T) {
	w := NewWarehouse(0)
	addr, err := w.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	// A valid sample, then garbage, then a valid sample on a fresh
	// connection: the warehouse must keep the valid data and survive.
	if err := sendSamples(ctx, addr, []Sample{
		{Server: "ok", Timestamp: epoch, TotalProcessorPct: 10, MemCommittedMB: 1},
	}); err != nil {
		t.Fatal(err)
	}
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := conn.Write([]byte("{malformed\n")); err != nil {
		t.Fatal(err)
	}
	conn.Close()
	if err := sendSamples(ctx, addr, []Sample{
		{Server: "ok", Timestamp: epoch.Add(time.Minute), TotalProcessorPct: 20, MemCommittedMB: 1},
	}); err != nil {
		t.Fatal(err)
	}
	if err := w.WaitForSamples(ctx, []trace.ServerID{"ok"}, 2); err != nil {
		t.Fatalf("warehouse lost valid samples around garbage: %v", err)
	}
}

func TestSnapshotRestore(t *testing.T) {
	w := NewWarehouse(0)
	for m := 0; m < 90; m++ {
		ts := epoch.Add(time.Duration(m) * time.Minute)
		w.Ingest(Sample{Server: "a", Timestamp: ts, TotalProcessorPct: 25, MemCommittedMB: 1000})
		w.Ingest(Sample{Server: "b", Timestamp: ts, TotalProcessorPct: 50, MemCommittedMB: 2000})
	}
	var buf bytes.Buffer
	if err := w.Snapshot(&buf); err != nil {
		t.Fatal(err)
	}
	restored := NewWarehouse(0)
	n, err := restored.restore(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if n != 180 {
		t.Errorf("restored %d samples, want 180", n)
	}
	if restored.Stats() != w.Stats() {
		t.Errorf("stats diverge: %+v vs %+v", restored.Stats(), w.Stats())
	}
	spec := trace.Spec{CPURPE2: 1000, MemMB: 8192}
	orig, err := w.HourlySeries("b", spec, epoch)
	if err != nil {
		t.Fatal(err)
	}
	back, err := restored.HourlySeries("b", spec, epoch)
	if err != nil {
		t.Fatal(err)
	}
	for i := range orig.Samples {
		if orig.Samples[i] != back.Samples[i] {
			t.Fatalf("hour %d diverges after restore", i)
		}
	}
}

func TestRestoreErrors(t *testing.T) {
	w := NewWarehouse(0)
	if _, err := w.restore([]byte("not json\n")); err == nil {
		t.Error("expected error for malformed snapshot")
	}
	// A truncated-but-valid prefix restores what it has.
	n, err := w.restore(nil)
	if err != nil || n != 0 {
		t.Errorf("empty restore = %d, %v", n, err)
	}
}
