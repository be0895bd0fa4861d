package monitor

import (
	"bufio"
	"bytes"
	"context"
	"encoding/base64"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"vmwild/internal/trace"
)

// The series payload contract: the wire carries float64 bits, the client's
// line recogniser never disagrees with encoding/json, and a payload that is
// not whole samples fails the call that asked for it.

func dialQueryT(t *testing.T, addr string) *QueryClient {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	c, err := DialQuery(ctx, addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

// scriptedQueryServer answers every request line on one connection with
// {"id":N, + line + newline, then tail, where answer(request) gives line and
// tail — payloads no warehouse produces.
func scriptedQueryServer(t *testing.T, answer func(queryRequest) (line, tail []byte)) string {
	t.Helper()
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { lis.Close() })
	go func() {
		conn, err := lis.Accept()
		if err != nil {
			return
		}
		defer conn.Close()
		sc := bufio.NewScanner(conn)
		for sc.Scan() {
			var req queryRequest
			if json.Unmarshal(sc.Bytes(), &req) != nil {
				return
			}
			line, tail := answer(req)
			out := strconv.AppendUint([]byte(`{"id":`), req.ID, 10)
			out = append(append(append(append(out, ','), line...), '\n'), tail...)
			if _, err := conn.Write(out); err != nil {
				return
			}
		}
	}()
	return lis.Addr().String()
}

// hours wraps samples as the hourly series equalSeries compares bitwise.
func hours(samples []trace.Usage) *trace.Series {
	return &trace.Series{Step: time.Hour, Samples: samples}
}

// TestSeriesWireCarriesEveryBitPattern: values a decimal rendering loses or
// refuses — -0, subnormals, MaxFloat64, infinities, NaNs with payloads —
// reach the client with the bits the server packed, in a series line and in
// a set body. A set call that times out leaves its late body to the reader,
// and the connection goes on serving.
func TestSeriesWireCarriesEveryBitPattern(t *testing.T) {
	want := []trace.Usage{
		{CPU: math.Copysign(0, -1), Mem: 0},
		{CPU: math.SmallestNonzeroFloat64, Mem: -math.SmallestNonzeroFloat64},
		{CPU: math.Float64frombits(0x000fffffffffffff), Mem: math.Float64frombits(0x0010000000000000)},
		{CPU: math.MaxFloat64, Mem: -math.MaxFloat64},
		{CPU: math.Inf(1), Mem: math.Inf(-1)},
		{CPU: math.NaN(), Mem: math.Float64frombits(0x7ff0000000000001)}, // quiet and signaling
		{CPU: math.Float64frombits(0xfff8dead0000beef), Mem: 0.1},
	}
	set := appendSetEntry(appendSetEntry(nil, "x", want), "y", want[4:5])
	release := make(chan struct{})
	// The scripted server answers lastHours=n+1 with the first n samples:
	// every prefix, so each base64 padding length is crossed. It holds a
	// set answer until released.
	addr := scriptedQueryServer(t, func(req queryRequest) ([]byte, []byte) {
		if req.Op == "set" {
			<-release
			return []byte(`"ok":true,"bytes":` + strconv.Itoa(len(set)) + `}`), set
		}
		return seriesBody(want[:req.LastHours-1]), nil
	})
	c := dialQueryT(t, addr)
	spec := trace.Spec{CPURPE2: 1, MemMB: 1}
	for n := 0; n <= len(want); n++ {
		got, err := c.HourlySeriesWindow("x", spec, epoch, n+1)
		if err != nil {
			t.Fatalf("%d samples: %v", n, err)
		}
		equalSeries(t, fmt.Sprintf("%d samples", n), hours(want[:n]), got)
	}

	specs := map[trace.ServerID]trace.Spec{"x": spec, "y": spec}
	c.Timeout = 50 * time.Millisecond
	if _, err := c.FetchSet("dc", specs, epoch); err == nil || !strings.Contains(err.Error(), "timeout") {
		t.Fatalf("held set: err = %v, want a timeout", err)
	}
	c.Timeout = time.Minute
	close(release)
	got, err := c.FetchSet("dc", specs, epoch)
	if err != nil {
		t.Fatalf("set after a timed-out one: %v", err)
	}
	if len(got.Servers) != 2 || got.Servers[0].ID != "x" || got.Servers[1].ID != "y" {
		t.Fatalf("set = %+v", got.Servers)
	}
	equalSeries(t, "set x", hours(want), got.Servers[0].Series)
	equalSeries(t, "set y", hours(want[4:5]), got.Servers[1].Series)
	if s, err := c.HourlySeriesWindow("x", spec, epoch, 2); err != nil || s.Len() != 1 {
		t.Fatalf("series after the sets = %v, %v", s, err)
	}
}

// TestSeriesWireNonFiniteFromWarehouse: NaN and +Inf pass Sample.Validate
// and so can sit in a warehouse (in-process Ingest); the decimal payload
// failed such a series with a marshal error. It is carried now, replica and
// live, and FetchSet equals CollectSet bit for bit — as do the largest and
// smallest magnitudes an hourly mean can take, a NaN payload and -0 — with
// an hour-aligned epoch, an unaligned one and timestamps past the
// hour-indexable range (both through the scan fallback). The replica and
// live set bodies are the same bytes.
func TestSeriesWireNonFiniteFromWarehouse(t *testing.T) {
	w := NewWarehouse(0)
	defer w.Close()
	mems := []float64{math.NaN(), math.Inf(1), math.MaxFloat64, math.SmallestNonzeroFloat64,
		math.Float64frombits(0x7ff8dead0000beef), math.Copysign(0, -1), 2048}
	for h, mem := range mems {
		w.Ingest(Sample{Server: "odd", Timestamp: epoch.Add(time.Duration(h) * time.Hour), TotalProcessorPct: 50, MemCommittedMB: mem})
		w.Ingest(Sample{Server: "plain", Timestamp: epoch.Add(time.Duration(h) * time.Hour), TotalProcessorPct: 25, MemCommittedMB: 1024})
	}
	w.Ingest(Sample{Server: "odd", Timestamp: epoch.Add(time.Duration(len(mems)) * time.Hour), TotalProcessorPct: math.NaN(), MemCommittedMB: 1})
	far := time.Date(2250, 1, 1, 0, 0, 0, 0, time.UTC)
	wild := NewWarehouse(0)
	defer wild.Close()
	for m := 0; m < 150; m += 7 {
		wild.Ingest(Sample{Server: "far", Timestamp: far.Add(time.Duration(m) * time.Minute), TotalProcessorPct: float64(m % 61), MemCommittedMB: math.NaN()})
	}
	specs := map[trace.ServerID]trace.Spec{"odd": {CPURPE2: 1000, MemMB: 4096}, "plain": {CPURPE2: 2000, MemMB: 8192}, "far": {CPURPE2: 3000, MemMB: 512}}
	for _, tc := range []struct {
		name  string
		w     *Warehouse
		epoch time.Time
	}{
		{"aligned", w, epoch},
		{"unaligned epoch", w, epoch.Add(-30 * time.Minute)},
		{"wild timestamps", wild, far},
	} {
		if tc.w.replicas.Load() == nil {
			if err := tc.w.EnableReplicas(ReplicaConfig{NoBackground: true}); err != nil {
				t.Fatal(err)
			}
		}
		addr, qs := startQueryServer(t, tc.w)
		live, err := tc.w.CollectSet("dc", specs, tc.epoch)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if odd := live.Servers[0].Series.Samples; tc.w == w && (!math.IsNaN(odd[0].Mem) || !math.IsInf(odd[1].Mem, 1) || odd[2].Mem != math.MaxFloat64 || !math.IsNaN(odd[len(mems)].CPU)) {
			t.Fatalf("%s: the warehouse did not hold the values under test: %v", tc.name, odd)
		}
		var bodies [2][]byte
		for i, consistent := range []bool{false, true} {
			c := dialQueryT(t, addr)
			c.Consistent = consistent
			got, err := c.FetchSet("dc", specs, tc.epoch)
			if err != nil {
				t.Fatalf("%s, consistent=%v: %v", tc.name, consistent, err)
			}
			for i, st := range live.Servers {
				if got.Servers[i].ID != st.ID {
					t.Fatalf("%s, consistent=%v: server %d is %s, want %s", tc.name, consistent, i, got.Servers[i].ID, st.ID)
				}
				equalSeries(t, tc.name+" "+string(st.ID), st.Series, got.Servers[i].Series)
			}
			req := queryRequest{Op: "set", Epoch: tc.epoch, Consistent: consistent, Specs: map[trace.ServerID]float64{}}
			for id, spec := range specs {
				req.Specs[id] = spec.CPURPE2
			}
			bodies[i] = qs.handle(req).raw
		}
		if len(bodies[0]) == 0 || !bytes.Equal(bodies[0], bodies[1]) {
			t.Fatalf("%s: replica set body (%d bytes) differs from the live one (%d bytes)", tc.name, len(bodies[0]), len(bodies[1]))
		}
	}
}

// TestSeriesWireYearLong: a year of hours is a 187 KB line, several times
// the client's read buffer, so it arrives through the reassembly path.
func TestSeriesWireYearLong(t *testing.T) {
	const hours = 365 * 24
	w := NewWarehouse(0)
	defer w.Close()
	for h := 0; h < hours; h++ {
		w.Ingest(Sample{Server: "y", Timestamp: epoch.Add(time.Duration(h) * time.Hour),
			TotalProcessorPct: float64(h%101) * 0.93, MemCommittedMB: 1000 + float64(h)/3})
	}
	if err := w.EnableReplicas(ReplicaConfig{NoBackground: true}); err != nil {
		t.Fatal(err)
	}
	addr, _ := startQueryServer(t, w)
	c := dialQueryT(t, addr)
	spec := trace.Spec{CPURPE2: 11900, MemMB: 131072}
	live, err := w.HourlySeries("y", spec, epoch)
	if err != nil {
		t.Fatal(err)
	}
	for pass := 0; pass < 2; pass++ { // the second is a memo hit, answered inline
		got, err := c.HourlySeries("y", spec, epoch)
		if err != nil {
			t.Fatal(err)
		}
		if got.Len() != hours {
			t.Fatalf("pass %d: %d hours, want %d", pass, got.Len(), hours)
		}
		equalSeries(t, "year", live, got)
	}
	// A short line after the long one: the reassembly buffer leaves nothing behind.
	if ids, err := c.Servers(); err != nil || len(ids) != 1 {
		t.Fatalf("servers after a long line = %v, %v", ids, err)
	}
}

// TestSeriesWireRejectsDamagedPayload: a payload that is not whole samples
// fails the call that asked — no panic, no short series — and the
// connection, whose framing is intact, goes on serving.
func TestSeriesWireRejectsDamagedPayload(t *testing.T) {
	good := seriesBody([]trace.Usage{{CPU: 1, Mem: 2}, {CPU: 3, Mem: 4}, {CPU: 5, Mem: 6}})
	payload := func(b64 string) []byte { return []byte(`"ok":true,"usage":"` + b64 + `"}`) }
	raw := func(n int) string { return base64.StdEncoding.EncodeToString(make([]byte, n)) }
	cases := map[trace.ServerID][]byte{
		"corrupt-byte":  bytes.Replace(good, []byte("A"), []byte("*"), 1),
		"24-bytes":      payload(raw(24)),
		"15-bytes":      payload(raw(15)),
		"17-bytes":      payload(raw(17)),
		"no-padding":    payload(strings.TrimRight(raw(16), "=")),
		"inner-padding": payload(raw(16) + raw(16)),
		"not-a-string":  []byte(`"ok":true,"usage":[1,2]}`),
	}
	addr := scriptedQueryServer(t, func(req queryRequest) ([]byte, []byte) {
		if body, ok := cases[req.Server]; ok {
			return body, nil
		}
		return good, nil
	})
	c := dialQueryT(t, addr)
	spec := trace.Spec{CPURPE2: 1, MemMB: 1}
	for name := range cases {
		if name == "not-a-string" {
			continue // breaks the response shape, not just the payload: last
		}
		if s, err := c.HourlySeries(name, spec, epoch); err == nil {
			t.Errorf("%s: accepted as a %d-hour series", name, s.Len())
		}
		s, err := c.HourlySeries("good", spec, epoch)
		if err != nil || s.Len() != 3 || s.Samples[2].Mem != 6 {
			t.Fatalf("after %s: good series = %+v, %v", name, s, err)
		}
	}
	if s, err := c.HourlySeries("not-a-string", spec, epoch); err == nil {
		t.Errorf("not-a-string: accepted as a %d-hour series", s.Len())
	}
}

// TestQueryClientBoundsResponseLine: a response line past the fixed bound
// ends the connection instead of growing the reassembly buffer without
// limit.
func TestQueryClientBoundsResponseLine(t *testing.T) {
	if testing.Short() {
		t.Skip("moves 64 MB over loopback")
	}
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer lis.Close()
	go func() {
		conn, err := lis.Accept()
		if err != nil {
			return
		}
		defer conn.Close()
		chunk := bytes.Repeat([]byte{'x'}, 1<<20)
		for sent := 0; sent <= maxResponseBytes; sent += len(chunk) {
			if _, err := conn.Write(chunk); err != nil {
				return // the client hung up, as it should
			}
		}
		// Hold the connection: the client must end it on its own.
		io.Copy(io.Discard, conn)
	}()
	c := dialQueryT(t, lis.Addr().String())
	c.Timeout = time.Minute
	_, err = c.Servers()
	if err == nil || !strings.Contains(err.Error(), "line too long") {
		t.Fatalf("oversized line: err = %v, want line too long", err)
	}
	if _, err := c.Servers(); err == nil {
		t.Fatal("connection still usable after an oversized line")
	}
}

// noDeadlineConn is a connection whose write deadline cannot be armed.
type noDeadlineConn struct {
	net.Conn
	writes atomic.Int64
}

func (c *noDeadlineConn) SetWriteDeadline(time.Time) error { return errors.New("deadline unsupported") }
func (c *noDeadlineConn) Write(p []byte) (int, error) {
	c.writes.Add(1)
	return c.Conn.Write(p)
}

// TestQueryClientNeverWritesWithoutDeadline: with a Timeout set, a
// connection that cannot arm its write deadline fails the call and is not
// written to — the server's rule, mirrored.
func TestQueryClientNeverWritesWithoutDeadline(t *testing.T) {
	w := seedWarehouse(t)
	addr, _ := startQueryServer(t, w)
	raw, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	conn := &noDeadlineConn{Conn: raw}
	c := newQueryClient(conn)
	defer c.Close()

	c.Timeout = time.Second
	if _, err := c.Servers(); err == nil || !strings.Contains(err.Error(), "deadline unsupported") {
		t.Fatalf("err = %v, want the deadline failure", err)
	}
	if n := conn.writes.Load(); n != 0 {
		t.Fatalf("%d writes on a connection without a write deadline", n)
	}
	if _, err := c.Servers(); err == nil {
		t.Fatal("connection still usable after failing to arm its deadline")
	}
}

// FuzzSeriesLine holds the client's series-line recogniser to
// encoding/json's judgment on arbitrary bytes: whatever it accepts, json
// accepts as the same response — same id, ok, bit-equal samples — and the
// full line decoder fails exactly when json (or the payload unpack) does.
func FuzzSeriesLine(f *testing.F) {
	valid := append([]byte(`{"id":7,`), seriesBody([]trace.Usage{{CPU: 1.5, Mem: math.Inf(1)}, {CPU: math.NaN(), Mem: -0.0}})...)
	b64 := base64.StdEncoding.EncodeToString
	f.Add(valid)
	f.Add(append(bytes.Clone(valid), '\n'))
	f.Add([]byte(`{"id":1,"ok":true,"usage":""}`))                                                      // empty series
	f.Add([]byte(`{"id":0,"ok":true,"usage":"` + b64(make([]byte, 16)) + `"}`))                         // id 0
	f.Add([]byte(`{"id":007,"ok":true,"usage":"` + b64(make([]byte, 16)) + `"}`))                       // leading-zero id
	f.Add([]byte(`{"id":18446744073709551616,"ok":true,"usage":""}`))                                   // id past uint64
	f.Add([]byte(`{"id":3,"ok":true,"usage":"` + b64(make([]byte, 16)) + `","error":"x"}`))             // extra key
	f.Add([]byte(`{"id":3,"ok":true,"usage":"AAAA\"AAAA"}`))                                            // escaped quote
	f.Add([]byte(`{"id":3,"ok":true,"usage":"AAAAAAAAAAAAAAAAAAAAAA=="}`))                              // escape that unescapes to base64
	f.Add([]byte(`{"id":3,"ok":true,"usage":"AAAAAAAA*AAAAAAAAAAAAA=="}`))                              // bad base64
	f.Add([]byte(`{"id":3,"ok":true,"usage":"` + b64(make([]byte, 24)) + `"}`))                         // length not 0 mod 16
	f.Add([]byte(`{"id":3,"ok":true,"usage":"` + b64(make([]byte, 16)) + b64(make([]byte, 16)) + `"}`)) // padding inside
	f.Add([]byte(`{"id":3,"ok":true,"usage":"AAAAAAAAAAAAAAAAAAAAAA=="}x`))                             // trailing bytes
	f.Add([]byte(`{"id":3,"ok":true,"usage":"AAAAAAAAAAA` + "\r" + `AAAAAAAAAAA=="}`))                  // a byte the base64 decoder skips
	f.Add([]byte(`{"ok":true,"usage":"AAAAAAAAAAAAAAAAAAAAAA=="}`))                                     // lockstep: no id
	f.Add([]byte(`{"id":4,"ok":false,"error":"monitor: no samples for x"}`))
	f.Add([]byte(`{"id":5,"ok":true,"servers":["a","b"]}`))
	f.Fuzz(func(t *testing.T, line []byte) {
		var want queryResponse
		wantErr := json.Unmarshal(line, &want)
		var wantSamples []trace.Usage
		unpackErr := wantErr
		if wantErr == nil {
			wantSamples, unpackErr = unpackUsage([]byte(want.Usage))
		}

		id, samples, ok := decodeSeriesLine(line)
		if ok {
			if wantErr != nil {
				t.Fatalf("fast path accepted %q; json: %v", line, wantErr)
			}
			if !want.OK || want.ID != id || unpackErr != nil ||
				want.Error != "" || want.Servers != nil || want.Stats != nil || want.Points != nil || want.Advice != nil {
				t.Fatalf("fast path read %q as id %d, %v; json: %+v (unpack: %v)", line, id, samples, want, unpackErr)
			}
			equalSeries(t, "fast path", hours(wantSamples), hours(samples))
		}

		// The client's whole view of the line: an error from the decoder
		// ends the connection, one from the unpack fails the call.
		got, gotErr := decodeResponseLine(line)
		if (gotErr == nil) != (wantErr == nil) {
			t.Fatalf("decodeResponseLine(%q) err = %v; json err = %v", line, gotErr, wantErr)
		}
		if gotErr != nil {
			return
		}
		gotSamples, gotUnpackErr := got.samples, error(nil)
		if gotSamples == nil {
			gotSamples, gotUnpackErr = unpackUsage([]byte(got.Usage))
		}
		if got.ID != want.ID || got.OK != want.OK || (gotUnpackErr == nil) != (unpackErr == nil) {
			t.Fatalf("decodeResponseLine(%q) = id %d ok %v (%v); json: id %d ok %v (%v)",
				line, got.ID, got.OK, gotUnpackErr, want.ID, want.OK, unpackErr)
		}
		equalSeries(t, "whole line", hours(wantSamples), hours(gotSamples))
	})
}

// FuzzSetBody holds the set body decoder to strictness on arbitrary bytes:
// whatever it accepts re-encodes to exactly the same bytes, and every
// strict prefix of such a body — a stream that ends before the declared
// length — is rejected.
func FuzzSetBody(f *testing.F) {
	body := appendSetEntry(nil, "a", []trace.Usage{{CPU: 1.5, Mem: math.Inf(1)}, {CPU: math.NaN(), Mem: math.Copysign(0, -1)}})
	body = appendSetEntry(body, "srv-0002", []trace.Usage{{CPU: math.SmallestNonzeroFloat64, Mem: 2048}})
	f.Add(body)
	for _, cut := range []int{1, 2, 3, len(body) / 2, len(body) - 1} {
		f.Add(body[:cut])
	}
	f.Add(append(binary.AppendUvarint([]byte{1, 'x'}, 1<<40), make([]byte, 32)...)) // hour count past the body
	f.Add(append(binary.AppendUvarint([]byte{1, 'x'}, 1<<62), make([]byte, 32)...))
	f.Add([]byte{0x80, 0x00})                   // non-minimal varint
	f.Add([]byte{9, 'x', 0})                    // ID past the body
	f.Add([]byte{0, 0})                         // empty ID
	f.Add(append(bytes.Clone(body), 0))         // trailing byte
	f.Add(append(bytes.Clone(body), 1, 'z', 5)) // trailing partial entry
	f.Fuzz(func(t *testing.T, in []byte) {
		got, err := decodeSetBody(bufio.NewReader(bytes.NewReader(in)), len(in))
		if err != nil {
			return
		}
		var again []byte
		for _, s := range got {
			again = appendSetEntry(again, s.id, s.hours)
		}
		if !bytes.Equal(again, in) {
			t.Fatalf("decoded %x re-encodes as %x", in, again)
		}
		for cut := range in {
			if _, err := decodeSetBody(bufio.NewReader(bytes.NewReader(in[:cut])), len(in)); err == nil {
				t.Fatalf("a %d-byte prefix of a %d-byte body decoded", cut, len(in))
			}
		}
	})
}
