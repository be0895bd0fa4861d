package monitor

import (
	"bytes"
	"net"
	"testing"
	"time"
)

// FuzzChaosProxy feeds the byte shapes the chaos proxy produces —
// corrupted, truncated, bit-flipped frames — straight into both servers'
// connection handlers and requires that neither ever panics or wedges.
// Shedding, closing, or error-answering are all fine; hanging a handler
// goroutine or crashing is not.
func FuzzChaosProxy(f *testing.F) {
	valid := appendFrame(nil, "agent-1", 1, []Sample{validSample("a", 0), validSample("b", 1)})
	f.Add(valid)
	truncated := append([]byte(nil), valid[:len(valid)/2]...)
	f.Add(truncated)
	flipped := append([]byte(nil), valid...)
	flipped[len(flipped)/2] ^= 0x40
	f.Add(flipped)
	f.Add(frameOf(framePayload("agent-1", 2, 3))) // a count with no records behind it
	f.Add(frameOf(framePayload("", 1<<64-1, 0)))  // an empty agent
	f.Add([]byte(`{"op":"series","server":"a","cpuRPE2":1e308}`))
	f.Add([]byte(`{"op":"set","epoch":"2012-06-04T00:00:00Z","specs":{"a":2000,"b":-1}}`))
	f.Add([]byte(`{"op":"set","consistent":true,"specs":{"a":1e308}}`))
	f.Add([]byte{0xff, 0xfe, '{', '"', 'b', 'a', 't', 'c', 'h', '"', ':'})

	f.Fuzz(func(t *testing.T, in []byte) {
		// Warehouse ingest handler: frames are binary, so the bytes go
		// in as they are.
		w := NewWarehouseShards(0, 2)
		w.WriteTimeout = time.Second
		w.SetIngestLimit(0, 4)
		wc, ws := net.Pipe()
		w.wg.Add(1)
		wdone := make(chan struct{})
		go func() {
			w.serveConn(ws)
			close(wdone)
		}()
		wc.SetDeadline(time.Now().Add(2 * time.Second))
		wc.Write(in) //nolint:errcheck
		wc.Close()
		select {
		case <-wdone:
		case <-time.After(10 * time.Second):
			t.Fatalf("warehouse handler wedged on %q", in)
		}

		// Query handler. It is line-oriented; embedded newlines just split
		// the input into several lines, which the single-line cases
		// already cover.
		line := bytes.ReplaceAll(in, []byte{'\n'}, []byte{' '})
		qs := NewQueryServer(w)
		qs.WriteTimeout = time.Second
		qc, qsrv := net.Pipe()
		qs.wg.Add(1)
		qdone := make(chan struct{})
		go func() {
			qs.serveConn(qsrv)
			close(qdone)
		}()
		qc.SetDeadline(time.Now().Add(2 * time.Second))
		qc.Write(append(line, '\n')) //nolint:errcheck
		qc.Close()
		select {
		case <-qdone:
		case <-time.After(10 * time.Second):
			t.Fatalf("query handler wedged on %q", line)
		}
	})
}
