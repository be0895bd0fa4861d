package monitor

import (
	"io"
	"net"
	"strings"
	"testing"
	"time"
)

// The hardening contract shared by the warehouse and query server: read
// deadlines sever silent peers and oversized frames or lines end the
// connection. A malformed query line leaves the connection usable; a
// malformed frame closes it (TestEnvelopeCorruptFrameClosesConn).

func dialT(t *testing.T, addr string) net.Conn {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	return conn
}

// expectClosed reads until the server severs the connection or the local
// deadline expires.
func expectClosed(t *testing.T, conn net.Conn, what string) {
	t.Helper()
	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	buf := make([]byte, 256)
	for {
		if _, err := conn.Read(buf); err != nil {
			if err == io.EOF || strings.Contains(err.Error(), "reset") {
				return
			}
			t.Fatalf("%s: expected server to close the connection, read failed locally: %v", what, err)
		}
	}
}

func TestWarehouseReadTimeoutSeversSilentConn(t *testing.T) {
	w := NewWarehouse(0)
	w.ReadTimeout = 50 * time.Millisecond
	addr, err := w.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()

	conn := dialT(t, addr)
	// Say nothing; the warehouse must hang up rather than pin the handler.
	expectClosed(t, conn, "silent ingestion conn")
}

func TestWarehouseOversizedLineClosesConn(t *testing.T) {
	w := NewWarehouse(0)
	w.MaxLineBytes = 256
	addr, err := w.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()

	conn := dialT(t, addr)
	samples := make([]Sample, 16)
	for i := range samples {
		samples[i] = validSample("s", i)
	}
	frame := appendFrame(nil, "agent-1", 1, samples)
	if len(frame) <= w.MaxLineBytes {
		t.Fatalf("a %d-byte frame is not oversized", len(frame))
	}
	if _, err := conn.Write(frame); err != nil {
		t.Fatal(err)
	}
	expectClosed(t, conn, "oversized frame")
	if got := w.Stats().Samples; got != 0 {
		t.Fatalf("oversized frame ingested %d samples", got)
	}
}

func TestQueryReadTimeoutSeversSilentConn(t *testing.T) {
	w := seedWarehouse(t)
	qs := NewQueryServer(w)
	qs.ReadTimeout = 50 * time.Millisecond
	addr, err := qs.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { qs.Close() })

	conn := dialT(t, addr)
	expectClosed(t, conn, "silent query conn")
}

func TestQueryOversizedLineClosesConn(t *testing.T) {
	w := seedWarehouse(t)
	qs := NewQueryServer(w)
	qs.MaxLineBytes = 128
	addr, err := qs.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { qs.Close() })

	conn := dialT(t, addr)
	if _, err := conn.Write([]byte(strings.Repeat("y", 2048) + "\n")); err != nil {
		t.Fatal(err)
	}
	expectClosed(t, conn, "oversized query line")
}
