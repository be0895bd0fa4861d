package monitor

import (
	"bytes"
	"cmp"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"slices"
	"time"

	"vmwild/internal/trace"
)

// The binary sample codec is the one format every warehouse persistence
// path speaks: a WAL record is one sample record, and a lane checkpoint or
// Snapshot payload is snapshotMagic then records in server-then-timestamp
// order. A record is the uvarint server-ID length and the ID bytes, varint
// Unix seconds, uvarint nanoseconds (< 1e9), varint zone offset in seconds,
// then the ten metrics as little-endian float64 bits in Sample field
// order. That carries every sample Validate accepts exactly — years
// UnixNano cannot hold, NaN, ±Inf, -0, subnormals — so the journal
// persists what an unjournaled warehouse stores.
const (
	snapshotMagic = "VMWSMP1\n"
	recordFloats  = 10 // the fixed float64 tail of one record
)

var (
	errSnapshotFormat = errors.New("monitor: input is not a binary sample snapshot (no " +
		`"VMWSMP1" magic; JSON checkpoints and snapshots from older builds are not readable)`)
	errRecordTruncated = errors.New("monitor: truncated sample record")
	errRecordIDLength  = errors.New("monitor: sample record server ID runs past the buffer")
	errRecordNanos     = errors.New("monitor: sample record nanoseconds out of range")
)

// appendRecord appends s's binary record to dst.
func appendRecord(dst []byte, s *Sample) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(s.Server)))
	dst = append(dst, s.Server...)
	_, off := s.Timestamp.Zone()
	dst = binary.AppendVarint(dst, s.Timestamp.Unix())
	dst = binary.AppendUvarint(dst, uint64(s.Timestamp.Nanosecond()))
	dst = binary.AppendVarint(dst, int64(off))
	for _, v := range [recordFloats]float64{
		s.TotalProcessorPct, s.PrivilegedPct, s.UserPct, s.ProcQueueLength,
		s.PagesPerSec, s.MemCommittedMB, s.MemCommittedPct,
		s.DASDFreePct, s.TCPConns, s.TCPConnsV6,
	} {
		dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(v))
	}
	return dst
}

// uvarint is binary.Uvarint that also refuses a non-minimal encoding (a
// multi-byte varint whose last byte is zero), so that every accepted
// record and frame re-encodes to its own bytes.
func uvarint(b []byte) (uint64, int) {
	v, n := binary.Uvarint(b)
	if n > 1 && b[n-1] == 0 {
		return 0, -1
	}
	return v, n
}

// varint is binary.Varint under uvarint's minimality rule.
func varint(b []byte) (int64, int) {
	u, n := uvarint(b)
	x := int64(u >> 1)
	if u&1 != 0 {
		x = ^x
	}
	return x, n
}

// decodeRecord decodes the record at the front of b and returns the rest,
// interning server IDs in intern. It rejects a truncated record, a
// non-minimal varint, an ID that runs past b and nanoseconds >= 1e9, and
// never panics on arbitrary input.
func decodeRecord(b []byte, intern map[string]trace.ServerID) (Sample, []byte, error) {
	var s Sample
	idLen, n := uvarint(b)
	if n <= 0 {
		return s, nil, errRecordTruncated
	}
	if b = b[n:]; idLen > uint64(len(b)) {
		return s, nil, errRecordIDLength
	}
	s.Server = internServer(intern, b[:idLen])
	b = b[idLen:]
	sec, n1 := varint(b)
	if n1 <= 0 {
		return s, nil, errRecordTruncated
	}
	nsec, n2 := uvarint(b[n1:])
	if n2 <= 0 {
		return s, nil, errRecordTruncated
	}
	if nsec >= 1e9 {
		return s, nil, errRecordNanos
	}
	off, n3 := varint(b[n1+n2:])
	if n3 <= 0 || len(b) < n1+n2+n3+8*recordFloats {
		return s, nil, errRecordTruncated
	}
	b = b[n1+n2+n3:]
	loc := time.UTC
	if off != 0 {
		loc = time.FixedZone("", int(off))
	}
	s.Timestamp = time.Unix(sec, int64(nsec)).In(loc)
	f := func(i int) float64 { return math.Float64frombits(binary.LittleEndian.Uint64(b[8*i:])) }
	s.TotalProcessorPct, s.PrivilegedPct, s.UserPct, s.ProcQueueLength = f(0), f(1), f(2), f(3)
	s.PagesPerSec, s.MemCommittedMB, s.MemCommittedPct = f(4), f(5), f(6)
	s.DASDFreePct, s.TCPConns, s.TCPConnsV6 = f(7), f(8), f(9)
	return s, b[8*recordFloats:], nil
}

// encodeSnapshot encodes the samples of shards (n in all) as a snapshot
// payload, straight from their columns: the magic, then records ordered by
// server and timestamp. The caller holds every one of those shards' locks.
func encodeSnapshot(shards []shard, n int) []byte {
	type server struct {
		id trace.ServerID
		st *serverStore
	}
	var servers []server
	for i := range shards {
		for id, st := range shards[i].servers {
			servers = append(servers, server{id, st})
		}
	}
	slices.SortFunc(servers, func(a, b server) int { return cmp.Compare(a.id, b.id) })
	buf := make([]byte, 0, len(snapshotMagic)+n*104) // records run ~100 bytes
	buf = append(buf, snapshotMagic...)
	for _, sv := range servers {
		for i := range sv.st.cpu {
			s := sv.st.sampleAt(sv.id, i)
			buf = appendRecord(buf, &s)
		}
	}
	return buf
}

// Snapshot writes every retained sample in the binary snapshot format,
// ordered by server and timestamp. It is not a durability path (the
// journal lanes are, see WarehouseLog): it is the byte-identity oracle
// that recovery tests and the disk wall compare warehouses by, since the
// bytes do not depend on the shard count. It encodes under every shard
// lock (taken in shard index order; no other path holds two shard locks
// at once), so the payload is a consistent point-in-time cut, and it is
// byte-deterministic.
func (w *Warehouse) Snapshot(out io.Writer) error {
	total := 0
	for i := range w.shards {
		w.shards[i].mu.Lock()
		total += w.shards[i].samples
	}
	buf := encodeSnapshot(w.shards, total)
	for i := range w.shards {
		w.shards[i].mu.Unlock()
	}
	if _, err := out.Write(buf); err != nil {
		return fmt.Errorf("monitor: snapshot: %w", err)
	}
	return nil
}

// snapshotShard encodes shard k's retained samples in snapshot format —
// the per-shard WAL checkpoint payload — and returns it with the number
// of samples it holds. The caller must not hold shard k's lock.
func (w *Warehouse) snapshotShard(k int) ([]byte, int) {
	sh := &w.shards[k]
	sh.mu.Lock()
	defer sh.mu.Unlock()
	return encodeSnapshot(w.shards[k:k+1], sh.samples), sh.samples
}

// restore ingests a snapshot payload (a lane checkpoint, or Snapshot's
// output), applying the warehouse's usual validation and retention, and
// returns the number of samples read. An empty payload is an empty
// snapshot; one without the snapshot magic is rejected before anything is
// ingested.
func (w *Warehouse) restore(b []byte) (int, error) {
	if len(b) == 0 {
		return 0, nil
	}
	rest, ok := bytes.CutPrefix(b, []byte(snapshotMagic))
	if !ok {
		return 0, errSnapshotFormat
	}
	intern := make(map[string]trace.ServerID)
	n := 0
	for len(rest) > 0 {
		s, tail, err := decodeRecord(rest, intern)
		if err != nil {
			return n, fmt.Errorf("monitor: restore sample %d: %w", n+1, err)
		}
		w.Ingest(s)
		n++
		rest = tail
	}
	return n, nil
}
