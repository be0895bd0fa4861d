package monitor

import (
	"bufio"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"strconv"

	"vmwild/internal/trace"
)

// The acked frame protocol: the one way samples reach the warehouse over
// the network. A sender ships each chunk of samples as one binary frame,
//
//	magic(1) | payload length(4, LE) | payload | crc32c(4, LE)
//	payload = uvarint len(agent) | agent | uvarint seq | uvarint count |
//	          count sample records (appendRecord)
//
// and waits for its acknowledgment line before sending the next. The
// frame carries three things a bare stream of samples cannot:
//
//  1. a per-agent sequence number, so a retry is recognizable;
//  2. a CRC32C over magic, length and payload, checked over the raw bytes
//     before anything is decoded, so a corrupted frame is rejected (and
//     the connection closed) instead of ingesting mangled values;
//  3. an acknowledgment — {"ack":SEQ,"ok":N,"shed":M,"crc":C}\n —
//     carrying how many samples were admitted and how many were shed,
//     CRC'd itself so a corrupted ack is a retryable transport error,
//     never a silent accounting skew.
//
// The records are the journal's own (snapshot.go), so every sample
// Validate accepts — NaN, ±Inf, -0, any year, any zone offset — travels
// bit-exactly, and the server journals each record's bytes as they
// arrived. The warehouse remembers each agent's last (seq, ok, shed): a
// duplicate seq re-acks the original counts without re-ingesting, so a
// retry after a lost ack is exactly-once. Sent therefore reconciles
// exactly: queued = acked + serverShed + droppedQueue + still-pending.

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

const (
	// frameMagic opens every frame; it is neither '{' nor '[', so no JSON
	// text can pass for a frame.
	frameMagic   = 0xF5
	frameHeader  = 1 + 4 // magic and payload length
	frameTrailer = 4     // CRC32C
)

var (
	errFrameMagic     = errors.New("monitor: frame does not start with the frame magic")
	errFrameTruncated = errors.New("monitor: frame truncated")
	errFrameCRC       = errors.New("monitor: frame crc mismatch")
	errFrameAgent     = errors.New("monitor: frame has no agent")
	errFrameCount     = errors.New("monitor: frame sample count does not match its records")
)

// appendFrame appends one frame carrying samples as agent's envelope seq.
func appendFrame(dst []byte, agent string, seq uint64, samples []Sample) []byte {
	start := len(dst)
	dst = append(dst, frameMagic, 0, 0, 0, 0)
	dst = binary.AppendUvarint(dst, uint64(len(agent)))
	dst = append(dst, agent...)
	dst = binary.AppendUvarint(dst, seq)
	dst = binary.AppendUvarint(dst, uint64(len(samples)))
	for i := range samples {
		dst = appendRecord(dst, &samples[i])
	}
	binary.LittleEndian.PutUint32(dst[start+1:], uint32(len(dst)-start-frameHeader))
	return binary.LittleEndian.AppendUint32(dst, crc32.Checksum(dst[start:], castagnoli))
}

// splitFrame is the ingest connection's bufio.SplitFunc: each token is one
// whole frame. A wrong magic byte and a frame cut short by EOF end the
// scan with errors the caller counts as corrupt frames; a frame declared
// larger than maxFrame ends it with bufio.ErrTooLong before its bytes are
// buffered.
func splitFrame(maxFrame int) bufio.SplitFunc {
	return func(data []byte, atEOF bool) (int, []byte, error) {
		if len(data) == 0 {
			return 0, nil, nil
		}
		if data[0] != frameMagic {
			return 0, nil, errFrameMagic
		}
		if len(data) >= frameHeader {
			size := frameHeader + uint64(binary.LittleEndian.Uint32(data[1:])) + frameTrailer
			if size > uint64(maxFrame) {
				return 0, nil, bufio.ErrTooLong
			}
			if uint64(len(data)) >= size {
				return int(size), data[:size], nil
			}
		}
		if atEOF {
			return 0, nil, errFrameTruncated
		}
		return 0, nil, nil
	}
}

// frameBatch is one decoded frame. samples and recs are reused across
// frames; recs[i] is samples[i]'s record bytes, aliasing the frame, so
// the journal can copy them instead of encoding them again.
type frameBatch struct {
	agent   string
	seq     uint64
	samples []Sample
	recs    [][]byte
}

// decode checks b's CRC over the raw bytes, then decodes the frame into f
// once. Any failure — a bad magic, length or CRC, an empty agent, a count
// that does not match the records, trailing bytes — is a protocol error:
// the caller must close the connection so the sender retries the frame.
// Accepted frames re-encode to exactly b.
func (f *frameBatch) decode(b []byte, intern map[string]trace.ServerID) error {
	f.samples, f.recs = f.samples[:0], f.recs[:0]
	n := len(b)
	if n < frameHeader+frameTrailer || b[0] != frameMagic {
		return errFrameMagic
	}
	if int(binary.LittleEndian.Uint32(b[1:])) != n-frameHeader-frameTrailer {
		return errFrameTruncated
	}
	if crc32.Checksum(b[:n-frameTrailer], castagnoli) != binary.LittleEndian.Uint32(b[n-frameTrailer:]) {
		return errFrameCRC
	}
	p := b[frameHeader : n-frameTrailer]
	agentLen, k := uvarint(p)
	if k <= 0 || agentLen == 0 || agentLen > uint64(len(p)-k) {
		return errFrameAgent
	}
	f.agent = string(internServer(intern, p[k:k+int(agentLen)]))
	p = p[k+int(agentLen):]
	seq, k := uvarint(p)
	if k <= 0 {
		return errFrameTruncated
	}
	count, k2 := uvarint(p[k:])
	if k2 <= 0 {
		return errFrameTruncated
	}
	f.seq = seq
	for p = p[k+k2:]; len(p) > 0; {
		if uint64(len(f.samples)) == count {
			return errFrameCount // trailing bytes
		}
		s, rest, err := decodeRecord(p, intern)
		if err != nil {
			return fmt.Errorf("monitor: frame record %d: %w", len(f.samples), err)
		}
		f.samples = append(f.samples, s)
		f.recs = append(f.recs, p[:len(p)-len(rest)])
		p = rest
	}
	if uint64(len(f.samples)) != count {
		return errFrameCount
	}
	return nil
}

// ackResult is what the warehouse remembers (and re-acks) per agent.
type ackResult struct {
	seq  uint64
	ok   int
	shed int
}

// ackCRC covers seq, ok, and shed with separators. Acks carry counts the
// sender folds straight into its books, so a flipped digit that still
// parses as JSON must not pass — the CRC turns it into a retryable error.
func ackCRC(r ackResult) uint32 {
	c := crc32.Update(0, castagnoli, strconv.AppendUint(nil, r.seq, 10))
	c = crc32.Update(c, castagnoli, []byte{'|'})
	c = crc32.Update(c, castagnoli, strconv.AppendInt(nil, int64(r.ok), 10))
	c = crc32.Update(c, castagnoli, []byte{'|'})
	return crc32.Update(c, castagnoli, strconv.AppendInt(nil, int64(r.shed), 10))
}

// appendAck appends one '\n'-terminated ack line.
func appendAck(dst []byte, r ackResult) []byte {
	dst = append(dst, `{"ack":`...)
	dst = strconv.AppendUint(dst, r.seq, 10)
	dst = append(dst, `,"ok":`...)
	dst = strconv.AppendInt(dst, int64(r.ok), 10)
	dst = append(dst, `,"shed":`...)
	dst = strconv.AppendInt(dst, int64(r.shed), 10)
	dst = append(dst, `,"crc":`...)
	dst = strconv.AppendUint(dst, uint64(ackCRC(r)), 10)
	return append(dst, '}', '\n')
}

type ackWire struct {
	Ack  *uint64 `json:"ack"`
	OK   int     `json:"ok"`
	Shed int     `json:"shed"`
	CRC  *uint32 `json:"crc"`
}

// decodeAck parses and CRC-checks one ack line.
func decodeAck(line []byte) (ackResult, error) {
	var a ackWire
	if err := json.Unmarshal(line, &a); err != nil {
		return ackResult{}, fmt.Errorf("monitor: malformed ack: %w", err)
	}
	if a.Ack == nil {
		return ackResult{}, errors.New("monitor: ack missing sequence")
	}
	if a.CRC == nil {
		return ackResult{}, errors.New("monitor: ack missing crc")
	}
	if a.OK < 0 || a.Shed < 0 {
		return ackResult{}, errors.New("monitor: negative ack counts")
	}
	r := ackResult{seq: *a.Ack, ok: a.OK, shed: a.Shed}
	if got := ackCRC(r); got != *a.CRC {
		return ackResult{}, fmt.Errorf("monitor: ack crc mismatch: frame says %d, bytes say %d", *a.CRC, got)
	}
	return r, nil
}
