package monitor

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"slices"
	"time"
)

// ReliableSender is the agent-side half of the acked envelope protocol: it
// queues samples, ships them as CRC'd, sequenced envelopes, and retries a
// frame until the warehouse acknowledges it. Together with the server's
// per-agent dedup this gives exactly-once accounting over a hostile
// network: every sample ever queued is, at all times, in exactly one of
// {acked-ingested, acked-shed, dropped-from-queue, still-pending}, and the
// four counters reconcile to Queued exactly.
//
// A ReliableSender is not safe for concurrent use; run one per goroutine.
type ReliableSender struct {
	// Addr is the warehouse TCP address (or a chaos proxy in front of it).
	Addr string
	// AgentID names this sender in envelopes. The warehouse dedups
	// retries per AgentID and remembers each ID's last sequence for as
	// long as it runs, so IDs must be unique across every sender instance
	// the warehouse has seen, not only across live ones: a new sender
	// reusing an old ID has its first envelope re-acked as a duplicate and
	// never stored.
	AgentID string
	// Seed roots the retry backoff jitter; zero is a valid seed.
	Seed int64
	// MaxPending bounds the queue (default 4096); beyond it Queue drops
	// the oldest sample and counts it.
	MaxPending int
	// Chunk caps samples per envelope (default batchChunk). Small chunks
	// mean more frames — what the slow-loris scenarios want.
	Chunk int
	// Backoff is the base retry delay (default 10ms), growing
	// exponentially to BackoffMax (default 1s) with seeded jitter.
	Backoff    time.Duration
	BackoffMax time.Duration
	// Timeout bounds each envelope write and ack read (default
	// batchWriteTimeout).
	Timeout time.Duration
	// CloseEachFlush drops the connection after every successful Flush,
	// forcing the next one to re-dial — connection churn for the
	// admission-gate scenarios.
	CloseEachFlush bool

	rng  *rand.Rand
	conn net.Conn
	br   *bufio.Reader

	pending []Sample
	// inflight is the frozen chunk awaiting its ack. It is copied out of
	// pending at first send so queue overflow can never mutate the bytes
	// a sequence number has already described.
	inflight    []Sample
	inflightSeq uint64 // 0 until the inflight chunk encodes
	seq         uint64

	queued       int64
	droppedQueue int64
	acked        int64
	serverShed   int64
	retries      int64
	reconnects   int64
}

// SenderCounters is the reconciliation surface:
// Queued == Acked + ServerShed + DroppedQueue + Pending at every quiescent
// point (no Flush in progress).
type SenderCounters struct {
	Queued       int64
	DroppedQueue int64
	Acked        int64
	ServerShed   int64
	Retries      int64
	Reconnects   int64
	Pending      int64
}

// Counters returns the current accounting.
func (r *ReliableSender) Counters() SenderCounters {
	return SenderCounters{
		Queued:       r.queued,
		DroppedQueue: r.droppedQueue,
		Acked:        r.acked,
		ServerShed:   r.serverShed,
		Retries:      r.retries,
		Reconnects:   r.reconnects,
		Pending:      int64(r.Pending()),
	}
}

// Pending reports queued-but-unacked samples, including the inflight chunk.
func (r *ReliableSender) Pending() int { return len(r.pending) + len(r.inflight) }

// Queue adds one sample, dropping (and counting) the oldest beyond
// MaxPending. The inflight chunk is never touched.
func (r *ReliableSender) Queue(s Sample) {
	maxPending := r.MaxPending
	if maxPending <= 0 {
		maxPending = 4096
	}
	if len(r.pending) >= maxPending {
		copy(r.pending, r.pending[1:])
		r.pending = r.pending[:len(r.pending)-1]
		r.droppedQueue++
	}
	r.pending = append(r.pending, s)
	r.queued++
}

// Close drops the connection; pending samples stay queued for a later
// Flush.
func (r *ReliableSender) Close() {
	if r.conn != nil {
		r.conn.Close()
		r.conn, r.br = nil, nil
	}
}

func (r *ReliableSender) ensureConn(ctx context.Context) error {
	if r.conn != nil {
		return nil
	}
	conn, err := (&net.Dialer{Timeout: writeTimeout(r.Timeout)}).DialContext(ctx, "tcp", r.Addr)
	if err != nil {
		return err
	}
	r.conn = conn
	r.br = bufio.NewReader(conn)
	r.reconnects++
	return nil
}

// Flush drives the queue to empty, allowing up to maxAttempts tries per
// chunk (each try = write envelope + read ack). It returns nil when
// everything queued at call time is acked; on error the inflight chunk
// stays frozen and a later Flush resumes it under the same sequence
// number, which the server's dedup makes safe.
func (r *ReliableSender) Flush(ctx context.Context, maxAttempts int) error {
	if r.AgentID == "" {
		return errors.New("monitor: reliable sender has no AgentID")
	}
	if maxAttempts <= 0 {
		maxAttempts = 1
	}
	if r.rng == nil {
		r.rng = backoffRand(r.Seed, "reliable-sender", r.AgentID)
	}
	chunkSize := r.Chunk
	if chunkSize <= 0 {
		chunkSize = batchChunk
	}
	baseBackoff := r.Backoff
	if baseBackoff <= 0 {
		baseBackoff = 10 * time.Millisecond
	}
	maxBackoff := r.BackoffMax
	if maxBackoff < baseBackoff {
		maxBackoff = max(time.Second, baseBackoff)
	}

	fc := floatCachePool.Get().(*floatCache)
	defer floatCachePool.Put(fc)
	var frame []byte
	for len(r.inflight) > 0 || len(r.pending) > 0 {
		if err := ctx.Err(); err != nil {
			return err
		}
		if len(r.inflight) == 0 {
			// Freeze the next chunk: copied, so Queue's drop-oldest can
			// shift pending without changing what seq describes.
			n := min(chunkSize, len(r.pending))
			r.inflight = append(r.inflight[:0], r.pending[:n]...)
			r.pending = r.pending[n:]
			r.inflightSeq = 0
		}

		array, err := appendBatchFrame(frame[:0], r.inflight, fc)
		if err != nil {
			// Validate passes NaN and ±Inf, which the wire cannot carry:
			// left in, such a sample would fail this chunk on every Flush
			// and wedge the queue behind it. A chunk that encoded once
			// always encodes, so this one has no seq yet: drop the samples
			// that cannot be encoded, count them, and number the rest.
			before := len(r.inflight)
			r.inflight = slices.DeleteFunc(r.inflight, func(s Sample) bool {
				_, err := appendSampleWire(nil, &s, fc)
				return err != nil
			})
			r.droppedQueue += int64(before - len(r.inflight))
			continue
		}
		if r.inflightSeq == 0 {
			r.seq++
			r.inflightSeq = r.seq
		}
		frame = array
		samples := bytes.TrimSuffix(array, []byte{'\n'})
		envelope := appendEnvelope(nil, r.AgentID, r.inflightSeq, samples)

		backoff := baseBackoff
		sent := false
		for attempt := 0; attempt < maxAttempts; attempt++ {
			if err := ctx.Err(); err != nil {
				return err
			}
			ack, err := r.tryOnce(ctx, envelope)
			if err == nil && ack.seq == r.inflightSeq {
				r.acked += int64(ack.ok)
				r.serverShed += int64(ack.shed)
				r.inflight = r.inflight[:0]
				sent = true
				break
			}
			// Wrong-seq acks and transport errors alike: the connection
			// state is unknowable, so rebuild it and retry the frame.
			r.Close()
			r.retries++
			select {
			case <-ctx.Done():
				return ctx.Err()
			case <-time.After(jitterBackoff(r.rng, backoff)):
				backoff = min(backoff*2, maxBackoff)
			}
		}
		if !sent {
			return fmt.Errorf("monitor: envelope %d unacked after %d attempts (%d samples still pending)",
				r.inflightSeq, maxAttempts, r.Pending())
		}
	}
	if r.CloseEachFlush {
		r.Close()
	}
	return nil
}

// tryOnce performs one envelope write + ack read round trip.
func (r *ReliableSender) tryOnce(ctx context.Context, envelope []byte) (ackResult, error) {
	if err := r.ensureConn(ctx); err != nil {
		return ackResult{}, err
	}
	deadline := time.Now().Add(writeTimeout(r.Timeout))
	if d, ok := ctx.Deadline(); ok && d.Before(deadline) {
		deadline = d
	}
	if err := r.conn.SetDeadline(deadline); err != nil {
		return ackResult{}, err
	}
	if _, err := r.conn.Write(envelope); err != nil {
		return ackResult{}, err
	}
	line, err := r.br.ReadBytes('\n')
	if err != nil {
		return ackResult{}, err
	}
	return decodeAck(bytes.TrimSpace(line))
}
