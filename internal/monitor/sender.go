package monitor

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"time"
)

// ReliableSender is the agent-side half of the acked frame protocol
// (envelope.go): it queues samples, ships them as CRC'd, sequenced binary
// frames, and retries a frame until the warehouse acknowledges it.
// Together with the server's per-agent dedup this gives exactly-once
// accounting over a hostile network: every sample ever queued is, at all times, in exactly one of
// {acked-ingested, acked-shed, dropped-from-queue, still-pending}, and the
// four counters reconcile to Queued exactly.
//
// A ReliableSender is not safe for concurrent use; run one per goroutine.
type ReliableSender struct {
	// Addr is the warehouse TCP address (or a chaos proxy in front of it).
	Addr string
	// AgentID names this sender in frames. The warehouse dedups
	// retries per AgentID and remembers each ID's last sequence for as
	// long as it runs, so IDs must be unique across every sender instance
	// the warehouse has seen, not only across live ones: a new sender
	// reusing an old ID has its first frame re-acked as a duplicate and
	// never stored.
	AgentID string
	// Seed roots the retry backoff jitter; zero is a valid seed.
	Seed int64
	// MaxPending bounds the queue (default 4096); beyond it Queue drops
	// the oldest sample and counts it.
	MaxPending int
	// Chunk caps samples per frame (default batchChunk). Small chunks
	// mean more frames — what the slow-loris scenarios want.
	Chunk int
	// Backoff is the base retry delay (default 10ms), growing
	// exponentially to BackoffMax (default 1s) with seeded jitter.
	Backoff    time.Duration
	BackoffMax time.Duration
	// Timeout bounds each frame write and ack read (default
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
	// frame is the chunk awaiting its ack, encoded under sequence number
	// seq when it left pending, so queue overflow can never change the
	// bytes a sequence number has already described; inflight counts its
	// samples.
	frame    []byte
	inflight int
	seq      uint64

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
func (r *ReliableSender) Pending() int { return len(r.pending) + r.inflight }

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
// chunk (each try = write frame + read ack). It returns nil when
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

	for r.inflight > 0 || len(r.pending) > 0 {
		if err := ctx.Err(); err != nil {
			return err
		}
		if r.inflight == 0 {
			r.inflight = min(chunkSize, len(r.pending))
			r.seq++
			r.frame = appendFrame(r.frame[:0], r.AgentID, r.seq, r.pending[:r.inflight])
			r.pending = r.pending[r.inflight:]
		}

		backoff := baseBackoff
		sent := false
		for attempt := 0; attempt < maxAttempts; attempt++ {
			if err := ctx.Err(); err != nil {
				return err
			}
			ack, err := r.tryOnce(ctx)
			if err == nil && ack.seq == r.seq {
				r.acked += int64(ack.ok)
				r.serverShed += int64(ack.shed)
				r.inflight = 0
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
			return fmt.Errorf("monitor: frame %d unacked after %d attempts (%d samples still pending)",
				r.seq, maxAttempts, r.Pending())
		}
	}
	if r.CloseEachFlush {
		r.Close()
	}
	return nil
}

// tryOnce performs one frame write + ack read round trip. Cancelling ctx
// fails a blocked write or read at once rather than after Timeout.
func (r *ReliableSender) tryOnce(ctx context.Context) (ackResult, error) {
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
	conn := r.conn
	stop := context.AfterFunc(ctx, func() { conn.SetDeadline(time.Unix(1, 0)) })
	defer stop()
	if _, err := conn.Write(r.frame); err != nil {
		return ackResult{}, err
	}
	line, err := r.br.ReadSlice('\n')
	if err != nil {
		return ackResult{}, err
	}
	return decodeAck(bytes.TrimSpace(line))
}
