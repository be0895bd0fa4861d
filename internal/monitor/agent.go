package monitor

import (
	"context"
	"errors"
	"math/rand/v2"
	"strconv"
	"sync/atomic"
	"time"
)

// Agent is the per-server collector: it polls its Source on the collection
// interval and ships each sample through a ReliableSender, so its samples
// travel as acked frames and a retried frame is never stored twice.
// Samples collected while the warehouse is unreachable accumulate (up to
// MaxPending) and ship on the next successful flush, so a warehouse
// restart costs latency, not data.
type Agent struct {
	// Source supplies the samples.
	Source Source
	// Addr is the warehouse TCP address.
	Addr string
	// Interval is the collection period (the paper's agents collect
	// every minute).
	Interval time.Duration
	// Now abstracts the clock so replayed traces can run on compressed
	// time; nil uses time.Now.
	Now func() time.Time
	// Backoff is the base reconnect delay (default 100ms). Within one
	// tick's flush, a failed try grows it exponentially up to BackoffMax,
	// each sleep jittered over [b/2, b) so a restarted warehouse is not
	// hit by the whole fleet on one synchronized schedule.
	Backoff time.Duration
	// BackoffMax caps the grown reconnect delay (default 5s).
	BackoffMax time.Duration
	// Seed roots the backoff jitter (keyed with the run's agent ID, so
	// agents sharing a seed still spread out); zero is a valid seed.
	Seed int64
	// MaxPending bounds the samples buffered while the warehouse is
	// unreachable (default 4096); beyond it the oldest are dropped —
	// and counted in Dropped, never silently.
	MaxPending int

	dropped atomic.Int64
}

// agentFlushAttempts is how many tries each tick's flush gets; what is
// still unacked stays queued for the next tick.
const agentFlushAttempts = 2

// Dropped reports how many collected samples the agent has lost: those
// displaced from its queue beyond MaxPending, those the warehouse shed,
// and, once Run has returned, those it never got acked.
func (a *Agent) Dropped() int64 { return a.dropped.Load() }

// Run collects and ships samples until the context is canceled or the
// Source runs dry. It returns nil then, and an error only for
// unrecoverable configuration problems. Each run sends under a fresh
// agent ID: the warehouse remembers every ID's last sequence for as long
// as it runs, so a second run under an old ID would have its first frame
// re-acked as a duplicate and never stored.
func (a *Agent) Run(ctx context.Context) error {
	if a.Source == nil {
		return errors.New("monitor: agent has no source")
	}
	if a.Addr == "" {
		return errors.New("monitor: agent has no warehouse address")
	}
	if a.Interval <= 0 {
		return errors.New("monitor: agent interval must be positive")
	}
	now := a.Now
	if now == nil {
		now = time.Now
	}
	backoff := a.Backoff
	if backoff <= 0 {
		backoff = 100 * time.Millisecond
	}
	maxBackoff := a.BackoffMax
	if maxBackoff < backoff {
		maxBackoff = max(5*time.Second, backoff)
	}
	snd := &ReliableSender{
		Addr:       a.Addr,
		AgentID:    "agent-" + strconv.FormatUint(rand.Uint64(), 16),
		Seed:       a.Seed,
		MaxPending: a.MaxPending,
		Backoff:    backoff,
		BackoffMax: maxBackoff,
	}
	defer snd.Close()
	settle := func(pending int64) {
		c := snd.Counters()
		a.dropped.Store(c.DroppedQueue + c.ServerShed + pending)
	}
	defer func() { settle(int64(snd.Pending())) }()

	ticker := time.NewTicker(a.Interval)
	defer ticker.Stop()
	for {
		select {
		case <-ctx.Done():
			return nil
		case <-ticker.C:
		}
		sample, err := a.Source.Collect(now())
		if err != nil {
			// Sources run dry when their trace ends; ship what is
			// queued and stop cleanly.
			snd.Flush(ctx, agentFlushAttempts) //nolint:errcheck // unsent samples count as dropped
			return nil
		}
		snd.Queue(sample)
		snd.Flush(ctx, agentFlushAttempts) //nolint:errcheck // unacked samples stay queued
		settle(0)
	}
}
