// Package monitor implements the Monitoring step of the consolidation flow
// (Sections 2.1 and 3.1): per-server agents collect the Table 1 metric set
// every minute and stream it over TCP (acked binary frames) to a central
// warehouse, which retains raw samples under a retention policy and
// aggregates them to the hourly averages consolidation planning consumes.
package monitor

import (
	"errors"
	"time"

	"vmwild/internal/trace"
)

// Sample is one monitoring observation: the Table 1 metric set.
type Sample struct {
	Server    trace.ServerID `json:"server"`
	Timestamp time.Time      `json:"ts"`

	// CPU metrics.
	TotalProcessorPct float64 `json:"cpuTotalPct"` // % Total Processor Time
	PrivilegedPct     float64 `json:"cpuPrivPct"`  // % time in system mode
	UserPct           float64 `json:"cpuUserPct"`  // % time in user mode
	ProcQueueLength   float64 `json:"procQueue"`   // processor queue length

	// Memory metrics.
	PagesPerSec     float64 `json:"pagesPerSec"` // pages in per second
	MemCommittedMB  float64 `json:"memMB"`       // committed bytes (MB)
	MemCommittedPct float64 `json:"memPct"`      // % of committed used

	// Disk and network metrics.
	DASDFreePct float64 `json:"dasdFreePct"` // % time DAS device is free
	TCPConns    float64 `json:"tcpConns"`    // TCP/IP packets transferred
	TCPConnsV6  float64 `json:"tcpConnsV6"`  // IPv6 packets transferred
}

// Validate rejects structurally impossible samples at the warehouse door.
func (s Sample) Validate() error {
	switch {
	case s.Server == "":
		return errors.New("monitor: sample without server id")
	case s.Timestamp.IsZero():
		return errors.New("monitor: sample without timestamp")
	case s.TotalProcessorPct < 0 || s.TotalProcessorPct > 100:
		return errors.New("monitor: processor time outside [0, 100]")
	case s.MemCommittedMB < 0:
		return errors.New("monitor: negative committed memory")
	}
	return nil
}

// Source produces samples for one server; the agent polls it on its
// collection interval.
type Source interface {
	// Collect returns the sample observed at time t.
	Collect(t time.Time) (Sample, error)
}

// ShardMetrics is one shard's slice of the overload counters.
type ShardMetrics struct {
	Servers int   `json:"servers"`
	Samples int   `json:"samples"`
	Evicted int   `json:"evicted"`
	Shed    int64 `json:"shed"`
}

// Metrics is the warehouse's operational counter set — the overload and
// degradation story Stats does not tell. Every shed or refused sample is
// counted somewhere here; the serving plane never drops silently.
type Metrics struct {
	// Conns is the live agent connections; MaxConns its configured cap
	// (0 = unbounded).
	Conns    int `json:"conns"`
	MaxConns int `json:"maxConns"`
	// ShedIngest counts network samples refused by the ingest limiter
	// (the per-shard Shed fields attribute them to lock domains).
	ShedIngest int64 `json:"shedIngest"`
	// AckedSamples counts samples acked as admitted.
	AckedSamples int64 `json:"ackedSamples"`
	// CorruptFrames counts frames refused by magic, CRC or decode check,
	// or cut short by EOF.
	CorruptFrames int64 `json:"corruptFrames"`
	// SlowClients counts connections cut on a stalled or failed ack write.
	SlowClients int64 `json:"slowClients"`
	// DroppedMisc counts invalid samples and single samples whose journal
	// write failed; JournalErrs counts failed journal writes.
	DroppedMisc int64 `json:"droppedMisc"`
	JournalErrs int64 `json:"journalErrs"`
	// DiskDegraded reports the shed-ingest read-only mode entered after a
	// disk-full or poisoned-storage journal failure; ShedDisk counts the
	// samples shed by a failed lane append and the network samples shed
	// while in it.
	DiskDegraded bool  `json:"diskDegraded"`
	ShedDisk     int64 `json:"shedDisk"`

	Shards []ShardMetrics `json:"shards"`

	// Deprecated: there is no replica layer; Replica is always nil.
	Replica *ReplicaMetrics `json:"replica,omitempty"`
}

// Metrics gathers the overload counters shard by shard; like Stats, a
// concurrent ingest may straddle the scan but each shard is internally
// consistent.
func (w *Warehouse) Metrics() Metrics {
	m := Metrics{
		Conns:         w.ConnCount(),
		MaxConns:      w.MaxConns,
		ShedIngest:    w.shedIngest.Load(),
		AckedSamples:  w.ackedSamples.Load(),
		CorruptFrames: w.corruptFrames.Load(),
		SlowClients:   w.slowClients.Load(),
		DroppedMisc:   w.droppedMisc.Load(),
		JournalErrs:   w.journalErrs.Load(),
		DiskDegraded:  w.diskDegraded.Load(),
		ShedDisk:      w.shedDisk.Load(),
		Shards:        make([]ShardMetrics, len(w.shards)),
	}
	for i := range w.shards {
		sh := &w.shards[i]
		sh.mu.Lock()
		m.Shards[i] = ShardMetrics{
			Servers: len(sh.servers),
			Samples: sh.samples,
			Evicted: sh.evicted,
			Shed:    sh.shed.Load(),
		}
		sh.mu.Unlock()
	}
	return m
}

// QueryMetrics is the query tier's operational counter set.
type QueryMetrics struct {
	// Conns is the live query connections; MaxConns its configured cap.
	Conns    int `json:"conns"`
	MaxConns int `json:"maxConns"`
	// Rejected counts connections refused at accept because RejectWhen
	// reported pressure.
	Rejected int64 `json:"rejected"`
	// SlowClients counts connections cut on a stalled or failed response
	// write.
	SlowClients int64 `json:"slowClients"`
	// Workers is the pooled-request worker count; PooledRequests how many
	// requests took the pipelined path (positive wire id).
	Workers        int   `json:"workers"`
	PooledRequests int64 `json:"pooledRequests"`
	// FastPathHits counts pipelined series requests answered inline from
	// the shards' series memo, never entering the worker pool.
	FastPathHits int64 `json:"fastPathHits"`
	// PipelineDepth is the pooled requests queued or computing right now;
	// MaxPipelineDepth the high-water mark since start.
	PipelineDepth    int64 `json:"pipelineDepth"`
	MaxPipelineDepth int64 `json:"maxPipelineDepth"`
	// QueueWaitMicros is the cumulative time pooled requests spent waiting
	// for a worker — the signal that Workers is undersized.
	QueueWaitMicros int64 `json:"queueWaitMicros"`
}
