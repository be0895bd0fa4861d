package monitor

import "time"

// The snapshot replica layer is gone; every read is live (Warehouse.seriesJSON).
// These no-op names stay only so callers built against the layer still build.

// Deprecated: there is no replica layer; the constants configure nothing.
const (
	DefaultReplicaEverySamples = 4096
	DefaultReplicaMaxAge       = 2 * time.Second
)

// Deprecated: ReplicaConfig configures nothing.
type ReplicaConfig struct {
	EverySamples int
	MaxAge       time.Duration
}

// Deprecated: ReplicaMetrics is never reported; Metrics.Replica is nil.
type ReplicaMetrics struct {
	Publishes         int64
	ChunksRead        int64
	ChunksSkipped     int64
	SeriesCacheHits   int64
	SeriesCacheMisses int64
	Samples           int64
	CompressedBytes   int64
}

// Deprecated: EnableReplicas does nothing and returns nil.
func (w *Warehouse) EnableReplicas(ReplicaConfig) error { return nil }

// Deprecated: PublishReplicas does nothing and returns 0.
func (w *Warehouse) PublishReplicas() int { return 0 }
