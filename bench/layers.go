package main

import (
	"time"
)

// perLayer is every per-layer metric a traced run reports, in report
// order. It must match BENCHMARK.json's per_layer block. A workload that
// gives a layer no work reports that layer's metrics as 0.
var perLayer = []struct{ name, unit string }{
	// monitor send / ingest -> ingest_samples_per_s, ack_ms_p50 (ingest-burst); sample_to_journal_ms_p50 (loop-steady)
	{"monitor.sender.flush_ms", "ms"},
	{"monitor.sender.envelopes", "count"},
	{"monitor.sender.retries", "count"},
	{"monitor.shard.ingest_ns_per_sample", "ns"},
	{"monitor.wire.ns_per_sample", "ns"},
	{"monitor.shed_samples", "count"},
	{"monitor.late_samples", "count"},
	{"monitor.shard.skew", "ratio"},
	// wal / fsx -> ack_ms_p99, ingest_samples_per_s; trades against recovery_s
	{"wal.write_bytes_per_sample", "B"},
	{"wal.checkpoint_bytes", "B"},
	{"wal.checkpoints", "count"},
	{"wal.fsyncs", "count"},
	{"wal.fsync_ms_total", "ms"},
	{"wal.write_ms_total", "ms"},
	{"wal.journal_ns_per_sample", "ns"},
	{"wal.replayed_samples", "count"},
	{"wal.restored_samples", "count"},
	{"wal.recovery_ms", "ms"},
	// monitor replica -> fetch_set_ms_p50, resident_bytes_per_sample (query-fleet); sample_to_journal_ms_p50 (loop-steady)
	{"monitor.replica.publish_ms_p50", "ms"},
	{"monitor.replica.publishes", "count"},
	{"monitor.replica.compressed_bytes_per_sample", "B"},
	{"monitor.replica.chunks_read", "count"},
	{"monitor.replica.chunks_skipped", "count"},
	{"monitor.replica.cache_hit_ratio", "ratio"},
	{"monitor.resident_bytes_per_sample", "B"},
	// monitor query -> fetch_set_ms_p50, window_query_ms_p99, query_series_per_s (query-fleet); interval_ms_p50 (loop-steady)
	{"monitor.query.server_series_per_s", "1/s"},
	{"monitor.query.client_decode_ms_per_fetch", "ms"},
	{"monitor.query.fast_path_hits", "count"},
	{"monitor.query.pooled_requests", "count"},
	{"monitor.query.queue_wait_us", "us"},
	{"monitor.query.max_pipeline_depth", "count"},
	{"monitor.query.window_ms_p50", "ms"},
	// controller / core / placement / executor -> interval_ms_p50 (loop-steady)
	{"controller.fetch_ms_p50", "ms"},
	{"core.sizing_ms_p50", "ms"},
	{"core.pack_ms_p50", "ms"},
	{"executor.schedule_ms_p50", "ms"},
	{"controller.journal_ms_p50", "ms"},
	{"controller.journal_fsyncs_per_interval", "count"},
	{"controller.journal_bytes_per_interval", "B"},
	{"controller.other_ms_p50", "ms"},
	{"controller.interval_ms_p50", "ms"},
	{"controller.migrations_per_interval", "count"},
	{"executor.waves_per_interval", "count"},
	{"controller.share_of_sample_to_journal", "ratio"},
	// grid -> report_s, report_parallel_s (plan-grid only)
	{"workload.generate_ms", "ms"},
	{"analysis.figs_ms", "ms"},
	{"core.semistatic_ms", "ms"},
	{"core.stochastic_ms", "ms"},
	{"core.dynamic_ms", "ms"},
	{"experiments.sensitivity_ms", "ms"},
	{"experiments.blades_ms", "ms"},
	{"experiments.mechanisms_ms", "ms"},
	{"experiments.predictor_ms", "ms"},
	{"experiments.interval_ms", "ms"},
	{"executor.execution_ms", "ms"},
	{"executor.failure_ms", "ms"},
	{"emulator.verify_ms", "ms"},
	{"sweep.parallel_efficiency", "ratio"},
	{"sweep.report_parallel_ms", "ms"},
	{"report.alloc_bytes", "B"},
	{"report.allocs", "count"},
	// process: the noise-robust cross-check
	{"proc.cpu_s", "s"},
	{"proc.peak_rss_mb", "MB"},
	{"proc.gc_pause_ms_total", "ms"},
	// the tracing itself
	{"trace.overhead_ratio", "ratio"},
	{"trace.span_coverage", "ratio"},
}

// newLayers returns the per-layer map with every metric present at 0.
func newLayers() map[string]float64 {
	l := make(map[string]float64, len(perLayer))
	for _, m := range perLayer {
		l[m.name] = 0
	}
	return l
}

// stackLayers fills what the serving stack's own counters and the counting
// filesystem say about the measured phase: base is the filesystem's totals
// when the phase began, samples how many samples the phase ingested.
func stackLayers(l map[string]float64, s *stack, fs *countingFS, base [numClasses]fsCounters, samples int) {
	m := s.wh.Metrics()
	l["monitor.shed_samples"] = float64(m.ShedIngest + m.ShedDisk)
	var most, total int
	for _, sh := range m.Shards {
		most = max(most, sh.Samples)
		total += sh.Samples
	}
	if total > 0 {
		l["monitor.shard.skew"] = float64(most) * float64(len(m.Shards)) / float64(total)
	}

	if fs != nil {
		now := fs.snapshotAll()
		var d fsCounters
		for c := range now {
			d = d.plus(now[c].minus(base[c]))
		}
		ckpt := now[classCheckpoint].minus(base[classCheckpoint])
		if samples > 0 {
			l["wal.write_bytes_per_sample"] = float64(d.WriteBytes) / float64(samples)
		}
		l["wal.checkpoint_bytes"] = float64(ckpt.WriteBytes)
		l["wal.checkpoints"] = float64(ckpt.Creates)
		l["wal.fsyncs"] = float64(d.Fsyncs)
		l["wal.fsync_ms_total"] = ms(time.Duration(d.FsyncNs))
		l["wal.write_ms_total"] = ms(time.Duration(d.WriteNs))
	}

	if r := m.Replica; r != nil {
		l["monitor.replica.publishes"] = float64(r.Publishes)
		if r.Samples > 0 {
			l["monitor.replica.compressed_bytes_per_sample"] = float64(r.CompressedBytes) / float64(r.Samples)
		}
		l["monitor.replica.chunks_read"] = float64(r.ChunksRead)
		l["monitor.replica.chunks_skipped"] = float64(r.ChunksSkipped)
		if q := r.SeriesCacheHits + r.SeriesCacheMisses; q > 0 {
			l["monitor.replica.cache_hit_ratio"] = float64(r.SeriesCacheHits) / float64(q)
		}
	}

	if s.qs != nil {
		q := s.qs.Metrics()
		l["monitor.query.fast_path_hits"] = float64(q.FastPathHits)
		l["monitor.query.pooled_requests"] = float64(q.PooledRequests)
		l["monitor.query.queue_wait_us"] = float64(q.QueueWaitMicros)
		l["monitor.query.max_pipeline_depth"] = float64(q.MaxPipelineDepth)
	}
}

// procLayers fills the process-level cross-check for the measured phase.
func procLayers(l map[string]float64, from, to procStat) {
	l["proc.cpu_s"] = (to.cpu - from.cpu).Seconds()
	l["proc.gc_pause_ms_total"] = ms(to.gcPause - from.gcPause)
	l["proc.peak_rss_mb"] = to.peakRSSMB
}
