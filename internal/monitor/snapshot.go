package monitor

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"slices"

	"vmwild/internal/trace"
)

// encodeSamples writes samples as JSON lines — the snapshot format, kept
// byte-identical to the pre-shard json.Encoder output.
func encodeSamples(out io.Writer, samples []Sample) error {
	bw := bufio.NewWriter(out)
	enc := json.NewEncoder(bw)
	for _, s := range samples {
		if err := enc.Encode(s); err != nil {
			return fmt.Errorf("monitor: snapshot: %w", err)
		}
	}
	if err := bw.Flush(); err != nil {
		return fmt.Errorf("monitor: snapshot flush: %w", err)
	}
	return nil
}

// copyAll reassembles every retained sample ordered by server then
// storage (timestamp) order, holding all shard locks for the copy so the
// result is a consistent point-in-time cut. Locks are taken in shard
// index order; no other path holds two shard locks at once.
func (w *Warehouse) copyAll() []Sample {
	for i := range w.shards {
		w.shards[i].mu.Lock()
	}
	total := 0
	var ids []trace.ServerID
	for i := range w.shards {
		total += w.shards[i].samples
		for id := range w.shards[i].servers {
			ids = append(ids, id)
		}
	}
	slices.Sort(ids)
	samples := make([]Sample, 0, total)
	for _, id := range ids {
		st := w.shards[w.shardIndex(id)].servers[id]
		for i := range st.ts {
			samples = append(samples, st.sampleAt(id, i))
		}
	}
	for i := range w.shards {
		w.shards[i].mu.Unlock()
	}
	return samples
}

// Snapshot writes every retained sample as JSON lines, ordered by server
// and timestamp — the warehouse's durability path, so a restarted central
// server does not lose its 30-day planning history.
func (w *Warehouse) Snapshot(out io.Writer) error {
	return encodeSamples(out, w.copyAll())
}

// snapshotShard writes shard k's retained samples in snapshot format —
// the per-shard WAL checkpoint payload — and returns how many it wrote.
// The caller must not hold shard k's lock.
func (w *Warehouse) snapshotShard(k int, out io.Writer) (int, error) {
	sh := &w.shards[k]
	sh.mu.Lock()
	ids := make([]trace.ServerID, 0, len(sh.servers))
	for id := range sh.servers {
		ids = append(ids, id)
	}
	slices.Sort(ids)
	samples := make([]Sample, 0, sh.samples)
	for _, id := range ids {
		st := sh.servers[id]
		for i := range st.ts {
			samples = append(samples, st.sampleAt(id, i))
		}
	}
	sh.mu.Unlock()
	return len(samples), encodeSamples(out, samples)
}

// Restore ingests a snapshot previously written by Snapshot, applying the
// warehouse's usual validation and retention. It returns the number of
// samples read.
func (w *Warehouse) Restore(in io.Reader) (int, error) {
	dec := json.NewDecoder(bufio.NewReader(in))
	n := 0
	for {
		var s Sample
		if err := dec.Decode(&s); err != nil {
			if err == io.EOF {
				return n, nil
			}
			return n, fmt.Errorf("monitor: restore sample %d: %w", n+1, err)
		}
		w.Ingest(s)
		n++
	}
}
