package main

import (
	"bufio"
	"cmp"
	"encoding/json"
	"os"
	"path/filepath"
	"slices"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed call into a layer, recorded from the harness side of
// the layer's public function.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // -1 for a root
	Name   string `json:"name"`
	// Op is the interval, envelope, cycle or report run the span belongs
	// to; spans of one operation share it.
	Op    int64 `json:"op"`
	Start int64 `json:"start_ns"` // since the tracer was created
	End   int64 `json:"end_ns"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// tracer keeps spans in memory until the run ends. The zero-cost path is a
// nil tracer or a switched-off one: begin returns -1 and end ignores it, so
// call sites need no branches. A traced run switches it on for its
// measured phase.
type tracer struct {
	on atomic.Bool
	t0 time.Time

	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func (t *tracer) enabled() bool { return t != nil && t.on.Load() }

func (t *tracer) set(on bool) {
	if t != nil {
		t.on.Store(on)
	}
}

// begin opens a span now.
func (t *tracer) begin(name string, parent int, op int64) int {
	if !t.enabled() {
		return -1
	}
	return t.push(name, parent, op, time.Now())
}

// beginAt opens a span that started at a clock reading already taken.
func (t *tracer) beginAt(name string, parent int, op int64, at time.Time) int {
	if !t.enabled() {
		return -1
	}
	return t.push(name, parent, op, at)
}

func (t *tracer) push(name string, parent int, op int64, at time.Time) int {
	t.mu.Lock()
	id := len(t.spans)
	t.spans = append(t.spans, span{ID: id, Parent: parent, Name: name, Op: op, Start: int64(at.Sub(t.t0)), End: -1})
	t.mu.Unlock()
	return id
}

// end closes a span now and returns its duration (0 for an ignored span).
func (t *tracer) end(id int) time.Duration {
	if t == nil || id < 0 {
		return 0
	}
	now := int64(time.Since(t.t0))
	t.mu.Lock()
	t.spans[id].End = now
	d := t.spans[id].dur()
	t.mu.Unlock()
	return d
}

// record stores a span whose bounds were measured elsewhere (a sweep cell
// reports its own elapsed time).
func (t *tracer) record(name string, parent int, op int64, start, end time.Time) {
	if !t.enabled() {
		return
	}
	id := t.push(name, parent, op, start)
	t.mu.Lock()
	t.spans[id].End = int64(end.Sub(t.t0))
	t.mu.Unlock()
}

// closed returns the finished spans.
func (t *tracer) closed() []span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]span, 0, len(t.spans))
	for _, s := range t.spans {
		if s.End >= s.Start {
			out = append(out, s)
		}
	}
	return out
}

// selfTimes maps span id to its self time: the span's duration minus the
// part of it that its children cover. Overlapping children (parallel
// workers under one parent) are merged first, so covered time is never
// counted twice and self time is never negative.
func selfTimes(spans []span) map[int]time.Duration {
	children := make(map[int][]span)
	for _, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := make(map[int]time.Duration, len(spans))
	for _, p := range spans {
		kids := children[p.ID]
		slices.SortFunc(kids, func(a, b span) int { return cmp.Compare(a.Start, b.Start) })
		var covered, edge int64
		edge = p.Start
		for _, k := range kids {
			lo, hi := max(k.Start, edge), min(k.End, p.End)
			if hi > lo {
				covered += hi - lo
				edge = hi
			}
		}
		out[p.ID] = p.dur() - time.Duration(covered)
	}
	return out
}

// durationsByName groups span durations (ms) by name, one entry per Op:
// spans of the same name within one operation are summed, so a layer that
// is entered several times per interval still yields one number per
// interval.
func durationsByName(spans []span) map[string][]float64 {
	type key struct {
		name string
		op   int64
	}
	sums := make(map[key]float64)
	var order []key
	for _, s := range spans {
		k := key{s.Name, s.Op}
		if _, ok := sums[k]; !ok {
			order = append(order, k)
		}
		sums[k] += ms(s.dur())
	}
	out := make(map[string][]float64)
	for _, k := range order {
		out[k.name] = append(out[k.name], sums[k])
	}
	return out
}

// writeJSONL writes the spans one JSON object per line.
func writeJSONL(path string, spans []span) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
