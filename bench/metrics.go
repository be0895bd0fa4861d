package main

import (
	"fmt"
	"math"
	"slices"
	"time"

	"vmwild"
)

// The contract's end-to-end slots. Every workload fills every slot; which
// of its own named metrics a slot carries is the table in README.md and the
// alias column of the printed report.
//
// A workload's second-stage timing (one RunInterval, recovery, the window
// median, the parallel report) is printed under its own name but fills no
// slot: over ten seeds on the recording host two of the four spread as wide
// as the widest bound the contract allows, so a gate on them would not tell
// a regression from noise. They reach the driver as per-layer metrics.
const (
	slotSetup      = "setup_s"
	slotP50        = "latency_ms_p50"
	slotTail       = "latency_ms_tail"
	slotThroughput = "throughput_per_s"
	slotRSS        = "peak_rss_mb"
)

// endToEnd lists the slots with their units and regression bounds, in
// report order. It must match BENCHMARK.json's end_to_end block (a unit
// test compares the two). The wall-clock bounds are the contract's widest:
// on the recording host, identical work ran up to 1.4x slower from one
// quarter of an hour to the next (see README.md, "Steadiness").
var endToEnd = []struct {
	name, unit string
	bound      float64
}{
	{slotSetup, "s", 0.25},
	{slotP50, "ms", 0.25},
	{slotTail, "ms", 0.25},
	{slotThroughput, "1/s", 0.25},
	{slotRSS, "MB", 0.20},
}

// metric is one reported number.
type metric struct {
	Name  string
	Value float64
	Unit  string
	// N is the sample count behind a timing (0 for counts and ratios).
	N int
	// Slot names the contract slot this metric fills, if any.
	Slot string
	// Note flags a percentile reported with fewer than ten samples
	// beyond it.
	Note string
}

// result is what one workload run produces.
type result struct {
	Workload  string
	Attempted int
	Failed    int
	Failures  []string
	// Named are the workload's own end-to-end metrics under the issue's
	// names; those with a Slot also feed the contract output.
	Named []metric
	// Layers are the per-layer metrics of a traced run, by name.
	Layers map[string]float64
}

// fail records one failed operation or output check. The first few
// messages are kept for the report; all are counted.
func (r *result) fail(format string, args ...any) {
	r.Failed++
	if len(r.Failures) < 20 {
		r.Failures = append(r.Failures, fmt.Sprintf(format, args...))
	}
}

// check counts one attempted output check and fails it when ok is false.
func (r *result) check(ok bool, format string, args ...any) {
	r.Attempted++
	if !ok {
		r.fail(format, args...)
	}
}

func (r *result) add(m metric) { r.Named = append(r.Named, m) }

// ledger checks one sender's exactly-once accounting — everything queued
// was acked, nothing shed, dropped or left pending — and counts every
// sample that was not as a failed operation.
func (r *result) ledger(who string, c vmwild.SenderCounters) {
	lost := c.ServerShed + c.DroppedQueue + c.Pending
	r.check(c.Queued == c.Acked && lost == 0,
		"%s ledger: queued %d acked %d shed %d dropped %d pending %d", who, c.Queued, c.Acked, c.ServerShed, c.DroppedQueue, c.Pending)
	r.Failed += int(lost)
}

// measuredWall names the measured phase's wall time in every report; the
// traced pass reads it from the untraced pass's report.
const measuredWall = "measured_wall_s"

// phaseEnd records what every workload reports about its measured phase the
// moment it ends, before reference runs, recoveries and differential
// replays build second copies of the store: the phase's wall time and the
// process's peak RSS so far.
func (r *result) phaseEnd(wall time.Duration, end procStat) {
	r.add(metric{Name: measuredWall, Value: wall.Seconds(), Unit: "s"})
	r.add(metric{Name: "peak_rss_mb", Value: end.peakRSSMB, Unit: "MB", Slot: slotRSS})
}

// slot returns the value filling a contract slot.
func (r *result) slot(name string) (float64, bool) {
	for _, m := range r.Named {
		if m.Slot == name {
			return m.Value, true
		}
	}
	return 0, false
}

// failedRatio is failed, shed, refused or check-failing operations over
// attempted ones.
func (r *result) failedRatio() float64 {
	if r.Attempted == 0 {
		return 0
	}
	return float64(r.Failed) / float64(r.Attempted)
}

// tailLadder is the set of percentiles a timing may be reported at.
var tailLadder = []float64{50, 75, 90, 95, 99, 99.9}

// beyond is how many of n samples lie above the p-th percentile's rank.
func beyond(n int, p float64) int {
	return n - rank(n, p) - 1
}

// rank is the nearest-rank index of the p-th percentile in n sorted values.
func rank(n int, p float64) int {
	// The tolerance keeps 99.9% of 10000 at 9990, not 9990.000000000002.
	k := int(math.Ceil(p*float64(n)/100-1e-9)) - 1
	return min(max(k, 0), n-1)
}

// supportedTail is the highest ladder percentile with at least ten samples
// beyond it; ok is false when not even the median has ten.
func supportedTail(n int) (p float64, ok bool) {
	for i := len(tailLadder) - 1; i >= 0; i-- {
		if beyond(n, tailLadder[i]) >= 10 {
			return tailLadder[i], true
		}
	}
	return 0, false
}

// percentile is the nearest-rank p-th percentile of xs (unsorted input).
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	return s[rank(len(s), p)]
}

func median(xs []float64) float64 { return percentile(xs, 50) }

// timing builds a latency metric at percentile p, noting when the sample
// does not support that percentile under the ten-beyond rule.
func timing(name, unit string, xs []float64, p float64, slot string) metric {
	m := metric{Name: name, Value: percentile(xs, p), Unit: unit, N: len(xs), Slot: slot}
	if beyond(len(xs), p) < 10 {
		if sp, ok := supportedTail(len(xs)); ok {
			m.Note = fmt.Sprintf("n=%d supports p%v at most", len(xs), sp)
		} else {
			m.Note = fmt.Sprintf("n=%d supports no percentile", len(xs))
		}
	}
	return m
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
