// Package trace provides the time-series substrate of the vmwild library.
//
// A Series records the resource demand of one server (physical source server
// or virtual machine) as a sequence of equally spaced Usage samples. The
// paper's pipeline works on hourly averages over a 30-day monitoring horizon
// and a 14-day evaluation horizon; the monitoring substrate produces
// per-minute samples that are resampled to hourly ones.
//
// CPU demand is expressed in RPE2 units (the IDEAS Relative Performance
// Estimate v2 used by the paper) and memory demand in MB.
package trace

import (
	"errors"
	"fmt"
	"sync"
	"time"
)

// Resource identifies one of the two resources the planners optimize.
// Network and disk are treated as placement constraints, not packed
// resources, exactly as in the paper (Section 3.1).
type Resource int

const (
	// CPU is compute demand in RPE2 units.
	CPU Resource = iota + 1
	// Mem is memory demand in MB.
	Mem
)

// String returns the resource name.
func (r Resource) String() string {
	switch r {
	case CPU:
		return "cpu"
	case Mem:
		return "mem"
	default:
		return fmt.Sprintf("Resource(%d)", int(r))
	}
}

// Usage is one demand sample: CPU in RPE2 units, memory in MB.
type Usage struct {
	CPU float64
	Mem float64
}

// Add returns the element-wise sum of two usage samples.
func (u Usage) Add(v Usage) Usage {
	return Usage{CPU: u.CPU + v.CPU, Mem: u.Mem + v.Mem}
}

// Scale returns the usage multiplied by factor k on both resources.
func (u Usage) Scale(k float64) Usage {
	return Usage{CPU: u.CPU * k, Mem: u.Mem * k}
}

// Get returns the named resource component.
func (u Usage) Get(r Resource) float64 {
	if r == CPU {
		return u.CPU
	}
	return u.Mem
}

// Series is a fixed-step demand time series.
type Series struct {
	// Step is the sampling interval (one hour for warehouse data).
	Step time.Duration
	// Samples holds one Usage per step.
	Samples []Usage

	colMu sync.Mutex
	cols  [2][]float64 // cached per-resource columns; see Col
}

// NewSeries creates a series with the given step and samples. The samples
// slice is used directly (not copied); callers hand over ownership.
func NewSeries(step time.Duration, samples []Usage) (*Series, error) {
	if step <= 0 {
		return nil, errors.New("trace: step must be positive")
	}
	return &Series{Step: step, Samples: samples}, nil
}

// Len returns the number of samples.
func (s *Series) Len() int { return len(s.Samples) }

// Duration returns the time covered by the series.
func (s *Series) Duration() time.Duration {
	return time.Duration(len(s.Samples)) * s.Step
}

// Values extracts one resource component as a flat slice. The slice is
// freshly allocated on every call; callers may mutate it. Read-only callers
// should prefer Col, which caches the column on the series.
func (s *Series) Values(r Resource) []float64 {
	out := make([]float64, len(s.Samples))
	for i, u := range s.Samples {
		out[i] = u.Get(r)
	}
	return out
}

// Col returns one resource component as a flat slice, cached on the series
// after the first call. The returned slice MUST be treated as read-only: it
// is shared between every caller (and across goroutines). Series samples are
// never mutated after construction anywhere in this module, so the cache is
// invalidated only defensively, by length.
func (s *Series) Col(r Resource) []float64 {
	i := 0
	if r == Mem {
		i = 1
	}
	s.colMu.Lock()
	col := s.cols[i]
	if len(col) != len(s.Samples) {
		col = make([]float64, len(s.Samples))
		for j, u := range s.Samples {
			col[j] = u.Get(r)
		}
		s.cols[i] = col
	}
	s.colMu.Unlock()
	return col
}

// Slice returns a view of samples [from, to) as a new Series sharing the
// underlying array. It returns an error when the bounds are invalid.
func (s *Series) Slice(from, to int) (*Series, error) {
	if from < 0 || to > len(s.Samples) || from > to {
		return nil, fmt.Errorf("trace: slice [%d,%d) out of range 0..%d", from, to, len(s.Samples))
	}
	return &Series{Step: s.Step, Samples: s.Samples[from:to]}, nil
}

// Resample aggregates groups of factor consecutive samples into one by
// averaging, producing a series with a step factor times larger. A trailing
// partial group is averaged over its actual length. This is how the
// warehouse converts per-minute agent samples to hourly averages.
func (s *Series) Resample(factor int) (*Series, error) {
	if factor < 1 {
		return nil, errors.New("trace: resample factor must be >= 1")
	}
	if factor == 1 {
		return &Series{Step: s.Step, Samples: s.Samples}, nil
	}
	n := (len(s.Samples) + factor - 1) / factor
	out := make([]Usage, 0, n)
	for i := 0; i < len(s.Samples); i += factor {
		end := i + factor
		if end > len(s.Samples) {
			end = len(s.Samples)
		}
		var sum Usage
		for _, u := range s.Samples[i:end] {
			sum = sum.Add(u)
		}
		out = append(out, sum.Scale(1/float64(end-i)))
	}
	return &Series{Step: s.Step * time.Duration(factor), Samples: out}, nil
}

// Intervals splits the series into consolidation intervals of n samples each
// and reduces every interval's values for resource r with f (for example
// stats.Max or stats.Mean). A trailing partial interval is reduced over the
// samples it has.
func (s *Series) Intervals(n int, r Resource, f func([]float64) float64) ([]float64, error) {
	return s.IntervalsInto(nil, n, r, f)
}

// IntervalsInto is Intervals appending into buf's backing storage (reused
// from buf[:0] when the capacity suffices) — for callers that reduce one
// server after another and do not retain the per-server slice.
func (s *Series) IntervalsInto(buf []float64, n int, r Resource, f func([]float64) float64) ([]float64, error) {
	if n < 1 {
		return nil, errors.New("trace: interval length must be >= 1")
	}
	vals := s.Col(r)
	out := buf[:0]
	for i := 0; i < len(vals); i += n {
		end := i + n
		if end > len(vals) {
			end = len(vals)
		}
		out = append(out, f(vals[i:end]))
	}
	return out, nil
}
