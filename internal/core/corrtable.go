package core

import (
	"math"
	"sync/atomic"

	"vmwild/internal/placement"
	"vmwild/internal/stats"
	"vmwild/internal/trace"
)

// CorrTable is the stochastic planner's pairwise interval-peak correlation
// source. It serves both lookup styles the packer understands — ID-keyed
// (placement.CorrFunc) and dense-indexed (placement.CorrIndexer) — from one
// memo, and is safe to share across concurrent plans.
//
// Values are bit-identical to stats.Correlation over the per-interval peak
// vectors, at about a third of the flops: the mean-centered vectors and
// their summed squares depend on one server only, so they are computed once
// per server here instead of once per probed pair. A pair probe is then a
// single dot product over the centered vectors — the same multiply-add
// sequence, in the same index order, as the sxy accumulator inside
// stats.Correlation, so the result rounds identically.
type CorrTable struct {
	index    map[trace.ServerID]int32
	centered [][]float64
	sxx      []float64
	n        int
	// cells memoizes pair values for the upper triangle: PCP probes pairs
	// repeatedly during packing, so the hit path (one index) dominates. A
	// cell holds ^Float64bits(c); the bitwise NOT makes a stored 0.0
	// distinguishable from an empty (zero) cell without pre-filling.
	// Stores are atomic so the table can be shared across plans; a racing
	// duplicate computation evaluates the same pure function, so
	// last-write-wins is safe. Nil above memoMaxServers (the dense matrix
	// would need n^2 cells — at 100k VMs that is 80 GB), where probes
	// recompute the cheap dot product instead.
	cells []atomic.Uint64
}

// memoMaxServers caps the dense memo matrix at 32 MB (2048^2 cells). Every
// study datacenter is far below it; synthetic 100k-VM fleets skip the memo.
const memoMaxServers = 2048

var _ placement.CorrIndexer = (*CorrTable)(nil)

// NewCorrTable precomputes the centered per-interval CPU peak vectors for
// every server in the set. Interval peaks, not raw hourly samples, are what
// co-located tails share — two workloads whose 2-hour peaks coincide cannot
// pool their headroom even if the within-interval shapes differ.
func NewCorrTable(set *trace.Set, intervalHours int) (*CorrTable, error) {
	n := len(set.Servers)
	t := &CorrTable{
		index:    make(map[trace.ServerID]int32, n),
		centered: make([][]float64, n),
		sxx:      make([]float64, n),
		n:        n,
	}
	for i, st := range set.Servers {
		p, err := st.Series.Intervals(intervalHours, trace.CPU, stats.Max)
		if err != nil {
			return nil, err
		}
		m := stats.Mean(p)
		c := make([]float64, len(p))
		var sxx float64
		for k, x := range p {
			d := x - m
			c[k] = d
			sxx += d * d
		}
		t.centered[i] = c
		t.sxx[i] = sxx
		t.index[st.ID] = int32(i)
	}
	if n <= memoMaxServers {
		t.cells = make([]atomic.Uint64, n*n)
	}
	return t, nil
}

// Index implements placement.CorrIndexer.
func (t *CorrTable) Index(id trace.ServerID) int {
	if i, ok := t.index[id]; ok {
		return int(i)
	}
	return -1
}

// At implements placement.CorrIndexer.
func (t *CorrTable) At(i, j int) float64 {
	if i > j {
		i, j = j, i
	}
	if t.cells == nil {
		return t.pairCorr(i, j)
	}
	k := i*t.n + j
	if u := t.cells[k].Load(); u != 0 {
		return math.Float64frombits(^u)
	}
	c := t.pairCorr(i, j)
	t.cells[k].Store(^math.Float64bits(c))
	return c
}

// pairCorr mirrors stats.Correlation exactly: fewer-than-two samples and
// zero-variance series yield 0, everything else sxy/sqrt(sxx*syy).
func (t *CorrTable) pairCorr(i, j int) float64 {
	xs, ys := t.centered[i], t.centered[j]
	if len(xs) < 2 || len(xs) != len(ys) {
		return 0
	}
	sxx, syy := t.sxx[i], t.sxx[j]
	if sxx == 0 || syy == 0 {
		return 0
	}
	var sxy float64
	for k := range xs {
		sxy += xs[k] * ys[k]
	}
	return sxy / math.Sqrt(sxx*syy)
}

// Corr is the ID-keyed lookup; unknown servers correlate 0.
func (t *CorrTable) Corr(a, b trace.ServerID) float64 {
	ia, ok := t.index[a]
	if !ok {
		return 0
	}
	ib, ok := t.index[b]
	if !ok {
		return 0
	}
	return t.At(int(ia), int(ib))
}

// Func adapts the table to the packer's functional interface.
func (t *CorrTable) Func() placement.CorrFunc { return t.Corr }
