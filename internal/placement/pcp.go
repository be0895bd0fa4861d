package placement

import (
	"fmt"
	"math"
	"slices"

	"vmwild/internal/constraints"
	"vmwild/internal/trace"
)

// CorrFunc returns the Pearson correlation of CPU demand between two
// servers, in [-1, 1].
type CorrFunc func(a, b trace.ServerID) float64

// CorrIndexer is the optional fast path for correlation lookups: servers
// are resolved to dense indices once, and pairwise probes become integer-
// indexed. Values must be identical to the ID-keyed function — the
// stochastic planner's correlation table satisfies both interfaces from the
// same memo.
type CorrIndexer interface {
	// Index returns the server's dense index, or -1 when unknown.
	Index(id trace.ServerID) int
	// At returns the correlation of the servers at indices i and j.
	At(i, j int) float64
}

// PCP is the correlation-aware stochastic packer modeled on [27]. Each VM's
// body (90th-percentile demand) is reserved outright. Tail buffers
// (max - body) are pooled per host: the pooled reservation interpolates
// between root-sum-square pooling (independent peaks) and plain summation
// (fully correlated peaks) according to the strongest positive pairwise
// correlation among the co-located VMs:
//
//	tailTerm = rho * sum(tails) + (1-rho) * sqrt(sum(tails^2))
//
// Using the strongest (not average) correlation keeps the sizing safe: one
// pair of co-moving workloads is enough to make their peaks coincide, and a
// production planner must reserve for that. Negatively or un-correlated
// workloads share their peak headroom, while placing positively correlated
// workloads together buys nothing — the property that keeps semi-static
// consolidation honest for workloads whose bursts coincide (Observation 5).
type PCP struct {
	// HostSpec is the raw capacity of the target hosts.
	HostSpec trace.Spec
	// Bound is the usable fraction of each host in (0, 1].
	Bound float64
	// RackSize is the number of hosts per rack.
	RackSize int
	// Constraints veto candidate assignments.
	Constraints constraints.Set
	// Corr supplies pairwise CPU-demand correlations; nil treats all
	// pairs as uncorrelated.
	Corr CorrFunc
	// CorrIdx, when non-nil, replaces Corr with integer-indexed lookups
	// (values must agree with Corr). The flattened kernel resolves each
	// VM to its index once instead of hashing two string IDs per probe.
	CorrIdx CorrIndexer
	// MaxAvgCorr, when positive, additionally vetoes hosts whose average
	// correlation with the candidate would exceed the threshold, forcing
	// strongly co-moving workloads apart.
	MaxAvgCorr float64
}

// hostPool accumulates the per-host tail statistics PCP admission needs.
type hostPool struct {
	tailSumCPU, tailSqCPU float64
	tailSumMem, tailSqMem float64
	maxCorr               float64
}

// Pack places all items and returns the resulting placement.
func (s PCP) Pack(items []Item) (*Placement, error) {
	p, err := NewPlacement(s.HostSpec, s.Bound, s.RackSize)
	if err != nil {
		return nil, err
	}
	return p, s.packFlat(p, s.sortItems(items))
}

// sortItems orders items by dominant normalized envelope demand, largest
// first, ties by ID — a strict total order, so any sort yields the same
// sequence. Keys are precomputed once per item.
func (s PCP) sortItems(items []Item) []Item {
	type keyed struct {
		it  Item
		key float64
	}
	ks := make([]keyed, len(items))
	for i, it := range items {
		cpu := math.Max(it.Demand.CPU, it.Tail.CPU)
		mem := math.Max(it.Demand.Mem, it.Tail.Mem)
		ks[i] = keyed{it: it, key: math.Max(cpu/s.HostSpec.CPURPE2, mem/s.HostSpec.MemMB)}
	}
	slices.SortFunc(ks, func(a, b keyed) int {
		if a.key != b.key {
			if a.key > b.key {
				return -1
			}
			return 1
		}
		if a.it.ID < b.it.ID {
			return -1
		}
		if a.it.ID > b.it.ID {
			return 1
		}
		return 0
	})
	sorted := make([]Item, len(items))
	for i, k := range ks {
		sorted[i] = k.it
	}
	return sorted
}

// effSlack absorbs the accumulated float rounding error of the effective-
// load lower bound (a handful of ulps at host-capacity magnitude, ~1e-11).
// Pruning requires exceeding the admission threshold by this margin, so the
// tree can only under-prune — it never skips a host the exact admission
// test could accept.
const effSlack = 1e-6

// packFlat is the flattened kernel. Two changes against the naive path,
// neither observable in the output:
//
//   - Hosts that provably fail admission are skipped before any correlation
//     work, via a segment tree over per-host effective load:
//
//     eff = used + m*tailSum + (1-m)*sqrt(tailSq),  m = pool.maxCorr
//
//     The admission term rho*S + (1-rho)*R is monotone in rho (S >= R
//     because an L1 norm dominates the L2 norm), rho = max(m, corrMax) >= m,
//     and S >= tailSum, R >= sqrt(tailSq) for any candidate tail, so eff is
//     a lower bound on the admission test's left-hand side for every
//     possible item; with effSlack covering float error the tree only
//     under-prunes. Enumerated hosts still run the exact admission test, in
//     the same leftmost-first order the naive scan probes, so the chosen
//     host is identical.
//
//   - Correlation probes go through dense indices (CorrIdx) and per-host
//     resident index lists, avoiding two string hashes per probe. The
//     resident iteration order is the hostVMs order, identical to the
//     naive admits loop, so the corrSum accumulation sees the same floats
//     in the same order.
func (s PCP) packFlat(p *Placement, sorted []Item) error {
	finder := newMinTree(p.capCPU+1e-9+effSlack, p.capMem+1e-9+effSlack)
	plain := len(s.Constraints) == 0
	pools := make([]hostPool, 0, 64)
	// resCorr mirrors hostVMs with each resident's dense correlation
	// index (-1 when the correlation source does not know the server).
	var resCorr [][]int32
	corrOf := func(id trace.ServerID) int32 {
		if s.CorrIdx == nil {
			return -1
		}
		return int32(s.CorrIdx.Index(id))
	}
	useIdx := s.CorrIdx != nil
	useFunc := !useIdx && s.Corr != nil

	for _, it := range sorted {
		if it.Tail.CPU > p.capCPU+1e-9 || it.Tail.Mem > p.capMem+1e-9 || it.Demand.CPU > p.capCPU+1e-9 || it.Demand.Mem > p.capMem+1e-9 {
			return fmt.Errorf("placement: %s envelope exceeds host capacity", it.ID)
		}
		vi := p.internVM(it.ID)
		p.growVMState(vi)
		if p.vmHost[vi] >= 0 {
			return fmt.Errorf("placement: %s already assigned", it.ID)
		}
		ci := corrOf(it.ID)
		tail := it.tailBuffer()

		chosen, corrMax := -1, 0.0
		for hi := finder.firstFit(0, it.Demand.CPU, it.Demand.Mem); hi >= 0; hi = finder.firstFit(hi+1, it.Demand.CPU, it.Demand.Mem) {
			residents := p.hostVMs[hi]
			// Negative correlations clamp to 0: adding +0 leaves corrSum
			// bit-identical and cannot raise cMax, so the clamped probes
			// are skipped outright instead of calling math.Max.
			var corrSum, cMax float64
			if useIdx {
				for _, rc := range resCorr[hi] {
					if ci >= 0 && rc >= 0 {
						if c := s.CorrIdx.At(int(ci), int(rc)); c > 0 {
							corrSum += c
							if c > cMax {
								cMax = c
							}
						}
					}
				}
			} else if useFunc {
				for _, r := range residents {
					if c := s.Corr(it.ID, r); c > 0 {
						corrSum += c
						if c > cMax {
							cMax = c
						}
					}
				}
			}
			if s.MaxAvgCorr > 0 && len(residents) > 0 {
				if corrSum/float64(len(residents)) > s.MaxAvgCorr {
					continue
				}
			}
			pool := &pools[hi]
			rho := math.Max(pool.maxCorr, cMax)
			cpuTerm := rho*(pool.tailSumCPU+tail.CPU) + (1-rho)*math.Sqrt(pool.tailSqCPU+tail.CPU*tail.CPU)
			if p.usedCPU[hi]+it.Demand.CPU+cpuTerm > p.capCPU+1e-9 {
				continue
			}
			memTerm := rho*(pool.tailSumMem+tail.Mem) + (1-rho)*math.Sqrt(pool.tailSqMem+tail.Mem*tail.Mem)
			if p.usedMem[hi]+it.Demand.Mem+memTerm > p.capMem+1e-9 {
				continue
			}
			if !plain && s.Constraints.Permits(it.ID, p.hosts[hi].ID, p) != nil {
				continue
			}
			chosen, corrMax = hi, cMax
			break
		}
		if chosen < 0 {
			for attempts := 0; attempts < 1+len(s.Constraints); attempts++ {
				h := p.OpenHost()
				finder.grow(len(p.hosts))
				pools = append(pools, hostPool{})
				resCorr = append(resCorr, nil)
				if s.Constraints.Permits(it.ID, h.ID, p) != nil {
					continue
				}
				chosen, corrMax = len(p.hosts)-1, 0
				break
			}
			if chosen < 0 {
				return fmt.Errorf("placement: constraints leave no feasible host for %s", it.ID)
			}
		}
		pool := &pools[chosen]
		pool.maxCorr = math.Max(pool.maxCorr, corrMax)
		pool.tailSumCPU += tail.CPU
		pool.tailSqCPU += tail.CPU * tail.CPU
		pool.tailSumMem += tail.Mem
		pool.tailSqMem += tail.Mem * tail.Mem
		p.assignAt(vi, chosen, it)
		m := pool.maxCorr
		finder.set(chosen,
			p.usedCPU[chosen]+m*pool.tailSumCPU+(1-m)*math.Sqrt(pool.tailSqCPU),
			p.usedMem[chosen]+m*pool.tailSumMem+(1-m)*math.Sqrt(pool.tailSqMem))
		if useIdx {
			resCorr[chosen] = append(resCorr[chosen], ci)
		}
	}
	return nil
}
