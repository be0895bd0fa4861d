package placement

import (
	"fmt"
	"math"

	"vmwild/internal/constraints"
	"vmwild/internal/trace"
)

// BFD is two-dimensional Best-Fit-Decreasing: like FFD it places items in
// decreasing size order, but instead of the first host with room it picks
// the host that will be left with the least normalized slack — a classical
// bin-packing baseline [26] that typically packs slightly tighter than FFD
// at a higher search cost. Provided as an ablation baseline for the
// placement step.
type BFD struct {
	// HostSpec is the raw capacity of the target hosts.
	HostSpec trace.Spec
	// Bound is the usable fraction of each host in (0, 1].
	Bound float64
	// RackSize is the number of hosts per rack.
	RackSize int
	// Constraints veto candidate assignments.
	Constraints constraints.Set
}

// Pack places all items and returns the resulting placement.
func (f BFD) Pack(items []Item) (*Placement, error) {
	p, err := NewPlacement(f.HostSpec, f.Bound, f.RackSize)
	if err != nil {
		return nil, err
	}
	return p, f.packFlat(p, sortDecreasing(items, f.HostSpec))
}

// packFlat is the flattened kernel: best-fit must score every host anyway,
// so the win is walking the used arrays directly with the slack arithmetic
// inlined, skipping the per-host ID-to-index lookups of the naive path.
func (f BFD) packFlat(p *Placement, sorted []Item) error {
	plain := len(f.Constraints) == 0
	for _, it := range sorted {
		if it.Demand.CPU > p.capCPU+1e-9 || it.Demand.Mem > p.capMem+1e-9 {
			return fmt.Errorf("placement: %s demand (%.0f RPE2, %.0f MB) exceeds host capacity (%.0f RPE2, %.0f MB)",
				it.ID, it.Demand.CPU, it.Demand.Mem, p.capCPU, p.capMem)
		}
		vi := p.internVM(it.ID)
		p.growVMState(vi)
		if p.vmHost[vi] >= 0 {
			return fmt.Errorf("placement: %s already assigned", it.ID)
		}
		best := -1
		bestSlack := math.Inf(1)
		for i := range p.hosts {
			uc, um := p.usedCPU[i], p.usedMem[i]
			if uc+it.Demand.CPU > p.capCPU+1e-9 || um+it.Demand.Mem > p.capMem+1e-9 {
				continue
			}
			if !plain && f.Constraints.Permits(it.ID, p.hosts[i].ID, p) != nil {
				continue
			}
			cpuLeft := (p.capCPU - uc - it.Demand.CPU) / p.capCPU
			memLeft := (p.capMem - um - it.Demand.Mem) / p.capMem
			if s := math.Max(cpuLeft, memLeft); s < bestSlack {
				bestSlack, best = s, i
			}
		}
		if best < 0 {
			opened := false
			for attempts := 0; attempts < 1+len(f.Constraints); attempts++ {
				h := p.OpenHost()
				if f.Constraints.Permits(it.ID, h.ID, p) != nil {
					continue
				}
				best = len(p.hosts) - 1
				opened = true
				break
			}
			if !opened {
				return fmt.Errorf("placement: constraints leave no feasible host for %s", it.ID)
			}
		}
		p.assignAt(vi, best, it)
	}
	return nil
}
