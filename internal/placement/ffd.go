package placement

import (
	"fmt"

	"vmwild/internal/constraints"
	"vmwild/internal/trace"
)

// FFD is the two-dimensional First-Fit-Decreasing packer used by static and
// vanilla semi-static consolidation: VMs are sorted by dominant normalized
// demand and dropped into the first host with room, opening new hosts as
// needed.
type FFD struct {
	// HostSpec is the raw capacity of the (identical) target hosts.
	HostSpec trace.Spec
	// Bound is the usable fraction of each host in (0, 1]; dynamic
	// consolidation sets it to 1 minus the live-migration reservation.
	Bound float64
	// RackSize is the number of hosts per rack.
	RackSize int
	// Constraints veto candidate assignments.
	Constraints constraints.Set
}

// Pack places all items and returns the resulting placement.
func (f FFD) Pack(items []Item) (*Placement, error) {
	p, err := NewPlacement(f.HostSpec, f.Bound, f.RackSize)
	if err != nil {
		return nil, err
	}
	return p, f.packFlat(p, sortDecreasing(items, f.HostSpec))
}

// packFlat is the flattened kernel: with no constraints the first fitting
// host comes from the segment-tree finder (identical choice to the linear
// scan, leftmost-first); with constraints the scan walks the struct-of-
// arrays state directly so each probe is two float compares, not a map
// lookup through hostIdx.
func (f FFD) packFlat(p *Placement, sorted []Item) error {
	finder := newHostFinder(p)
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
		hi := -1
		if plain {
			hi = finder.firstFit(0, it.Demand.CPU, it.Demand.Mem)
		} else {
			for i := range p.hosts {
				if p.usedCPU[i]+it.Demand.CPU <= p.capCPU+1e-9 && p.usedMem[i]+it.Demand.Mem <= p.capMem+1e-9 &&
					f.Constraints.Permits(it.ID, p.hosts[i].ID, p) == nil {
					hi = i
					break
				}
			}
		}
		if hi < 0 {
			opened := false
			for attempts := 0; attempts < 1+len(f.Constraints); attempts++ {
				h := p.OpenHost()
				finder.hostAdded()
				if f.Constraints.Permits(it.ID, h.ID, p) != nil {
					continue
				}
				hi = len(p.hosts) - 1
				opened = true
				break
			}
			if !opened {
				return fmt.Errorf("placement: constraints leave no feasible host for %s", it.ID)
			}
		}
		p.assignAt(vi, hi, it)
		finder.update(hi)
	}
	return nil
}
