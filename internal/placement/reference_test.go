package placement

import (
	"fmt"
	"math"

	"vmwild/internal/sizing"
)

// The naive packing kernels, kept verbatim from before the flattened
// (struct-of-arrays) kernels replaced them: per-host lookups through the
// public ID-keyed API, linear first-fit scans, map-keyed tail pools. They
// exist only as the oracle of the kernel property tests
// (kernel_equiv_test.go): for every input, FFD/BFD/PCP.Pack must produce
// placements with Encode bytes identical to these.

// ffdReference packs items with the naive first-fit-decreasing loop.
func ffdReference(f FFD, items []Item) (*Placement, error) {
	p, err := NewPlacement(f.HostSpec, f.Bound, f.RackSize)
	if err != nil {
		return nil, err
	}
	for _, it := range sortDecreasing(items, f.HostSpec) {
		if err := ffdPlaceReference(f, p, it); err != nil {
			return nil, err
		}
	}
	return p, nil
}

// ffdPlaceReference puts one item on the first permissible host with room.
func ffdPlaceReference(f FFD, p *Placement, it Item) error {
	cap := p.Capacity()
	if it.Demand.CPU > cap.CPU+1e-9 || it.Demand.Mem > cap.Mem+1e-9 {
		return fmt.Errorf("placement: %s demand (%.0f RPE2, %.0f MB) exceeds host capacity (%.0f RPE2, %.0f MB)",
			it.ID, it.Demand.CPU, it.Demand.Mem, cap.CPU, cap.Mem)
	}
	for _, h := range p.Hosts() {
		if !p.Fits(h.ID, it.Demand) {
			continue
		}
		if f.Constraints.Permits(it.ID, h.ID, p) != nil {
			continue
		}
		return p.Assign(it, h.ID)
	}
	// No existing host works; open fresh hosts until constraints allow
	// the assignment (pinning constraints may reject arbitrary hosts, so
	// bound the retries).
	for attempts := 0; attempts < 1+len(f.Constraints); attempts++ {
		h := p.OpenHost()
		if err := f.Constraints.Permits(it.ID, h.ID, p); err != nil {
			continue
		}
		return p.Assign(it, h.ID)
	}
	return fmt.Errorf("placement: constraints leave no feasible host for %s", it.ID)
}

// bfdReference packs items with the naive best-fit-decreasing loop.
func bfdReference(f BFD, items []Item) (*Placement, error) {
	p, err := NewPlacement(f.HostSpec, f.Bound, f.RackSize)
	if err != nil {
		return nil, err
	}
	for _, it := range sortDecreasing(items, f.HostSpec) {
		if err := bfdPlaceReference(f, p, it); err != nil {
			return nil, err
		}
	}
	return p, nil
}

// bfdPlaceReference puts one item on the feasible host left with the least
// normalized slack.
func bfdPlaceReference(f BFD, p *Placement, it Item) error {
	cap := p.Capacity()
	if it.Demand.CPU > cap.CPU+1e-9 || it.Demand.Mem > cap.Mem+1e-9 {
		return fmt.Errorf("placement: %s demand (%.0f RPE2, %.0f MB) exceeds host capacity (%.0f RPE2, %.0f MB)",
			it.ID, it.Demand.CPU, it.Demand.Mem, cap.CPU, cap.Mem)
	}
	best := ""
	bestSlack := math.Inf(1)
	for _, h := range p.Hosts() {
		if !p.Fits(h.ID, it.Demand) {
			continue
		}
		if f.Constraints.Permits(it.ID, h.ID, p) != nil {
			continue
		}
		if s := slackAfter(p, h.ID, it.Demand); s < bestSlack {
			bestSlack, best = s, h.ID
		}
	}
	if best != "" {
		return p.Assign(it, best)
	}
	for attempts := 0; attempts < 1+len(f.Constraints); attempts++ {
		h := p.OpenHost()
		if err := f.Constraints.Permits(it.ID, h.ID, p); err != nil {
			continue
		}
		return p.Assign(it, h.ID)
	}
	return fmt.Errorf("placement: constraints leave no feasible host for %s", it.ID)
}

// slackAfter scores the residual capacity of host after adding d: the
// larger normalized remainder of the two resources. Smaller is a better
// (tighter) fit.
func slackAfter(p *Placement, host string, d sizing.Demand) float64 {
	u := p.Used(host)
	cap := p.Capacity()
	cpuLeft := (cap.CPU - u.CPU - d.CPU) / cap.CPU
	memLeft := (cap.Mem - u.Mem - d.Mem) / cap.Mem
	return math.Max(cpuLeft, memLeft)
}

// pcpReference packs items with the naive PCP loop.
func pcpReference(s PCP, items []Item) (*Placement, error) {
	p, err := NewPlacement(s.HostSpec, s.Bound, s.RackSize)
	if err != nil {
		return nil, err
	}
	pools := make(map[string]*hostPool)
	for _, it := range s.sortItems(items) {
		if err := pcpPlaceReference(s, p, pools, it); err != nil {
			return nil, err
		}
	}
	return p, nil
}

func pcpPlaceReference(s PCP, p *Placement, pools map[string]*hostPool, it Item) error {
	cap := p.Capacity()
	if it.Tail.CPU > cap.CPU+1e-9 || it.Tail.Mem > cap.Mem+1e-9 || it.Demand.CPU > cap.CPU+1e-9 || it.Demand.Mem > cap.Mem+1e-9 {
		return fmt.Errorf("placement: %s envelope exceeds host capacity", it.ID)
	}
	for _, h := range p.Hosts() {
		pool := pools[h.ID]
		ok, corrMax := pcpAdmitsReference(s, p, pool, h.ID, it)
		if !ok {
			continue
		}
		if s.Constraints.Permits(it.ID, h.ID, p) != nil {
			continue
		}
		pcpCommitReference(pools[h.ID], it, corrMax)
		return p.Assign(it, h.ID)
	}
	for attempts := 0; attempts < 1+len(s.Constraints); attempts++ {
		h := p.OpenHost()
		pools[h.ID] = &hostPool{}
		if err := s.Constraints.Permits(it.ID, h.ID, p); err != nil {
			continue
		}
		pcpCommitReference(pools[h.ID], it, 0)
		return p.Assign(it, h.ID)
	}
	return fmt.Errorf("placement: constraints leave no feasible host for %s", it.ID)
}

// pcpAdmitsReference evaluates the PCP envelope test for adding it to host.
// It returns the candidate's strongest positive correlation against
// residents so pcpCommitReference can reuse it.
func pcpAdmitsReference(s PCP, p *Placement, pool *hostPool, host string, it Item) (bool, float64) {
	if pool == nil {
		return false, 0
	}
	residents := p.VMsOn(host)
	var corrSum, corrMax float64
	if s.CorrIdx != nil {
		ci := s.CorrIdx.Index(it.ID)
		for _, r := range residents {
			var c float64
			if ri := s.CorrIdx.Index(r); ci >= 0 && ri >= 0 {
				c = math.Max(0, s.CorrIdx.At(ci, ri))
			}
			corrSum += c
			corrMax = math.Max(corrMax, c)
		}
	} else if s.Corr != nil {
		for _, r := range residents {
			c := math.Max(0, s.Corr(it.ID, r))
			corrSum += c
			corrMax = math.Max(corrMax, c)
		}
	}
	if s.MaxAvgCorr > 0 && len(residents) > 0 {
		if corrSum/float64(len(residents)) > s.MaxAvgCorr {
			return false, corrMax
		}
	}
	rho := math.Max(pool.maxCorr, corrMax)

	tail := it.tailBuffer()
	used := p.Used(host)
	cap := p.Capacity()

	cpuTerm := rho*(pool.tailSumCPU+tail.CPU) + (1-rho)*math.Sqrt(pool.tailSqCPU+tail.CPU*tail.CPU)
	if used.CPU+it.Demand.CPU+cpuTerm > cap.CPU+1e-9 {
		return false, corrSum
	}
	memTerm := rho*(pool.tailSumMem+tail.Mem) + (1-rho)*math.Sqrt(pool.tailSqMem+tail.Mem*tail.Mem)
	if used.Mem+it.Demand.Mem+memTerm > cap.Mem+1e-9 {
		return false, corrMax
	}
	return true, corrMax
}

func pcpCommitReference(pool *hostPool, it Item, corrMax float64) {
	tail := it.tailBuffer()
	pool.maxCorr = math.Max(pool.maxCorr, corrMax)
	pool.tailSumCPU += tail.CPU
	pool.tailSqCPU += tail.CPU * tail.CPU
	pool.tailSumMem += tail.Mem
	pool.tailSqMem += tail.Mem * tail.Mem
}
