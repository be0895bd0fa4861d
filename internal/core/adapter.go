package core

import (
	"errors"
	"fmt"

	"vmwild/internal/placement"
	"vmwild/internal/sizing"
	"vmwild/internal/trace"
)

// Adapter is the single-interval adaptation engine behind dynamic
// consolidation: given each VM's reservation for the next interval it
// resizes in place, repairs overloaded hosts with the cheapest migrations,
// and evacuates lightly used hosts so they can be switched off. The Dynamic
// planner drives it across a whole evaluation window; the runtime
// controller drives it live, one interval at a time.
type Adapter struct {
	// In carries host model, bound, constraints and rack size; the
	// trace-set fields are not used by the adapter.
	In Input

	cur *placement.Placement
	// clamped is the per-step scratch for bound-clamped items, reused
	// across intervals.
	clamped []placement.Item
	// evac carries the cross-interval state of repair and consolidation
	// (failure certificates, scratch buffers).
	evac evacState
	// vmIdx/vmIDs cache each item position's dense VM index: the
	// population and order of items is fixed across intervals, so the
	// per-VM map resolution is paid once, then validated per step with a
	// cheap ID equality check.
	vmIdx []int32
	vmIDs []trace.ServerID
}

// NewAdapter validates the configuration.
func NewAdapter(in Input) (*Adapter, error) {
	if in.Host.Spec.CPURPE2 <= 0 || in.Host.Spec.MemMB <= 0 {
		return nil, errors.New("core: adapter host model has no capacity")
	}
	if in.Bound < 0 || in.Bound > 1 {
		return nil, fmt.Errorf("core: bound %v outside [0, 1]", in.Bound)
	}
	return &Adapter{In: in}, nil
}

// Current returns the adapter's placement (nil before the first Step).
func (a *Adapter) Current() *placement.Placement { return a.cur }

// StepResult summarizes one adaptation round.
type StepResult struct {
	// Migrations is how many VM moves the round ordered.
	Migrations int
	// MigrationDataMB is the memory those moves transfer.
	MigrationDataMB float64
	// ActiveHosts is the number of powered-on hosts afterwards.
	ActiveHosts int
	// OverloadedHosts is how many hosts exceeded their usable capacity
	// after the in-place resize, before repair — the capacity violations
	// the interval opened with. Degraded executions that leave VMs on
	// crowded hosts drive this up.
	OverloadedHosts int
}

// Step adapts the placement to the given per-VM reservations. The first
// call packs from scratch (no migrations); later calls resize, repair and
// consolidate. Items must always cover the same VM population.
func (a *Adapter) Step(items []placement.Item) (StepResult, error) {
	if len(items) == 0 {
		return StepResult{}, errors.New("core: adapter step with no items")
	}
	capacity := sizing.Demand{
		CPU: a.In.Host.Spec.CPURPE2 * a.In.bound(),
		Mem: a.In.Host.Spec.MemMB * a.In.bound(),
	}
	if cap(a.clamped) < len(items) {
		a.clamped = make([]placement.Item, len(items))
	}
	clamped := a.clamped[:len(items)]
	for i, it := range items {
		it.Demand.CPU = min(it.Demand.CPU, capacity.CPU)
		it.Demand.Mem = min(it.Demand.Mem, capacity.Mem)
		clamped[i] = it
	}

	if a.cur == nil {
		p, err := placement.FFD{
			HostSpec:    a.In.Host.Spec,
			Bound:       a.In.bound(),
			RackSize:    a.In.rackSize(),
			Constraints: a.In.Constraints,
		}.Pack(clamped)
		if err != nil {
			return StepResult{}, fmt.Errorf("core: adapter initial pack: %w", err)
		}
		a.cur = p
		return StepResult{ActiveHosts: p.ActiveHosts()}, nil
	}

	if a.cur.NumVMs() != len(clamped) {
		return StepResult{}, fmt.Errorf("core: adapter has %d VMs, step brought %d", a.cur.NumVMs(), len(clamped))
	}
	if len(a.vmIdx) != len(clamped) {
		a.vmIdx, a.vmIDs = a.vmIdx[:0], a.vmIDs[:0]
		for _, it := range clamped {
			a.vmIdx = append(a.vmIdx, int32(a.cur.VMIndex(it.ID)))
			a.vmIDs = append(a.vmIDs, it.ID)
		}
	}
	for i, it := range clamped {
		// The indexed resize skips the per-VM map lookup inside
		// UpdateDemand; unknown VMs fall through to it for the error.
		vi := -1
		if a.vmIDs[i] == it.ID {
			vi = int(a.vmIdx[i])
		} else {
			vi = a.cur.VMIndex(it.ID)
		}
		if vi >= 0 {
			a.cur.UpdateDemandAt(vi, it.Demand)
		} else if err := a.cur.UpdateDemand(it.ID, it.Demand); err != nil {
			return StepResult{}, fmt.Errorf("core: adapter resize %s: %w", it.ID, err)
		}
	}
	var res StepResult
	res.OverloadedHosts = a.cur.NumOverloaded()
	moved, dataMB, err := repairOverloads(a.cur, a.In, &a.evac)
	if err != nil {
		return StepResult{}, err
	}
	res.Migrations += moved
	res.MigrationDataMB += dataMB

	moved, dataMB = consolidate(a.cur, a.In, &a.evac)
	res.Migrations += moved
	res.MigrationDataMB += dataMB
	res.ActiveHosts = a.cur.ActiveHosts()
	return res, nil
}

// Snapshot returns an isolated copy of the current placement for emulation
// or execution scheduling.
func (a *Adapter) Snapshot() (*placement.Placement, error) {
	if a.cur == nil {
		return nil, errors.New("core: adapter has no placement yet")
	}
	return a.cur.Clone(), nil
}

// Restore replaces the adapter's placement with the given one — the
// degraded-execution path: when live migrations fail, the realized
// placement diverges from the intended one, and the next Step must re-plan
// from where the VMs actually are, not where the plan wanted them.
func (a *Adapter) Restore(p *placement.Placement) error {
	if p == nil {
		return errors.New("core: restore nil placement")
	}
	if a.cur != nil && a.cur.NumVMs() != p.NumVMs() {
		return fmt.Errorf("core: restore placement has %d VMs, adapter tracks %d", p.NumVMs(), a.cur.NumVMs())
	}
	a.cur = p.Clone()
	// The restored placement may come from a different Clone chain, whose
	// universe numbers VMs differently — drop the cached indices.
	a.vmIdx, a.vmIDs = nil, nil
	return nil
}

// PredictItems sizes every server for the next interval from its history —
// the Predict + Size steps packaged for adapter users. history maps server
// IDs to their demand series so far (hourly samples, oldest first).
func PredictItems(in Input, ids []trace.ServerID, specs []trace.Spec, cpuHist, memHist [][]float64, interval int) ([]placement.Item, error) {
	if len(ids) != len(specs) || len(ids) != len(cpuHist) || len(ids) != len(memHist) {
		return nil, errors.New("core: prediction inputs differ in length")
	}
	cpuPred := in.CPUPredictor
	if cpuPred == nil {
		cpuPred = DefaultCPUPredictor()
	}
	memPred := in.MemPredictor
	if memPred == nil {
		memPred = DefaultMemPredictor()
	}
	items := make([]placement.Item, len(ids))
	for i := range ids {
		cpu, err := cpuPred.PredictPeak(cpuHist[i], interval)
		if err != nil {
			return nil, fmt.Errorf("core: predict cpu for %s: %w", ids[i], err)
		}
		mem, err := memPred.PredictPeak(memHist[i], interval)
		if err != nil {
			return nil, fmt.Errorf("core: predict mem for %s: %w", ids[i], err)
		}
		items[i] = placement.Item{
			ID: ids[i],
			Demand: sizing.Demand{
				CPU: min(cpu, specs[i].CPURPE2),
				Mem: min(mem, specs[i].MemMB),
			},
		}
	}
	return items, nil
}
