package core

import (
	"fmt"

	"vmwild/internal/emulator"
	"vmwild/internal/placement"
	"vmwild/internal/sizing"
)

// SemiStatic is the vanilla semi-static planner (Section 5.1): every VM is
// sized at its peak demand over the monitoring window and packed with
// two-dimensional First-Fit-Decreasing at full host capacity. The placement
// holds for the whole evaluation window; re-planning happens out of band at
// the next maintenance window.
type SemiStatic struct{}

// Name implements Planner.
func (SemiStatic) Name() string { return "semi-static" }

// Plan implements Planner.
func (SemiStatic) Plan(in Input) (*Plan, error) {
	return maxSizedPlan(in, "semi-static", 1.0)
}

// Static is classical one-time consolidation (Section 2.2.1): VMs are sized
// for their expected lifetime peak, which a 30-day window can only estimate
// from below, so a headroom factor pads the observed peak. Packing is the
// same FFD.
type Static struct {
	// Headroom pads the observed monthly peak to approximate the
	// lifetime peak; zero selects 1.25.
	Headroom float64
}

// Name implements Planner.
func (Static) Name() string { return "static" }

// Plan implements Planner.
func (s Static) Plan(in Input) (*Plan, error) {
	h := s.Headroom
	if h == 0 {
		h = 1.25
	}
	return maxSizedPlan(in, "static", h)
}

// maxSizedPlan packs max-sized VMs scaled by headroom at full capacity.
func maxSizedPlan(in Input, name string, headroom float64) (*Plan, error) {
	if err := in.validate(); err != nil {
		return nil, err
	}
	items := make([]placement.Item, 0, len(in.Monitoring.Servers))
	hostSpec := in.Host.Spec
	for _, st := range in.Monitoring.Servers {
		d, err := sizing.SizeServer(st, sizing.Max{})
		if err != nil {
			return nil, fmt.Errorf("%s: %w", name, err)
		}
		d = d.Scale(headroom)
		// A reservation can never exceed the source machine's own
		// capacity: the workload physically cannot demand more.
		d.CPU = min(d.CPU, st.Spec.CPURPE2)
		d.Mem = min(d.Mem, st.Spec.MemMB)
		items = append(items, placement.Item{ID: st.ID, Demand: d})
	}
	p, err := placement.FFD{
		HostSpec:    hostSpec,
		Bound:       1.0,
		RackSize:    in.rackSize(),
		Constraints: in.Constraints,
	}.Pack(items)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", name, err)
	}
	return &Plan{
		Planner:     name,
		Provisioned: p.NumHosts(),
		Schedule:    emulator.StaticSchedule{P: p},
	}, nil
}
