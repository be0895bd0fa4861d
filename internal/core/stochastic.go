package core

import (
	"fmt"

	"vmwild/internal/cluster"
	"vmwild/internal/emulator"
	"vmwild/internal/placement"
	"vmwild/internal/sizing"
	"vmwild/internal/trace"
)

// Stochastic is the correlation-aware semi-static planner modeled on the
// PCP algorithm of [27] (Section 5.1): each VM is sized as an envelope —
// body at the 90th percentile, tail at the maximum — and packed so that
// tail buffers are shared between co-located VMs in proportion to how
// correlated their demands are. Like vanilla semi-static consolidation it
// needs no live-migration reservation.
type Stochastic struct{}

// Name implements Planner.
func (Stochastic) Name() string { return "stochastic" }

// Plan implements Planner.
func (Stochastic) Plan(in Input) (*Plan, error) {
	if err := in.validate(); err != nil {
		return nil, err
	}
	items, err := envelopeItems(in)
	if err != nil {
		return nil, err
	}

	var (
		corr    placement.CorrFunc
		corrIdx placement.CorrIndexer
	)
	switch {
	case in.ClusterCorrelation:
		corr, err = clusterCorrelation(in.Monitoring, in.intervalHours())
	case in.CorrIndex != nil:
		// Precomputed by NewCorrTable over the same monitoring set —
		// same peak vectors, same stats.Correlation values.
		corrIdx = in.CorrIndex
	default:
		var t *CorrTable
		t, err = NewCorrTable(in.Monitoring, in.intervalHours())
		if err == nil {
			corrIdx = t
			corr = t.Func()
		}
	}
	if err != nil {
		return nil, fmt.Errorf("stochastic: %w", err)
	}

	p, err := placement.PCP{
		HostSpec:    in.Host.Spec,
		Bound:       1.0,
		RackSize:    in.rackSize(),
		Constraints: in.Constraints,
		Corr:        corr,
		CorrIdx:     corrIdx,
		MaxAvgCorr:  in.MaxAvgCorr,
	}.Pack(items)
	if err != nil {
		return nil, fmt.Errorf("stochastic: %w", err)
	}
	return &Plan{
		Planner:     "stochastic",
		Provisioned: p.NumHosts(),
		Schedule:    emulator.StaticSchedule{P: p},
	}, nil
}

// envelopeItems sizes every server as a body/tail envelope, or adopts the
// precomputed envelopes when they cover exactly this monitoring set (the
// shared-cache path; SizeEnvelope is deterministic, so precomputed items
// are identical to inline ones). Any mismatch falls back to inline sizing.
func envelopeItems(in Input) ([]placement.Item, error) {
	servers := in.Monitoring.Servers
	if len(in.Envelopes) == len(servers) {
		match := true
		for i, st := range servers {
			if in.Envelopes[i].ID != st.ID {
				match = false
				break
			}
		}
		if match {
			return in.Envelopes, nil
		}
	}
	return SizeEnvelopes(in.Monitoring, in.bodyPercentile())
}

// SizeEnvelopes sizes every server of the set as a body/tail envelope at
// the given body percentile — the stochastic planner's sizing pass, exposed
// so experiment grids can compute it once and share it via Input.Envelopes.
func SizeEnvelopes(set *trace.Set, percentile float64) ([]placement.Item, error) {
	items := make([]placement.Item, 0, len(set.Servers))
	es := sizing.EnvelopeSizer{P: percentile}
	for _, st := range set.Servers {
		env, err := es.Size(st)
		if err != nil {
			return nil, fmt.Errorf("stochastic: %w", err)
		}
		items = append(items, placement.Item{ID: st.ID, Demand: env.Body, Tail: env.Tail})
	}
	return items, nil
}

// clusterCorrelation approximates pairwise correlations by demand-pattern
// cluster medoids (see internal/cluster) — within a cluster servers count
// as fully correlated, across clusters the medoid correlation stands in.
func clusterCorrelation(set *trace.Set, intervalHours int) (placement.CorrFunc, error) {
	cfg := cluster.Config{IntervalHours: intervalHours}
	res, err := cluster.ByCPUPattern(set, cfg)
	if err != nil {
		return nil, err
	}
	fn, err := cluster.MedoidCorr(set, res, cfg)
	if err != nil {
		return nil, err
	}
	return fn, nil
}
