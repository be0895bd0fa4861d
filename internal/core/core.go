// Package core implements the paper's consolidation planners on top of the
// substrate packages: Static, vanilla SemiStatic, Stochastic (PCP-style)
// and Dynamic consolidation (Section 5.1), wired together through the
// Monitor -> Predict -> Size -> Place -> Execute flow of Section 2.1.
//
// All planners consume a monitoring trace set (the most recent 30 days of
// hourly warehouse data) and produce a Plan: the number of servers to
// provision and an emulator schedule describing which VM runs where at each
// hour of the 14-day evaluation window.
package core

import (
	"errors"
	"fmt"

	"vmwild/internal/catalog"
	"vmwild/internal/constraints"
	"vmwild/internal/emulator"
	"vmwild/internal/migration"
	"vmwild/internal/placement"
	"vmwild/internal/predict"
	"vmwild/internal/trace"
)

// Defaults from Table 3 of the paper.
const (
	// DefaultIntervalHours is the dynamic consolidation interval.
	DefaultIntervalHours = 2
	// DefaultBound is the host utilization bound for dynamic
	// consolidation: 1 minus the 20% live-migration reservation.
	DefaultBound = 1 - migration.DefaultReservation
	// DefaultBodyPercentile is the PCP body sizing percentile.
	DefaultBodyPercentile = 90
)

// Input carries everything a planner needs.
type Input struct {
	// Monitoring is the planning window (30 days of hourly data).
	Monitoring *trace.Set
	// Evaluation is the replay window (14 days). The dynamic planner
	// walks forward through it, re-planning each interval from history
	// only; semi-static planners never look at it.
	Evaluation *trace.Set
	// Host is the target host model (HS23-class by default).
	Host catalog.Model
	// Bound is the usable host fraction for dynamic consolidation in
	// (0, 1]; zero selects DefaultBound. Semi-static variants always
	// pack to full capacity — they need no live-migration headroom.
	Bound float64
	// IntervalHours is the dynamic consolidation interval; zero selects
	// DefaultIntervalHours.
	IntervalHours int
	// Constraints veto placements for all planners.
	Constraints constraints.Set
	// BodyPercentile is the PCP body percentile; zero selects
	// DefaultBodyPercentile.
	BodyPercentile float64
	// MaxAvgCorr, when positive, makes the stochastic packer refuse
	// hosts whose average correlation with the candidate VM exceeds it.
	MaxAvgCorr float64
	// ClusterCorrelation makes the stochastic packer approximate
	// pairwise correlations by cluster medoids — O(k^2) instead of
	// O(n^2) series correlations, the practical choice for estates of
	// thousands of servers.
	ClusterCorrelation bool
	// CPUPredictor and MemPredictor size dynamic intervals; nil selects
	// the default combined recent-peak/time-of-day predictor.
	CPUPredictor predict.Predictor
	MemPredictor predict.Predictor
	// OracleSizing sizes each dynamic interval at the actual realized
	// peak instead of a prediction — the clairvoyant upper bound that
	// isolates prediction error from packing effects in ablations. Never
	// available in production.
	OracleSizing bool
	// Demands, when non-nil, supplies the dynamic planner's walk-forward
	// sizing precomputed by SizeDynamicDemands, letting many plans over
	// the same traces (different bounds, host models, mechanisms) share
	// one prediction pass. It must have been computed from the same trace
	// sets, predictors and interval as this input; Dynamic.Plan verifies
	// the structural parts (interval, sizing mode, server identity) and
	// trusts the caller for the rest. Other planners ignore it.
	Demands *DemandMatrix
	// Histories, when non-nil, supplies the concatenated per-server
	// demand columns that SizeDynamicDemands otherwise rebuilds on every
	// call, precomputed by BuildDemandHistories from the same monitoring
	// and evaluation sets.
	// The histories depend only on the trace sets — not on predictors,
	// interval or sizing mode — so one build serves every demand key of a
	// data center. SizeDynamicDemands verifies server identity and
	// monitoring length; results are byte-identical with or without it.
	Histories *DemandHistories
	// Correlations, when non-nil, supplies the stochastic planner's
	// pairwise interval-peak correlation function precomputed by
	// NewSharedCorrelation, letting plans over the same monitoring set
	// (different host models, percentiles, correlation caps) share one
	// peak-vector pass and one memo cache. It must have been built from
	// this input's Monitoring set and interval. Ignored when
	// ClusterCorrelation is set; other planners ignore it.
	Correlations placement.CorrFunc
	// CorrIndex supplies the same correlations as Correlations through
	// dense integer indices (a *CorrTable), letting the packer skip two
	// string hashes per probe. Takes precedence over Correlations; values
	// must agree. Ignored when ClusterCorrelation is set.
	CorrIndex placement.CorrIndexer
	// Envelopes, when non-nil, supplies the stochastic planner's body/tail
	// envelope items precomputed over this input's Monitoring set at its
	// body percentile (SizeEnvelope is deterministic, so precomputed items
	// equal inline ones). The planner adopts them only when they cover
	// exactly the monitoring servers in order; other planners ignore them.
	Envelopes []placement.Item
	// PlanOnly tells the dynamic planner to skip the per-interval
	// placement snapshots and leave Plan.Schedule nil — for plan-only
	// cells (sensitivity sweeps) that read Provisioned and the migration
	// counters but never replay the schedule. Counters are unaffected.
	PlanOnly bool
}

func (in *Input) validate() error {
	if in.Monitoring == nil || len(in.Monitoring.Servers) == 0 {
		return errors.New("core: no monitoring data")
	}
	if in.Host.Spec.CPURPE2 <= 0 || in.Host.Spec.MemMB <= 0 {
		return errors.New("core: host model has no capacity")
	}
	if in.Bound < 0 || in.Bound > 1 {
		return fmt.Errorf("core: bound %v outside [0, 1]", in.Bound)
	}
	return nil
}

func (in *Input) bound() float64 {
	if in.Bound == 0 {
		return DefaultBound
	}
	return in.Bound
}

func (in *Input) intervalHours() int {
	if in.IntervalHours == 0 {
		return DefaultIntervalHours
	}
	return in.IntervalHours
}

func (in *Input) bodyPercentile() float64 {
	if in.BodyPercentile == 0 {
		return DefaultBodyPercentile
	}
	return in.BodyPercentile
}

func (in *Input) rackSize() int {
	if in.Host.BladesPerRack > 0 {
		return in.Host.BladesPerRack
	}
	return 14
}

// Plan is a planner's output.
type Plan struct {
	// Planner names the algorithm that produced the plan.
	Planner string
	// Provisioned is how many servers must be owned: for semi-static
	// plans the packed host count, for dynamic plans the maximum number
	// of simultaneously active hosts across all intervals.
	Provisioned int
	// Schedule drives the emulator replay.
	Schedule emulator.Schedule
	// Migrations is the total number of VM moves the dynamic plan
	// performs across the window (zero for semi-static plans).
	Migrations int
	// MigrationDataMB is the memory volume those moves transfer.
	MigrationDataMB float64
}

// Planner produces a consolidation plan from monitored data.
type Planner interface {
	Name() string
	Plan(in Input) (*Plan, error)
}
