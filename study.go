package vmwild

import (
	"vmwild/internal/advisor"
	"vmwild/internal/analysis"
	"vmwild/internal/core"
	"vmwild/internal/experiments"
)

// Study is the high-level entry point: one data center's generated traces
// plus cached planner runs, exposing every experiment of the paper's
// evaluation.
type Study struct {
	ctx *experiments.Context
}

// Option configures a Study.
type Option interface {
	apply(*experiments.Config)
}

type optionFunc func(*experiments.Config)

func (f optionFunc) apply(c *experiments.Config) { f(c) }

// WithSeed fixes the workload generator seed (default DefaultSeed).
func WithSeed(seed int64) Option {
	return optionFunc(func(c *experiments.Config) { c.Seed = seed })
}

// WithHost selects the consolidation target host model (default HS23Elite).
func WithHost(m HostModel) Option {
	return optionFunc(func(c *experiments.Config) { c.Host = m })
}

// WithVirtOverhead sets the hypervisor CPU overhead fraction (default 5%).
func WithVirtOverhead(f float64) Option {
	return optionFunc(func(c *experiments.Config) { c.VirtOverhead = f })
}

// WithDedup sets the memory-deduplication saving fraction (default 0).
func WithDedup(f float64) Option {
	return optionFunc(func(c *experiments.Config) { c.DedupFactor = f })
}

// NewStudy generates the profile's traces under the baseline configuration
// (Table 3) and prepares the monitoring and evaluation horizons.
func NewStudy(p *Profile, opts ...Option) (*Study, error) {
	cfg := experiments.DefaultConfig()
	for _, o := range opts {
		o.apply(&cfg)
	}
	ctx, err := experiments.NewContext(p, cfg)
	if err != nil {
		return nil, err
	}
	return &Study{ctx: ctx}, nil
}

// NewStudyFromTraces builds a study over externally supplied traces — real
// monitoring exports loaded with ReadTraceCSV, or warehouse fetches — split
// into a planning window and a replay window covering the same servers.
// Every experiment method then runs on the real data.
func NewStudyFromTraces(name string, monitoring, evaluation *TraceSet, opts ...Option) (*Study, error) {
	cfg := experiments.DefaultConfig()
	for _, o := range opts {
		o.apply(&cfg)
	}
	ctx, err := experiments.NewContextFromTraces(name, monitoring, evaluation, cfg)
	if err != nil {
		return nil, err
	}
	return &Study{ctx: ctx}, nil
}

// Monitoring returns the 30-day planning window.
func (s *Study) Monitoring() *TraceSet { return s.ctx.Monitoring }

// Evaluation returns the 14-day replay window.
func (s *Study) Evaluation() *TraceSet { return s.ctx.Evaluation }

// Profile returns the study's data-center profile.
func (s *Study) Profile() *Profile { return s.ctx.Profile }

// Input returns a planner input at the baseline settings, ready to be
// customized (bound, constraints, predictors) and passed to a Planner.
func (s *Study) Input() PlanInput { return s.ctx.Input() }

// Plan runs a planner at the baseline settings.
func (s *Study) Plan(p Planner) (*Plan, error) {
	run, err := s.ctx.Run(p)
	if err != nil {
		return nil, err
	}
	return run.Plan, nil
}

// PlanAndReplay runs a planner and replays its schedule, caching by planner
// name.
func (s *Study) PlanAndReplay(p Planner) (*Plan, *ReplayResult, error) {
	run, err := s.ctx.Run(p)
	if err != nil {
		return nil, nil, err
	}
	return run.Plan, run.Result, nil
}

// Experiments (paper artifacts).

// SampleBurstiness reproduces Figure 1: the n burstiest servers' profiles.
func (s *Study) SampleBurstiness(n int) ([]ServerBurstiness, error) {
	return experiments.Fig1Burstiness(s.ctx, n)
}

// PeakToAverageCPU reproduces this workload's Figure 2 panel.
func (s *Study) PeakToAverageCPU() ([]IntervalCurve, error) {
	return experiments.Fig2PeakAvgCPU(s.ctx)
}

// CoVCPU reproduces this workload's Figure 3 curve.
func (s *Study) CoVCPU() (*CDF, error) { return experiments.Fig3CoVCPU(s.ctx) }

// PeakToAverageMem reproduces this workload's Figure 4 panel.
func (s *Study) PeakToAverageMem() ([]IntervalCurve, error) {
	return experiments.Fig4PeakAvgMem(s.ctx)
}

// CoVMem reproduces this workload's Figure 5 curve.
func (s *Study) CoVMem() (*CDF, error) { return experiments.Fig5CoVMem(s.ctx) }

// Seasonality returns the per-server daily and weekly CPU autocorrelation
// distributions — the periodicity the dynamic planner's time-of-day
// predictor and semi-static re-planning both rely on.
func (s *Study) Seasonality() (daily, weekly *CDF, err error) {
	return analysis.SeasonalityCDFs(s.ctx.Monitoring)
}

// ResourceRatio reproduces this workload's Figure 6 panel.
func (s *Study) ResourceRatio() (RatioResult, error) {
	return experiments.Fig6ResourceRatio(s.ctx)
}

// CompareCosts reproduces this workload's Figure 7 bars: space and power
// for the three planners, normalized to vanilla semi-static.
func (s *Study) CompareCosts() ([]CostRow, error) {
	return experiments.Fig7Costs(s.ctx)
}

// Contention reproduces this workload's Figure 8 bars.
func (s *Study) Contention() ([]ContentionRow, error) {
	return experiments.Fig8Contention(s.ctx)
}

// ContentionMagnitude reproduces this workload's Figure 9 line; it returns
// nil when the workload never contends under dynamic consolidation.
func (s *Study) ContentionMagnitude() (*CDF, error) {
	return experiments.Fig9ContentionMagnitude(s.ctx)
}

// Utilization reproduces this workload's Figures 10-11 curves.
func (s *Study) Utilization() ([]UtilizationCurves, error) {
	return experiments.Fig10and11Utilization(s.ctx)
}

// ActiveServers reproduces this workload's Figure 12 distribution.
func (s *Study) ActiveServers() (*CDF, error) {
	return experiments.Fig12ActiveServers(s.ctx)
}

// Sensitivity reproduces this workload's Figure 13-16 panel; nil bounds use
// the paper's sweep 0.70..1.00.
func (s *Study) Sensitivity(bounds []float64) (SensitivityResult, error) {
	return experiments.Sensitivity(s.ctx, bounds)
}

// ExecutionStudy schedules the dynamic plan's migration waves under
// pre-copy and post-copy migration and reports whether they fit the
// consolidation interval (the Section 1.2 adoption question).
func (s *Study) ExecutionStudy() ([]ExecutionRow, error) {
	return experiments.ExecutionStudy(s.ctx)
}

// VerifyEmulator reproduces the Section 5.2 emulator accuracy study on this
// workload.
func (s *Study) VerifyEmulator() ([]VerificationResult, error) {
	return experiments.EmulatorVerification(s.ctx)
}

// Recommend runs the consolidation advisor on the study's monitoring
// window.
func (s *Study) Recommend() (Recommendation, error) {
	return advisor.Advise(s.ctx.Monitoring, advisor.Config{})
}

// OlioStudy reproduces the Section 4.1 Olio scaling micro-study.
func OlioStudy() (OlioResult, error) { return experiments.OlioStudy() }

// MigrationStudy reproduces the Section 4.3 live-migration model study.
func MigrationStudy() ([]MigrationPoint, error) { return experiments.MigrationStudy() }

// Summaries reproduces Table 2 across a list of studies.
func Summaries(studies []*Study) ([]WorkloadSummary, error) {
	ctxs := make([]*experiments.Context, len(studies))
	for i, s := range studies {
		ctxs[i] = s.ctx
	}
	return experiments.Table2(ctxs)
}

// Compile-time checks that the concrete planners satisfy the exported
// Planner interface.
var (
	_ Planner = core.SemiStatic{}
	_ Planner = core.Static{}
	_ Planner = core.Stochastic{}
	_ Planner = core.Dynamic{}
)
