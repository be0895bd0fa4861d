// Package experiments reproduces every table and figure of the paper's
// evaluation: the workload studies of Section 4 (Figures 1-6, Table 2), the
// migration and Olio micro-studies, the emulator verification, and the
// planner comparison of Section 5 (Figures 7-16, Table 3). Each experiment
// is a function from a workload Context to a structured result; the cmd
// tools and the benchmark harness render them.
package experiments

import (
	"errors"
	"fmt"
	"sync"

	"vmwild/internal/catalog"
	"vmwild/internal/core"
	"vmwild/internal/emulator"
	"vmwild/internal/placement"
	"vmwild/internal/power"
	"vmwild/internal/trace"
	"vmwild/internal/workload"
)

// Config fixes the experimental conditions shared by all experiments.
type Config struct {
	// Seed drives the synthetic workload generator.
	Seed int64
	// Host is the consolidation target host model.
	Host catalog.Model
	// VirtOverhead is the hypervisor CPU overhead fraction.
	VirtOverhead float64
	// DedupFactor is the memory deduplication saving fraction.
	DedupFactor float64
}

// DefaultConfig returns the paper's baseline conditions (Table 3).
func DefaultConfig() Config {
	return Config{
		Seed:         workload.DefaultSeed,
		Host:         catalog.HS23Elite,
		VirtOverhead: 0.05,
	}
}

// Context holds one data center's generated traces, split into the
// monitoring and evaluation horizons, plus a cache of planner runs. The run
// cache is concurrency-safe: grid cells sharing a context compute each
// planner's baseline run exactly once, with concurrent callers blocking on
// the first computation instead of repeating it.
type Context struct {
	Config     Config
	Profile    *workload.Profile
	Monitoring *trace.Set
	Evaluation *trace.Set

	mu      sync.Mutex
	runs    map[string]*runEntry
	demands map[string]*demandEntry
	corrs   map[int]*corrEntry
	envs    map[float64]*envEntry
	hists   histEntry
}

// runEntry is one memoized planner run; once guards the single computation.
type runEntry struct {
	once sync.Once
	run  *Run
	err  error
}

// demandEntry is one memoized demand matrix; once guards the single
// computation, exactly like runEntry.
type demandEntry struct {
	once sync.Once
	m    *core.DemandMatrix
	err  error
}

// histEntry memoizes the context's concatenated demand histories — one per
// context, since they depend only on the two trace sets.
type histEntry struct {
	once sync.Once
	h    *core.DemandHistories
	err  error
}

// corrEntry is one memoized shared-correlation table, keyed by interval
// length.
type corrEntry struct {
	once sync.Once
	t    *core.CorrTable
	err  error
}

// envEntry is one memoized stochastic envelope slice, keyed by body
// percentile.
type envEntry struct {
	once  sync.Once
	items []placement.Item
	err   error
}

// Run is a planner execution: the plan plus the emulator replay of its
// schedule over the evaluation window.
type Run struct {
	Plan   *core.Plan
	Result *emulator.Result
}

// NewContext generates the profile's traces and prepares the two horizons.
func NewContext(p *workload.Profile, cfg Config) (*Context, error) {
	if p == nil {
		return nil, errors.New("experiments: nil profile")
	}
	set, err := workload.Generate(p, workload.HorizonHours, cfg.Seed)
	if err != nil {
		return nil, fmt.Errorf("experiments: generate %s: %w", p.Name, err)
	}
	mon, err := set.SliceAll(0, workload.MonitoringHours)
	if err != nil {
		return nil, err
	}
	eval, err := set.SliceAll(workload.MonitoringHours, workload.HorizonHours)
	if err != nil {
		return nil, err
	}
	return &Context{
		Config:     cfg,
		Profile:    p,
		Monitoring: mon,
		Evaluation: eval,
		runs:       make(map[string]*runEntry),
	}, nil
}

// NewContextFromTraces builds a context over externally supplied traces
// (for example loaded from a warehouse or a CSV export) instead of
// generating synthetic ones. Monitoring and evaluation must cover the same
// servers in the same order; the planner comparison replays the whole
// evaluation window, whatever its length.
func NewContextFromTraces(name string, mon, eval *trace.Set, cfg Config) (*Context, error) {
	if mon == nil || eval == nil {
		return nil, errors.New("experiments: nil trace sets")
	}
	if err := mon.Validate(); err != nil {
		return nil, fmt.Errorf("experiments: monitoring set: %w", err)
	}
	if err := eval.Validate(); err != nil {
		return nil, fmt.Errorf("experiments: evaluation set: %w", err)
	}
	if len(mon.Servers) != len(eval.Servers) {
		return nil, fmt.Errorf("experiments: monitoring has %d servers, evaluation %d", len(mon.Servers), len(eval.Servers))
	}
	for i := range mon.Servers {
		if mon.Servers[i].ID != eval.Servers[i].ID {
			return nil, fmt.Errorf("experiments: server order mismatch at %d", i)
		}
	}
	profile := &workload.Profile{Name: name, Industry: "external", Servers: len(mon.Servers)}
	return &Context{
		Config:     cfg,
		Profile:    profile,
		Monitoring: mon,
		Evaluation: eval,
		runs:       make(map[string]*runEntry),
	}, nil
}

// Contexts prepares all four study data centers (Table 2 order).
func Contexts(cfg Config) ([]*Context, error) {
	profiles := workload.Profiles()
	out := make([]*Context, 0, len(profiles))
	for _, p := range profiles {
		c, err := NewContext(p, cfg)
		if err != nil {
			return nil, err
		}
		out = append(out, c)
	}
	return out, nil
}

// ContextCache memoizes per-datacenter Contexts behind a concurrency-safe
// once-cache. Trace generation is the grid's most expensive shared artifact;
// the cache guarantees each datacenter is generated exactly once no matter
// how many parallel cells ask for it, with later callers blocking on the
// first build.
type ContextCache struct {
	cfg     Config
	mu      sync.Mutex
	entries map[string]*contextEntry
}

// contextEntry is one memoized datacenter build.
type contextEntry struct {
	once sync.Once
	c    *Context
	err  error
}

// NewContextCache creates an empty cache at the given configuration.
func NewContextCache(cfg Config) *ContextCache {
	return &ContextCache{cfg: cfg, entries: make(map[string]*contextEntry)}
}

// Get returns the profile's context, building it on first use.
func (cc *ContextCache) Get(p *workload.Profile) (*Context, error) {
	if p == nil {
		return nil, errors.New("experiments: nil profile")
	}
	cc.mu.Lock()
	e, ok := cc.entries[p.Name]
	if !ok {
		e = &contextEntry{}
		cc.entries[p.Name] = e
	}
	cc.mu.Unlock()
	e.once.Do(func() { e.c, e.err = NewContext(p, cc.cfg) })
	return e.c, e.err
}

// EmulatorConfig returns the replay configuration for this context.
func (c *Context) EmulatorConfig() emulator.Config {
	return emulator.Config{
		HostSpec:     c.Config.Host.Spec,
		Power:        power.HostModel{IdleWatts: c.Config.Host.IdleWatts, PeakWatts: c.Config.Host.PeakWatts},
		VirtOverhead: c.Config.VirtOverhead,
		DedupFactor:  c.Config.DedupFactor,
	}
}

// Input assembles the planner input at the baseline settings. Memory
// deduplication raises the host's effective memory capacity for packing —
// the emulator discounts VM memory by the same factor, so the two views
// agree (the paper's emulator "captures ... memory savings due to
// deduplication in a configurable fashion").
func (c *Context) Input() core.Input {
	host := c.Config.Host
	if c.Config.DedupFactor > 0 && c.Config.DedupFactor < 1 {
		host.Spec.MemMB /= 1 - c.Config.DedupFactor
	}
	return core.Input{Monitoring: c.Monitoring, Evaluation: c.Evaluation, Host: host}
}

// Run plans with the given planner at the baseline settings and replays the
// schedule, caching by planner name. Safe for concurrent use: the first
// caller computes, later callers (and concurrent ones) share the result.
func (c *Context) Run(planner core.Planner) (*Run, error) {
	c.mu.Lock()
	e, ok := c.runs[planner.Name()]
	if !ok {
		e = &runEntry{}
		c.runs[planner.Name()] = e
	}
	c.mu.Unlock()
	e.once.Do(func() { e.run, e.err = c.RunWith(planner, c.Input()) })
	return e.run, e.err
}

// SizedDemands returns the dynamic planner's walk-forward demand matrix for
// the input's predictors, interval and sizing mode, computed at most once
// per distinct key and shared across every grid cell of this context. Safe
// for concurrent use: the first caller computes, concurrent callers block
// on that computation (the runEntry pattern).
//
// The matrix depends only on the traces, predictors and interval — never on
// Bound, Host or Constraints — so the sensitivity sweep's 7 bounds, the
// blade study's 3 host models and the improved-migration study all share
// one prediction pass per data center.
func (c *Context) SizedDemands(in core.Input) (*core.DemandMatrix, error) {
	key := core.DemandKey(in)
	c.mu.Lock()
	if c.demands == nil {
		c.demands = make(map[string]*demandEntry)
	}
	e, ok := c.demands[key]
	if !ok {
		e = &demandEntry{}
		c.demands[key] = e
	}
	c.mu.Unlock()
	e.once.Do(func() {
		if in.Histories == nil && in.Monitoring == c.Monitoring && in.Evaluation == c.Evaluation {
			in.Histories = c.demandHistories()
		}
		e.m, e.err = core.SizeDynamicDemands(in)
	})
	return e.m, e.err
}

// demandHistories returns the context-wide demand histories, built at most
// once and shared by every demand-matrix computation; nil when the build
// fails (SizeDynamicDemands then rebuilds inline and surfaces the error).
func (c *Context) demandHistories() *core.DemandHistories {
	c.hists.once.Do(func() {
		c.hists.h, c.hists.err = core.BuildDemandHistories(c.Monitoring, c.Evaluation)
	})
	if c.hists.err != nil {
		return nil
	}
	return c.hists.h
}

// withDemands attaches the shared demand matrix to a dynamic-planner input
// that plans over this context's own trace sets. Inputs over other traces,
// or carrying their own matrix, are returned unchanged and the planner
// computes its predictions inline.
func (c *Context) withDemands(in core.Input) core.Input {
	if in.Demands != nil || in.Monitoring != c.Monitoring || in.Evaluation != c.Evaluation {
		return in
	}
	m, err := c.SizedDemands(in)
	if err != nil {
		// Let the planner surface the identical error from its inline
		// computation.
		return in
	}
	in.Demands = m
	return in
}

// CorrTable returns the stochastic planner's interval-peak correlation
// table over this context's monitoring set, built at most once per interval
// length. The memo cache inside survives across plans, so the blade study's
// three host models and the ablations probe each VM pair at most once per
// data center.
func (c *Context) CorrTable(intervalHours int) (*core.CorrTable, error) {
	c.mu.Lock()
	if c.corrs == nil {
		c.corrs = make(map[int]*corrEntry)
	}
	e, ok := c.corrs[intervalHours]
	if !ok {
		e = &corrEntry{}
		c.corrs[intervalHours] = e
	}
	c.mu.Unlock()
	e.once.Do(func() { e.t, e.err = core.NewCorrTable(c.Monitoring, intervalHours) })
	return e.t, e.err
}

// SizedEnvelopes returns the stochastic planner's body/tail envelope items
// over this context's monitoring set at the given body percentile, computed
// at most once per percentile. SizeEnvelope is deterministic, so shared
// envelopes equal inline ones; cells must treat the slice as read-only.
func (c *Context) SizedEnvelopes(percentile float64) ([]placement.Item, error) {
	c.mu.Lock()
	if c.envs == nil {
		c.envs = make(map[float64]*envEntry)
	}
	e, ok := c.envs[percentile]
	if !ok {
		e = &envEntry{}
		c.envs[percentile] = e
	}
	c.mu.Unlock()
	e.once.Do(func() { e.items, e.err = core.SizeEnvelopes(c.Monitoring, percentile) })
	return e.items, e.err
}

// withCorrelations attaches the shared correlation table and envelope items
// to a stochastic-planner input that plans over this context's own
// monitoring set. Inputs over other traces are returned unchanged and the
// planner builds both inline.
func (c *Context) withCorrelations(in core.Input) core.Input {
	if in.Monitoring != c.Monitoring {
		return in
	}
	if in.CorrIndex == nil && !in.ClusterCorrelation {
		hours := in.IntervalHours
		if hours == 0 {
			hours = core.DefaultIntervalHours
		}
		if t, err := c.CorrTable(hours); err == nil {
			in.CorrIndex = t
		}
		// On error, let the planner surface the identical error from
		// its inline construction.
	}
	if in.Envelopes == nil {
		pct := in.BodyPercentile
		if pct == 0 {
			pct = core.DefaultBodyPercentile
		}
		if items, err := c.SizedEnvelopes(pct); err == nil {
			in.Envelopes = items
		}
	}
	return in
}

// PlanDynamic plans with the dynamic planner against explicit input,
// routing the Predict + Size steps through the shared demand cache. The
// sensitivity and mechanism studies use it for plan-only cells that never
// replay, so the returned plan carries counters only — Schedule is nil.
func (c *Context) PlanDynamic(in core.Input) (*core.Plan, error) {
	in.PlanOnly = true
	return core.Dynamic{}.Plan(c.withDemands(in))
}

// RunWith plans with explicit input (for sensitivity sweeps) and replays
// the schedule; results are not cached. Dynamic-planner inputs are routed
// through the shared demand cache.
func (c *Context) RunWith(planner core.Planner, in core.Input) (*Run, error) {
	switch planner.(type) {
	case core.Dynamic:
		in = c.withDemands(in)
	case core.Stochastic:
		in = c.withCorrelations(in)
	}
	plan, err := planner.Plan(in)
	if err != nil {
		return nil, fmt.Errorf("experiments: %s plan %s: %w", c.Profile.Name, planner.Name(), err)
	}
	res, err := emulator.Run(c.Evaluation, plan.Schedule, c.Evaluation.Servers[0].Series.Len(), c.EmulatorConfig())
	if err != nil {
		return nil, fmt.Errorf("experiments: %s replay %s: %w", c.Profile.Name, planner.Name(), err)
	}
	return &Run{Plan: plan, Result: res}, nil
}

// Planners returns the three compared planners in the paper's order
// (Section 5.1).
func Planners() []core.Planner {
	return []core.Planner{core.SemiStatic{}, core.Stochastic{}, core.Dynamic{}}
}
