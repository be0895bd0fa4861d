// Package scenario is the end-to-end test wall the paper never had: named,
// seeded, multi-phase simulations ("a flash crowd hits the web tier", "a
// rack loses its top-of-rack switch", "the estate is evacuated for
// maintenance") that drive the real controller/executor/monitor stack and
// grade the outcome against hard checkpoints.
//
// A Scenario is a declarative script: an initial world (workload profile,
// host model, warm-up history) followed by Turns. Each turn first mutates
// the world — scales demand, drains hosts, injects correlated faults, swaps
// the hardware generation — and then lets the consolidation loop run for a
// fixed number of intervals while the harness collects per-turn Metrics
// (SLO violations, migrations spent against the turn's budget, degraded
// moves, recovery time). Checkpoints are pass/fail assertions evaluated
// after their turn; a failed checkpoint fails the scenario.
//
// Everything a scenario does is a pure function of its seed: the workload,
// the fault draws, the controller's decisions and the resulting metric
// stream are bitwise-reproducible, which the replay wall
// (TestReplayWall) enforces by running every scenario twice and diffing
// the metrics JSONL byte for byte.
package scenario

import (
	"errors"
	"fmt"
	"io"
	"time"

	"vmwild/internal/catalog"
	"vmwild/internal/fault"
	"vmwild/internal/wal"
	"vmwild/internal/workload"
)

// Action mutates the world at the start of a turn: scale demand, drain
// hosts, change the fault model, swap hardware. Actions must be
// deterministic functions of the world state — the replay wall re-runs
// them and expects identical outcomes.
type Action func(w *World) error

// Turn is one phase of a scenario: an optional world mutation followed by
// a fixed number of consolidation intervals.
type Turn struct {
	// Name labels the turn in metrics and checkpoints. Unique per
	// scenario.
	Name string
	// Intervals is how many consolidation intervals the loop runs after
	// the action (at least 1).
	Intervals int
	// Action mutates the world before the first interval (nil for a
	// pure observation turn).
	Action Action
	// MoveBudget caps the migration attempts the turn is expected to
	// spend; exceeding it sets TurnMetrics.BudgetOverrun (0 = unbudgeted).
	MoveBudget int
}

// Check is the state a checkpoint assertion sees: the world after the
// checkpoint's turn, that turn's metrics, and every turn finished so far.
type Check struct {
	// World is the live world; checkpoints may inspect the placement,
	// the trace set or the warehouse, but must not mutate them.
	World *World
	// Turn is the metrics of the turn the checkpoint follows.
	Turn TurnMetrics
	// History holds the metrics of every finished turn, oldest first
	// (Turn is the last element).
	History []TurnMetrics
}

// TurnNamed returns the metrics of an earlier turn by name.
func (c *Check) TurnNamed(name string) (TurnMetrics, bool) {
	for _, tm := range c.History {
		if tm.Turn == name {
			return tm, true
		}
	}
	return TurnMetrics{}, false
}

// Checkpoint is a hard pass/fail assertion evaluated after a named turn.
type Checkpoint struct {
	// Name labels the checkpoint in results.
	Name string
	// Turn names the turn the checkpoint runs after; empty means after
	// the scenario's last turn.
	Turn string
	// Assert returns nil to pass or an error describing the violation.
	Assert func(c *Check) error
}

// SoakConfig routes a scenario through the durable stack: monitoring
// samples are ingested into a WAL-backed warehouse (the controller fetches
// from it instead of reading the trace directly) and every interval is
// journaled through the controller WAL — the configuration the crash wall
// kills and resumes.
type SoakConfig struct {
	// SamplesPerHour is the per-server monitoring density (default 4).
	SamplesPerHour int
	// CheckpointEvery is the floor of the warehouse WAL checkpoint
	// cadence in samples (default 2048); lanes checkpoint in proportion
	// to their shard size above it.
	CheckpointEvery int
	// Sync is the fsync policy for both WAL lanes. The zero value maps
	// to SyncNever — scenarios simulate crashes above the filesystem,
	// and per-sample fsyncs would dominate the runtime (the crash wall
	// overrides the journal's policy through its own hook).
	Sync wal.SyncPolicy
}

func (c *SoakConfig) syncPolicy() wal.SyncPolicy {
	if c.Sync == wal.SyncPolicy(0) {
		return wal.SyncNever
	}
	return c.Sync
}

func (c *SoakConfig) samplesPerHour() int {
	if c.SamplesPerHour <= 0 {
		return 4
	}
	return c.SamplesPerHour
}

func (c *SoakConfig) checkpointEvery() int {
	if c.CheckpointEvery <= 0 {
		return 2048
	}
	return c.CheckpointEvery
}

// Scenario is a named, seeded end-to-end simulation.
type Scenario struct {
	// ID is the stable machine name (kebab-case, CLI-addressable).
	ID string
	// Name is the human title.
	Name string
	// Description says what shape the scenario exercises and why.
	Description string
	// Seed roots every random choice; Options.Seed overrides it.
	Seed int64
	// Profile is the workload the estate runs (its Servers field is the
	// estate size).
	Profile *workload.Profile
	// Host is the consolidation target hardware.
	Host catalog.Model
	// StartHours is the monitored history before the first turn (must
	// cover the predictor's warm-up; 168+ hours).
	StartHours int
	// StepHours is the consolidation interval (default 2).
	StepHours int
	// Fault is the initial fault model; the harness re-derives the
	// injector seed per interval so retries across intervals draw fresh.
	Fault fault.Config
	// Soak, when set, routes the scenario through the durable
	// warehouse+journal stack.
	Soak *SoakConfig
	// Turns runs in order.
	Turns []Turn
	// Checkpoints grade the run.
	Checkpoints []Checkpoint
}

func (s *Scenario) step() int {
	if s.StepHours <= 0 {
		return 2
	}
	return s.StepHours
}

// TotalIntervals is the number of consolidation intervals across all turns.
func (s *Scenario) TotalIntervals() int {
	n := 0
	for _, t := range s.Turns {
		n += t.Intervals
	}
	return n
}

// Hours is the trace length the scenario needs: warm-up plus every
// interval it will drive.
func (s *Scenario) Hours() int {
	return s.StartHours + s.TotalIntervals()*s.step()
}

func (s *Scenario) validate() error {
	if s == nil {
		return errors.New("scenario: nil scenario")
	}
	if s.ID == "" {
		return errors.New("scenario: empty ID")
	}
	if s.Profile == nil {
		return fmt.Errorf("scenario %s: no workload profile", s.ID)
	}
	if s.Host.Spec.CPURPE2 <= 0 || s.Host.Spec.MemMB <= 0 {
		return fmt.Errorf("scenario %s: host model has no capacity", s.ID)
	}
	if s.StartHours < 168 {
		return fmt.Errorf("scenario %s: StartHours %d below the 168h predictor warm-up", s.ID, s.StartHours)
	}
	if len(s.Turns) == 0 {
		return fmt.Errorf("scenario %s: no turns", s.ID)
	}
	names := make(map[string]bool, len(s.Turns))
	for i, t := range s.Turns {
		if t.Name == "" {
			return fmt.Errorf("scenario %s: turn %d has no name", s.ID, i)
		}
		if names[t.Name] {
			return fmt.Errorf("scenario %s: duplicate turn %q", s.ID, t.Name)
		}
		names[t.Name] = true
		if t.Intervals < 1 {
			return fmt.Errorf("scenario %s: turn %q has %d intervals", s.ID, t.Name, t.Intervals)
		}
	}
	for i, cp := range s.Checkpoints {
		if cp.Name == "" {
			return fmt.Errorf("scenario %s: checkpoint %d has no name", s.ID, i)
		}
		if cp.Assert == nil {
			return fmt.Errorf("scenario %s: checkpoint %q has no assertion", s.ID, cp.Name)
		}
		if cp.Turn != "" && !names[cp.Turn] {
			return fmt.Errorf("scenario %s: checkpoint %q references unknown turn %q", s.ID, cp.Name, cp.Turn)
		}
	}
	return nil
}

// IntervalMetrics is one consolidation interval as the harness observed it.
type IntervalMetrics struct {
	// Interval is the global 0-based interval index.
	Interval int
	// Turn names the turn the interval belongs to.
	Turn string
	// HistoryHours is the monitored history the decision used.
	HistoryHours int
	// PlannedMoves is what the adapter ordered; Attempted/Completed/
	// Aborted/FailedAttempts/StalledAttempts are what execution made of
	// it under the fault model.
	PlannedMoves    int
	Attempted       int
	Completed       int
	Aborted         int
	FailedAttempts  int
	StalledAttempts int
	// Degraded reports that at least one move was abandoned.
	Degraded bool
	// Feasible reports that the migration waves fit inside the interval.
	Feasible bool
	// OverloadedHosts is how many hosts the interval opened with above
	// usable capacity (before repair).
	OverloadedHosts int
	// ActiveHosts is the powered-on host count after the interval.
	ActiveHosts int
	// MigrationDataMB is the memory volume the planned moves transfer.
	MigrationDataMB float64
	// ExecMillis is the simulated wall-clock of the migration waves.
	ExecMillis int64
	// SLOViolations counts host-hours with unmet demand when the
	// realized placement is replayed against the actual traces of the
	// interval; ContentionHours counts distinct hours with at least one.
	SLOViolations   int
	ContentionHours int
	// PlanLatency is the real wall-clock the control decision took. It
	// is observability only: it goes to the timing sink, never to the
	// deterministic metrics stream.
	PlanLatency time.Duration `json:"-"`
}

// clean reports an interval in which the estate actually served its
// demand: the SLO replay found no contention and no migration was
// abandoned. Pre-repair overload predictions are deliberately excluded —
// they are the planner's internal signal (repair exists to act on them
// before they materialize) and with a 0.8 bound over noisy demand some
// host trips it most intervals; the replay is the ground truth.
func (m IntervalMetrics) clean() bool {
	return m.Aborted == 0 && m.SLOViolations == 0
}

// TurnMetrics aggregates one turn.
type TurnMetrics struct {
	Turn string
	// Intervals is how many intervals the turn actually drove (fewer
	// than declared only when resuming from a journal skips some).
	Intervals           int
	PlannedMoves        int
	Attempted           int
	Completed           int
	Aborted             int
	FailedAttempts      int
	StalledAttempts     int
	DegradedIntervals   int
	InfeasibleIntervals int
	// OverloadedHostIntervals sums per-interval capacity violations.
	OverloadedHostIntervals int
	SLOViolations           int
	ContentionHours         int
	MigrationDataMB         float64
	ExecMillis              int64
	// MoveBudget echoes the turn's budget; BudgetOverrun reports that
	// attempted migrations exceeded it.
	MoveBudget    int
	BudgetOverrun bool
	// RecoveryIntervals is the 1-based index of the turn's first clean
	// interval (no overloads, no aborts, no SLO violations) — the
	// recovery time after the turn's disruption. -1 when the turn never
	// came clean.
	RecoveryIntervals int
	// FinalClean reports whether the turn's last interval was clean.
	FinalClean bool
	// ActiveHosts is the estate size after the turn's last interval.
	ActiveHosts int
	// PlanLatency is the total wall-clock of the turn's control
	// decisions (timing sink only, see IntervalMetrics.PlanLatency).
	PlanLatency time.Duration `json:"-"`
}

// CheckpointResult is one graded assertion.
type CheckpointResult struct {
	Name   string
	Turn   string
	Passed bool
	// Detail is the assertion error on failure.
	Detail string
}

// Result is a finished scenario run.
type Result struct {
	ID      string
	Seed    int64
	Servers int
	// Recovered is how many already-committed intervals a journaled
	// (soak) run skipped on resume; 0 on a fresh run.
	Recovered   int
	Turns       []TurnMetrics
	Checkpoints []CheckpointResult
	// Passed reports that every checkpoint passed.
	Passed bool
}

// Failed returns the checkpoints that did not pass.
func (r *Result) Failed() []CheckpointResult {
	var out []CheckpointResult
	for _, cp := range r.Checkpoints {
		if !cp.Passed {
			out = append(out, cp)
		}
	}
	return out
}

// Checkpoint returns a checkpoint result by name.
func (r *Result) Checkpoint(name string) (CheckpointResult, bool) {
	for _, cp := range r.Checkpoints {
		if cp.Name == name {
			return cp, true
		}
	}
	return CheckpointResult{}, false
}

// TurnNamed returns a turn's metrics by name.
func (r *Result) TurnNamed(name string) (TurnMetrics, bool) {
	for _, tm := range r.Turns {
		if tm.Turn == name {
			return tm, true
		}
	}
	return TurnMetrics{}, false
}

// Options tunes one run without touching the scenario definition.
type Options struct {
	// Seed overrides the scenario's seed (0 keeps it).
	Seed int64
	// Metrics receives the deterministic JSONL metric stream — one
	// record per interval, turn, checkpoint and summary. Byte-identical
	// across runs from the same seed; nil discards it.
	Metrics io.Writer
	// Timing receives the wall-clock JSONL stream (plan latency per
	// interval). Nondeterministic by nature, excluded from the replay
	// wall; nil discards it.
	Timing io.Writer
	// StateDir is where a soak scenario keeps its WALs. Empty uses a
	// fresh temporary directory (removed after the run); pointing two
	// runs at the same directory makes the second resume from the
	// first's journal.
	StateDir string

	// journalOpts overrides the controller journal's WAL options — the
	// crash wall's hook for sync policy and crash switches.
	journalOpts *wal.Options
	// afterInterval and afterTurn are test hooks observing the live
	// world between intervals/turns.
	afterInterval func(w *World, m IntervalMetrics)
	afterTurn     func(w *World, m TurnMetrics)
}
