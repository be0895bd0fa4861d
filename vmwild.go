package vmwild

import (
	"context"
	"io"
	"time"

	"vmwild/internal/advisor"
	"vmwild/internal/analysis"
	"vmwild/internal/catalog"
	"vmwild/internal/chaos"
	"vmwild/internal/constraints"
	"vmwild/internal/controller"
	"vmwild/internal/core"
	"vmwild/internal/emulator"
	"vmwild/internal/executor"
	"vmwild/internal/experiments"
	"vmwild/internal/fault"
	"vmwild/internal/fsx"
	"vmwild/internal/migration"
	"vmwild/internal/monitor"
	"vmwild/internal/placement"
	"vmwild/internal/scenario"
	"vmwild/internal/stats"
	"vmwild/internal/sweep"
	"vmwild/internal/trace"
	"vmwild/internal/traceio"
	"vmwild/internal/wal"
	"vmwild/internal/workload"
)

// Horizon constants (Table 3 of the paper).
const (
	// DefaultSeed makes every experiment reproducible; it is the
	// Middleware '14 conference date.
	DefaultSeed = workload.DefaultSeed
	// MonitoringHours is the planning window: 30 days of hourly data.
	MonitoringHours = workload.MonitoringHours
	// EvaluationHours is the replay window: 14 days.
	EvaluationHours = workload.EvaluationHours
	// HorizonHours is the full generated horizon.
	HorizonHours = workload.HorizonHours
	// DefaultIntervalHours is the dynamic consolidation interval.
	DefaultIntervalHours = core.DefaultIntervalHours
	// DefaultReservation is the live-migration resource reservation.
	DefaultReservation = migration.DefaultReservation
)

// Core data types, re-exported from the implementation packages.
type (
	// Usage is one demand sample (CPU in RPE2 units, memory in MB).
	Usage = trace.Usage
	// Series is a fixed-step demand time series.
	Series = trace.Series
	// Spec is a machine's capacity.
	Spec = trace.Spec
	// ServerID names a monitored server.
	ServerID = trace.ServerID
	// ServerTrace binds a server's identity, capacity and history.
	ServerTrace = trace.ServerTrace
	// TraceSet is one data center's monitored servers.
	TraceSet = trace.Set
	// Profile describes a data center's workload composition.
	Profile = workload.Profile
	// HostModel is a hardware model (capacity, power, rack density).
	HostModel = catalog.Model
	// Planner produces consolidation plans.
	Planner = core.Planner
	// Plan is a planner's output.
	Plan = core.Plan
	// PlanInput is the planner input.
	PlanInput = core.Input
	// DemandMatrix is the dynamic planner's walk-forward sizing, fully
	// materialized for sharing across plans (see SizeDynamicDemands).
	DemandMatrix = core.DemandMatrix
	// CorrFunc is a pairwise demand-correlation function consumed by the
	// stochastic packer.
	CorrFunc = placement.CorrFunc
	// ReplayResult is the emulator's replay outcome.
	ReplayResult = emulator.Result
	// Placement is a mutable assignment of VMs to hosts.
	Placement = placement.Placement
	// CDF is an empirical distribution.
	CDF = stats.CDF
	// ServerBurstiness summarizes one server's demand variability.
	ServerBurstiness = analysis.ServerBurstiness

	// Experiment result types (one per paper artifact).
	CostRow            = experiments.CostRow
	ContentionRow      = experiments.ContentionRow
	UtilizationCurves  = experiments.UtilizationCurves
	SensitivityResult  = experiments.SensitivityResult
	IntervalCurve      = experiments.IntervalCurve
	RatioResult        = experiments.RatioResult
	WorkloadSummary    = experiments.WorkloadSummary
	OlioResult         = experiments.OlioResult
	MigrationPoint     = experiments.MigrationPoint
	VerificationResult = experiments.VerificationResult
	IntervalPoint      = experiments.IntervalPoint
	PredictorPoint     = experiments.PredictorPoint
	MechanismRow       = experiments.MechanismRow
	ExecutionRow       = experiments.ExecutionRow
	BladeRow           = experiments.BladeRow
	FailureRow         = experiments.FailureRow
)

// The four study data centers (Table 2).
func Banking() *Profile          { return workload.Banking() }
func Airlines() *Profile         { return workload.Airlines() }
func NaturalResources() *Profile { return workload.NaturalResources() }
func Beverage() *Profile         { return workload.Beverage() }

// Profiles returns all four study profiles in Table 2 order.
func Profiles() []*Profile { return workload.Profiles() }

// HS23Elite is the reference consolidation target blade (2 sockets, 128 GB,
// 160 RPE2/GB).
func HS23Elite() HostModel { return catalog.HS23Elite }

// HS23Standard is the same blade without the memory extension (64 GB,
// 320 RPE2/GB) — the Observation 3 contrast.
func HS23Standard() HostModel { return catalog.HS23Standard }

// Generate synthesizes hourly demand traces for a profile. The same
// (profile, hours, seed) triple always produces identical traces.
func Generate(p *Profile, hours int, seed int64) (*TraceSet, error) {
	return workload.Generate(p, hours, seed)
}

// ProfileTemplate describes a custom estate in engagement-level terms.
type ProfileTemplate = workload.Template

// ProfileFromTemplate expands a template into a full workload profile.
func ProfileFromTemplate(t ProfileTemplate) (*Profile, error) { return workload.FromTemplate(t) }

// WriteProfileJSON serializes a workload profile (custom estates as data).
func WriteProfileJSON(w io.Writer, p *Profile) error { return workload.WriteProfileJSON(w, p) }

// ReadProfileJSON loads a workload profile, resolving hardware models
// against the default catalog.
func ReadProfileJSON(r io.Reader) (*Profile, error) {
	return workload.ReadProfileJSON(r, catalog.Default())
}

// WriteTraceCSV persists a trace set as CSV (the cmd/tracegen layout); use
// it to exchange traces with external tools.
func WriteTraceCSV(w io.Writer, set *TraceSet) error { return traceio.Write(w, set) }

// ReadTraceCSV loads a trace set from CSV in the same layout — the entry
// point for running the planners on real monitoring exports.
func ReadTraceCSV(r io.Reader, name string) (*TraceSet, error) { return traceio.Read(r, name) }

// Planners.

// SemiStatic returns the vanilla semi-static planner (peak sizing + FFD).
func SemiStatic() Planner { return core.SemiStatic{} }

// Static returns the classical one-time consolidation planner.
func Static() Planner { return core.Static{} }

// Stochastic returns the correlation-aware PCP-style planner.
func Stochastic() Planner { return core.Stochastic{} }

// Dynamic returns the dynamic consolidation planner (2-hour intervals, live
// migration with a 20% reservation).
func Dynamic() Planner { return core.Dynamic{} }

// SizeDynamicDemands precomputes the dynamic planner's Predict + Size walk:
// the per-interval reservation of every server across the evaluation
// window. Attach the result via PlanInput.Demands to let many dynamic plans
// over the same traces (different bounds, host models, constraints) share
// one prediction pass — planning output is identical either way.
func SizeDynamicDemands(in PlanInput) (*DemandMatrix, error) {
	return core.SizeDynamicDemands(in)
}

// NewSharedCorrelation precomputes the stochastic planner's interval-peak
// correlation function over a monitoring set, with a memo that is safe to
// share across concurrent plans. Attach it via PlanInput.Correlations.
func NewSharedCorrelation(set *TraceSet, intervalHours int) (CorrFunc, error) {
	return core.NewSharedCorrelation(set, intervalHours)
}

// Deployment constraints (Section 2.2.4 of the paper).
type (
	// Constraint vetoes candidate VM-to-host assignments.
	Constraint = constraints.Constraint
	// ConstraintSet is an ordered set of constraints, all of which must
	// permit an assignment.
	ConstraintSet = constraints.Set
)

// SameHost binds the given VMs to one physical host.
func SameHost(vms ...ServerID) Constraint { return constraints.SameHost{Group: vms} }

// AntiAffinity forbids any two of the given VMs from sharing a host.
func AntiAffinity(vms ...ServerID) Constraint { return constraints.AntiAffinity{Group: vms} }

// PinHost pins one VM to one host.
func PinHost(vm ServerID, host string) Constraint {
	return constraints.PinHost{VM: vm, Host: host}
}

// AvoidHost excludes one VM from one host.
func AvoidHost(vm ServerID, host string) Constraint {
	return constraints.AvoidHost{VM: vm, Host: host}
}

// SameRack binds the given VMs to one rack (the paper's subnet affinity).
func SameRack(vms ...ServerID) Constraint { return constraints.SameRack{Group: vms} }

// Live migration model (Section 4.3 of the paper).
type (
	// MigrationConfig parameterizes the pre-copy model.
	MigrationConfig = migration.Config
	// MigrationResult is one simulated migration's outcome.
	MigrationResult = migration.Result
	// MigrationCost is a planner-facing migration cost estimate.
	MigrationCost = migration.Cost
)

// DefaultMigrationConfig returns the pre-copy model calibrated to published
// gigabit-Ethernet measurements.
func DefaultMigrationConfig() MigrationConfig { return migration.DefaultConfig() }

// SimulateMigration runs the iterative pre-copy model for a VM with the
// given active memory (MB) and page dirty rate (MB/s).
func SimulateMigration(memMB, dirtyMBps float64, cfg MigrationConfig) (MigrationResult, error) {
	return migration.Simulate(memMB, dirtyMBps, cfg)
}

// MigrationReliable reports whether a host at the given CPU and memory
// utilization can run live migrations dependably (CPU < 80%, memory < 85%).
func MigrationReliable(cpuUtil, memUtil float64) bool {
	return migration.Reliable(cpuUtil, memUtil)
}

// EstimateMigrationCost predicts the transfer volume and duration of
// migrating a VM with the given active memory and CPU activity.
func EstimateMigrationCost(memMB, cpuUtil float64, cfg MigrationConfig) (MigrationCost, error) {
	return migration.EstimateCost(memMB, cpuUtil, cfg)
}

// Consolidation advisor (the paper's Section 8 conclusion: analyze before
// consolidating).
type (
	// Recommendation is the advisor's output: a mode plus the measured
	// workload attributes and the reasoning.
	Recommendation = advisor.Recommendation
	// AdvisorConfig tunes the advisor's decision thresholds.
	AdvisorConfig = advisor.Config
	// WorkloadAttributes are the advisor's decision inputs.
	WorkloadAttributes = advisor.Attributes
	// Mode is a recommended consolidation mode.
	Mode = advisor.Mode
)

// Recommendation modes.
const (
	ModeSemiStatic = advisor.ModeSemiStatic
	ModeStochastic = advisor.ModeStochastic
	ModeDynamic    = advisor.ModeDynamic
)

// Advise analyzes a monitoring window and recommends a consolidation mode,
// encoding the paper's decision logic: memory-bound estates get semi-static
// consolidation, bursty predictable CPU-bound estates get dynamic.
func Advise(set *TraceSet, cfg AdvisorConfig) (Recommendation, error) {
	return advisor.Advise(set, cfg)
}

// MeasureWorkload computes the advisor's decision attributes without
// deciding.
func MeasureWorkload(set *TraceSet, cfg AdvisorConfig) (WorkloadAttributes, error) {
	return advisor.Measure(set, cfg)
}

// Execution step (Section 2.1): turning placement changes into feasible
// live-migration schedules.
type (
	// MigrationMove is one VM relocation.
	MigrationMove = executor.Move
	// MigrationSchedule is a feasible wave-by-wave execution plan.
	MigrationSchedule = executor.Plan
	// ExecutorConfig tunes migration-wave scheduling.
	ExecutorConfig = executor.Config
)

// DefaultExecutorConfig returns the baseline execution settings (one
// migration per host, eight per fabric, gigabit pre-copy).
func DefaultExecutorConfig() ExecutorConfig { return executor.DefaultConfig() }

// Fault-tolerant execution: deterministic fault injection and the
// degraded-execution path behind the paper's Section 1.2 adoption concern.
type (
	// FaultConfig parameterizes the deterministic fault model; the zero
	// value injects nothing.
	FaultConfig = fault.Config
	// FaultInjector answers fault questions as a pure function of
	// (seed, identity); a nil injector injects nothing.
	FaultInjector = fault.Injector
	// FaultOutcome classifies one attempted live migration.
	FaultOutcome = fault.Outcome
	// MigrationExecution reports what a schedule actually did under the
	// fault model: completed moves, aborted moves, realized placement.
	MigrationExecution = executor.Execution
	// ControllerMoveStats is the per-interval migration accounting.
	ControllerMoveStats = controller.MoveStats
)

// Fault outcomes.
const (
	MigrationOK      = fault.OK
	MigrationStalled = fault.Stalled
	MigrationFailed  = fault.Failed
)

// NewFaultInjector validates the configuration and builds an injector.
func NewFaultInjector(cfg FaultConfig) (*FaultInjector, error) { return fault.New(cfg) }

// ExecuteTransition diffs two placements and executes the moves under the
// executor config's fault model: failed attempts retry with exponential
// backoff up to the retry budget, exhausted moves abort, and the returned
// execution's Final placement is where re-planning must start from.
func ExecuteTransition(from, to *Placement, cfg ExecutorConfig) (*MigrationExecution, []MigrationMove, error) {
	return executor.ExecuteTransition(from, to, cfg)
}

// ScheduleTransition plans the migrations that turn one placement into
// another, respecting capacity at every intermediate state.
func ScheduleTransition(from, to *Placement, cfg ExecutorConfig) (*MigrationSchedule, []MigrationMove, error) {
	return executor.ScheduleTransition(from, to, cfg)
}

// DrainHost plans the evacuation of one host for maintenance — the live
// migration use case real data centers do adopt (Section 1.2).
func DrainHost(p *Placement, host string, cfg ExecutorConfig) (*MigrationSchedule, []MigrationMove, error) {
	return executor.Drain(p, host, cfg)
}

// Monitoring substrate (Sections 2.1 and 3.1 of the paper): per-server
// agents stream the Table 1 metric set over TCP to a central warehouse that
// aggregates it into the hourly series the planners consume. The wire has
// one dialect: acked binary frames of sample records, sent by
// ReliableSender (which MonitorAgent wraps).
type (
	// MonitorSample is one Table 1 observation.
	MonitorSample = monitor.Sample
	// MonitorSource produces samples for one server.
	MonitorSource = monitor.Source
	// MonitorAgent is the per-server collector, a ReliableSender fed on
	// a ticker.
	MonitorAgent = monitor.Agent
	// Warehouse is the central monitoring store. OpenWarehouseLog makes
	// it durable; its Snapshot writes the binary sample form the journal's
	// lane checkpoints use, as a shard-count-independent byte image for
	// comparing two stores.
	Warehouse = monitor.Warehouse
)

// DefaultIngestShards is the warehouse's default shard count.
const DefaultIngestShards = monitor.DefaultIngestShards

// NewWarehouse creates a monitoring warehouse with the given retention
// and DefaultIngestShards ingest shards.
func NewWarehouse(retention time.Duration) *Warehouse {
	return monitor.NewWarehouse(retention)
}

// NewWarehouseShards creates a monitoring warehouse with an explicit
// ingest shard count (clamped to [1, 256]). One shard reproduces the
// single-lock behavior; more shards trade memory for ingest and query
// concurrency.
func NewWarehouseShards(retention time.Duration, shards int) *Warehouse {
	return monitor.NewWarehouseShards(retention, shards)
}

// NewTraceSource replays a demand trace as per-minute monitoring samples.
func NewTraceSource(st *ServerTrace, epoch time.Time, seed int64) (MonitorSource, error) {
	return monitor.NewTraceSource(st, epoch, seed)
}

// Runtime controller: the live dynamic-consolidation loop of the paper's
// deployed systems [25, 28].
type (
	// Controller runs the consolidation loop (fetch -> predict -> adapt
	// -> schedule) one interval at a time.
	Controller = controller.Controller
	// ControllerConfig assembles a controller.
	ControllerConfig = controller.Config
	// ControllerTick reports one completed interval.
	ControllerTick = controller.Tick
	// FetchFunc supplies monitoring history to the controller.
	FetchFunc = controller.FetchFunc
)

// ErrInsufficientHistory is returned by the controller during warm-up.
var ErrInsufficientHistory = controller.ErrInsufficientHistory

// ErrCircuitOpen is reported by Controller.Run when the configured number
// of consecutive interval failures trips its circuit breaker.
var ErrCircuitOpen = controller.ErrCircuitOpen

// NewController builds a runtime consolidation controller.
func NewController(cfg ControllerConfig) (*Controller, error) { return controller.New(cfg) }

// Durability: the crash-safe control plane (write-ahead log, checkpoints,
// recovery).
type (
	// WALOptions tunes a write-ahead log (segment size, fsync policy,
	// crash injection for tests).
	WALOptions = wal.Options
	// SyncPolicy selects when the WAL reaches the disk.
	SyncPolicy = wal.SyncPolicy
	// WarehouseLog journals warehouse ingestion in one lane per shard
	// (one binary record per sample) and checkpoints each lane; it is the
	// warehouse's only durable form.
	WarehouseLog = monitor.WarehouseLog
	// WarehouseRecovery summarizes what OpenWarehouseLog reconstructed.
	WarehouseRecovery = monitor.RecoveryStat
	// ControllerJournal makes the consolidation loop crash-safe: intent,
	// per-move outcomes and committed placements survive restarts.
	ControllerJournal = controller.Journal
	// ControllerRecovery is the state a controller journal reconstructed.
	ControllerRecovery = controller.Recovery
)

// WAL fsync policies.
const (
	SyncAlways   = wal.SyncAlways
	SyncInterval = wal.SyncInterval
	SyncNever    = wal.SyncNever
)

// ParseSyncPolicy maps "always", "interval" or "never" to a SyncPolicy.
func ParseSyncPolicy(s string) (SyncPolicy, error) { return wal.ParseSyncPolicy(s) }

// OpenWarehouseLog recovers the journal in dir into w (checkpoint restore
// plus WAL replay, after re-laning a log written at another shard count)
// and then journals every accepted sample, checkpointing each lane in
// proportion to its shard size with checkpointEvery appends as the floor.
func OpenWarehouseLog(w *Warehouse, dir string, checkpointEvery int, opts WALOptions) (*WarehouseLog, error) {
	return monitor.OpenWarehouseLog(w, dir, checkpointEvery, opts)
}

// OpenControllerJournal recovers the controller journal in dir; hand the
// result to ControllerConfig.Journal.
func OpenControllerJournal(dir string, opts WALOptions) (*ControllerJournal, error) {
	return controller.OpenJournal(dir, opts)
}

// Storage fault layer: the filesystem abstraction the durable paths run
// on, and its seeded fault injector — the disk-side counterpart of the
// network chaos proxy. Production code runs on OSFS; tests and the disk
// chaos wall run on a FaultFS whose every fault is a pure function of
// (seed, operation, path, call index).
type (
	// FS is the filesystem surface of the durable paths (WAL segments,
	// journals, checkpoints, snapshots). Set WALOptions.FS to substitute.
	FS = fsx.FS
	// FSFile is one open file on an FS.
	FSFile = fsx.File
	// FaultFS injects seeded filesystem faults: torn writes, failed
	// fsyncs and renames, corrupt reads, a byte budget that runs out
	// (ENOSPC), and whole-process crash emulation that tears unsynced
	// tails.
	FaultFS = fsx.FaultFS
	// FaultProfile parameterizes a FaultFS; the zero value injects
	// nothing.
	FaultProfile = fsx.Profile
	// FSCounters snapshots what a FaultFS did and injected.
	FSCounters = fsx.Counters
)

// OSFS is the production filesystem: a stateless passthrough to the os
// package.
var OSFS = fsx.OS

// Typed storage failure conditions, distinguished because their operator
// responses differ.
var (
	// ErrDiskFull is disk-out-of-space, injected or real: retryable once
	// space frees. The warehouse sheds ingest (clients keep their samples)
	// instead of acking what it cannot store.
	ErrDiskFull = wal.ErrDiskFull
	// ErrPoisoned marks a WAL segment whose fsync failed: the kernel may
	// have dropped the dirty pages, so the unsynced suffix is doubtful and
	// is never acknowledged again. The log truncates to the durable
	// watermark and rotates.
	ErrPoisoned = wal.ErrPoisoned
	// ErrCorruptRecord is damage found at rest during recovery; the log
	// refuses to silently skip acknowledged records.
	ErrCorruptRecord = wal.ErrCorruptRecord
)

// NewFaultFS wraps base (nil means OSFS) in a seeded fault injector.
// Paths are keyed relative to root, so a schedule is independent of where
// the tree lives on disk.
func NewFaultFS(base FS, root string, seed int64, p FaultProfile) (*FaultFS, error) {
	return fsx.NewFaultFS(base, root, seed, p)
}

// ParseFaultProfile maps a -disk-fault-profile flag spelling ("off",
// "flaky", "corrupt", "enospc:<bytes>") to a FaultProfile.
func ParseFaultProfile(s string) (FaultProfile, error) { return fsx.ParseProfile(s) }

// IsNoSpace reports whether err is a disk-full condition, injected
// (ErrDiskFull) or real (ENOSPC from the kernel).
func IsNoSpace(err error) bool { return fsx.IsNoSpace(err) }

// Scenario harness: named end-to-end simulations that drive the full
// controller/executor/monitor stack through scripted events (demand
// surges, maintenance drains, rack outages, hardware swaps) and grade the
// outcome against hard checkpoints. Every run is bitwise-reproducible
// from its seed; `vmwild scenario` is the CLI front end and the repo's
// scenario wall runs them all as tests.
type (
	// Scenario is one named end-to-end simulation: turns that mutate the
	// world, checkpoints that grade it.
	Scenario = scenario.Scenario
	// ScenarioTurn is one phase of a scenario.
	ScenarioTurn = scenario.Turn
	// ScenarioCheckpoint is a hard pass/fail assertion over a turn.
	ScenarioCheckpoint = scenario.Checkpoint
	// ScenarioCheck is the state a checkpoint assertion inspects.
	ScenarioCheck = scenario.Check
	// ScenarioWorld is the mutable simulation state turn actions act on.
	ScenarioWorld = scenario.World
	// ScenarioOptions tunes one run (seed override, metric sinks, soak
	// state directory).
	ScenarioOptions = scenario.Options
	// ScenarioResult is a graded run: per-turn metrics plus checkpoints.
	ScenarioResult = scenario.Result
	// ScenarioTurnMetrics aggregates one turn's intervals.
	ScenarioTurnMetrics = scenario.TurnMetrics
	// ScenarioIntervalMetrics measures one consolidation interval.
	ScenarioIntervalMetrics = scenario.IntervalMetrics
	// ScenarioCheckpointResult is one graded checkpoint.
	ScenarioCheckpointResult = scenario.CheckpointResult
	// ScenarioSoakConfig routes a scenario through the durable
	// warehouse+journal stack.
	ScenarioSoakConfig = scenario.SoakConfig
)

// Scenarios returns a fresh instance of every named scenario, sorted by
// ID. Instances are independent: running one never affects another.
func Scenarios() []*Scenario { return scenario.All() }

// ScenarioByID returns a fresh instance of the named scenario.
func ScenarioByID(id string) (*Scenario, error) { return scenario.Get(id) }

// RunScenario executes a scenario and grades its checkpoints. Checkpoint
// failures are reported in the result (Passed=false), not as errors;
// errors mean the simulation itself could not proceed.
func RunScenario(s *Scenario, opts ScenarioOptions) (*ScenarioResult, error) {
	return scenario.Run(s, opts)
}

// Overload protection and network chaos: the serving plane's robustness
// surface. The warehouse gates connections and sheds over-budget ingest
// through a token bucket (every refusal counted, never silent), the
// reliable sender ships CRC'd acked frames whose counters reconcile
// exactly against the warehouse's books, and the chaos proxy injects
// seeded network faults to prove all of it under fire — the chaos wall in
// internal/scenario runs the drills as tests.
type (
	// ChaosConfig parameterizes the seeded TCP fault proxy; the zero value
	// (plus a seed) forwards transparently.
	ChaosConfig = chaos.Config
	// ChaosProxy is a TCP proxy that injects latency, corruption,
	// truncation, resets and partitions, all as pure functions of
	// (seed, connection, direction, chunk).
	ChaosProxy = chaos.Proxy
	// ChaosStats counts what a proxy did to the traffic.
	ChaosStats = chaos.Stats
	// ReliableSender ships samples as sequenced, CRC'd, acknowledged
	// binary frames with exactly-once accounting; it is the one way to
	// send samples to a warehouse over the network.
	ReliableSender = monitor.ReliableSender
	// SenderCounters is the sender's reconciliation ledger: Queued ==
	// Acked + ServerShed + DroppedQueue + Pending at quiescence.
	SenderCounters = monitor.SenderCounters
	// WarehouseMetrics is the warehouse's operational counter set
	// (connections, shed ingest, corrupt frames, per-shard detail).
	WarehouseMetrics = monitor.Metrics
	// WarehouseShardMetrics is one ingest shard's slice of the metrics.
	WarehouseShardMetrics = monitor.ShardMetrics
	// QueryServerMetrics counts the query server's admission decisions.
	QueryServerMetrics = monitor.QueryMetrics
	// ResilienceScenario is one chaos-wall drill: the real serving stack
	// driven through fault proxies, graded on timing-free invariants.
	ResilienceScenario = scenario.ResilienceScenario
	// DiskScenario is one disk-chaos drill: the WAL/journal/snapshot stack
	// driven over a seeded fault-injecting filesystem, graded on
	// durability invariants (acks honest, replay == acked, byte-identical
	// recovery).
	DiskScenario = scenario.DiskScenario
)

// NewChaosProxy validates the configuration and builds a fault proxy in
// front of upstream; Listen starts it.
func NewChaosProxy(cfg ChaosConfig, upstream string) (*ChaosProxy, error) {
	return chaos.New(cfg, upstream)
}

// ResilienceScenarios returns the chaos-wall drills in wall order.
func ResilienceScenarios() []*ResilienceScenario { return scenario.Resilience() }

// ResilienceByID finds one chaos-wall drill.
func ResilienceByID(id string) (*ResilienceScenario, error) { return scenario.GetResilience(id) }

// DiskScenarios returns the disk-chaos drills in wall order.
func DiskScenarios() []*DiskScenario { return scenario.DiskChaos() }

// DiskScenarioByID finds one disk-chaos drill.
func DiskScenarioByID(id string) (*DiskScenario, error) { return scenario.GetDiskChaos(id) }

// Warehouse query protocol: how remote planners pull aggregated series.
type (
	// QueryServer exposes a warehouse over the TCP query protocol.
	QueryServer = monitor.QueryServer
	// QueryClient is the planner-side client of the query protocol.
	QueryClient = monitor.QueryClient
)

// NewQueryServer wraps a warehouse in a query server.
func NewQueryServer(w *Warehouse) *QueryServer { return monitor.NewQueryServer(w) }

// DialQuery connects to a warehouse query server.
func DialQuery(ctx context.Context, addr string) (*QueryClient, error) {
	return monitor.DialQuery(ctx, addr)
}

// Reads beyond the series: raw ranges and server-side advice.
type (
	// RangePoint is one raw sample in a range query result.
	RangePoint = monitor.RangePoint
	// AdviseRequest parameterizes a server-side consolidation
	// recommendation (the op:"advise" query).
	AdviseRequest = monitor.AdviseRequest
	// Advice is the advise query's result: recommended mode, measured
	// attributes, and the recommended planner's placement headline.
	Advice = monitor.Advice
)

// Deprecated: there is no replica layer; every read is served from the
// live shards. ReplicaConfig, ReplicaMetrics and the two defaults remain
// for callers built against it, and configure nothing.
type (
	ReplicaConfig  = monitor.ReplicaConfig
	ReplicaMetrics = monitor.ReplicaMetrics
)

// Deprecated: see ReplicaConfig.
const (
	DefaultReplicaEverySamples = monitor.DefaultReplicaEverySamples
	DefaultReplicaMaxAge       = monitor.DefaultReplicaMaxAge
)

// WriteReport renders the complete reproduction — every table and figure of
// the paper — using the baseline configuration with the given seed. It runs
// the experiment grid strictly sequentially; use WriteReportWith to fan it
// out across workers with byte-identical output.
func WriteReport(w io.Writer, seed int64) error {
	return WriteReportWith(context.Background(), w, seed, ReportOptions{Workers: 1})
}

// ReportProgress is one finished experiment-grid cell, delivered to a
// progress observer.
type ReportProgress = sweep.Event

// ReportOptions tune how the report's experiment grid executes.
type ReportOptions struct {
	// Workers bounds concurrently executing grid cells; one is strictly
	// sequential, zero or negative means GOMAXPROCS.
	Workers int
	// Progress, when non-nil, observes every finished cell (serialized).
	Progress func(ReportProgress)
}

// WriteReportWith renders the complete reproduction with the experiment
// grid fanned out across opts.Workers workers. Each cell derives its
// randomness from the seed by identity rather than from a shared stream, so
// the report is byte-identical to the sequential one at the same seed —
// only faster. Canceling ctx aborts the run promptly.
func WriteReportWith(ctx context.Context, w io.Writer, seed int64, opts ReportOptions) error {
	cfg := experiments.DefaultConfig()
	if seed != 0 {
		cfg.Seed = seed
	}
	return experiments.WriteAllWith(ctx, w, cfg, experiments.Options{
		Workers:  opts.Workers,
		Progress: opts.Progress,
	})
}
