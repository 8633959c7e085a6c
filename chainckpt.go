// Package chainckpt is a Go implementation of the resilience-scheduling
// system of Benoit, Cavelan, Robert and Sun, "Two-Level Checkpointing and
// Verifications for Linear Task Graphs" (PDSEC/IPDPSW 2016).
//
// An HPC application whose workflow is a linear chain of tasks
// T1 -> T2 -> ... -> Tn must survive two independent error sources:
// fail-stop errors (crashes that destroy memory, forcing a restart from a
// disk checkpoint) and silent data corruptions (caught only by running a
// verification, repaired from a cheap in-memory checkpoint). This package
// computes, in polynomial time, the provably optimal placement of
//
//   - disk checkpoints (cost C_D),
//   - in-memory checkpoints (cost C_M, always behind a guaranteed
//     verification so stored data is never corrupted),
//   - guaranteed verifications (cost V*, recall 1), and
//   - partial verifications (cost V << V*, recall r < 1)
//
// at task boundaries, minimizing the expected makespan.
//
// # Quick start
//
//	c, _ := chainckpt.Uniform(50, 25000)          // 50 tasks, 25000 s total
//	p := chainckpt.Hera()                          // SCR-measured platform
//	res, _ := chainckpt.PlanADMV(c, p)             // full two-level + partial verifs
//	fmt.Println(res.ExpectedMakespan, res.Schedule)
//
// # Batch planning
//
// Many requests at once — experiment sweeps, services — plan through an
// Engine: a bounded worker pool with an LRU memo of solved instances, so
// instances solve concurrently and repeated or near-duplicate requests
// are served from cache (see NewEngine, PlanMany, PlanAsync, Stream).
// cmd/chainserve exposes the engine over HTTP/JSON with health and
// metrics endpoints.
//
//	eng := chainckpt.NewEngine(chainckpt.EngineOptions{})
//	defer eng.Close()
//	resps := eng.PlanMany(ctx, reqs)
//
// Beyond the planners, the package exposes the machinery used to validate
// them: an analytic evaluator for fixed schedules (Evaluate), an exact
// Markov-renewal oracle (ExactMakespan), and a parallel Monte-Carlo fault
// simulator (Simulate). The four routes agree with each other — the
// cross-validation suite in crossval_test.go enforces it on randomized
// chains against an exhaustive search (internal/bruteforce).
//
// All heavy types are aliases of the implementation packages under
// internal/, so their documentation and methods apply directly.
package chainckpt

import (
	"context"
	"math/rand"

	"chainckpt/internal/chain"
	"chainckpt/internal/core"
	"chainckpt/internal/dag"
	"chainckpt/internal/engine"
	"chainckpt/internal/evaluate"
	"chainckpt/internal/fault"
	"chainckpt/internal/heuristics"
	"chainckpt/internal/jobstore"
	"chainckpt/internal/obs"
	"chainckpt/internal/platform"
	"chainckpt/internal/replay"
	"chainckpt/internal/runtime"
	"chainckpt/internal/schedule"
	"chainckpt/internal/sensitivity"
	"chainckpt/internal/sim"
	"chainckpt/internal/workload"
)

// Chain is a linear task graph; see internal/chain.
type Chain = chain.Chain

// Task is one computational kernel of a chain.
type Task = chain.Task

// Platform bundles error rates, checkpoint and verification costs.
type Platform = platform.Platform

// Schedule assigns resilience actions to task boundaries.
type Schedule = schedule.Schedule

// Action is the bitmask of mechanisms at one boundary.
type Action = schedule.Action

// The four mechanisms of the model.
const (
	Partial    = schedule.Partial
	Guaranteed = schedule.Guaranteed
	Memory     = schedule.Memory
	Disk       = schedule.Disk
)

// Algorithm names one of the paper's planners.
type Algorithm = core.Algorithm

// The three planners of the paper's evaluation.
const (
	ADV      = core.AlgADV      // disk checkpoints + guaranteed verifications
	ADMVStar = core.AlgADMVStar // + in-memory checkpoints (Section III-A)
	ADMV     = core.AlgADMV     // + partial verifications (Section III-B)
)

// PlanResult is a planner outcome: optimal schedule and its expectation.
type PlanResult = core.Result

// SimOptions configures the Monte-Carlo simulator.
type SimOptions = sim.Options

// SimResult aggregates simulated makespans and event counters.
type SimResult = sim.Result

// SimShapes selects Weibull inter-arrival laws for the simulated error
// sources (zero value = the model's exponential arrivals), for
// robustness studies against model misspecification.
type SimShapes = sim.Shapes

// NewChain builds a chain from explicit tasks.
func NewChain(tasks ...Task) (*Chain, error) { return chain.New(tasks...) }

// ChainFromWeights builds a chain of anonymous tasks.
func ChainFromWeights(weights ...float64) (*Chain, error) { return chain.FromWeights(weights...) }

// Uniform, Decrease and HighLow generate the paper's workload patterns
// normalized to the given total weight.
func Uniform(n int, total float64) (*Chain, error)  { return workload.Uniform(n, total) }
func Decrease(n int, total float64) (*Chain, error) { return workload.Decrease(n, total) }

// HighLow generates the paper's HighLow pattern: 10% large tasks holding
// 60% of the weight.
func HighLow(n int, total float64) (*Chain, error) {
	return workload.HighLow(n, total, 0.10, 0.60)
}

// RandomChain generates a chain with random weights summing to total.
func RandomChain(rng *rand.Rand, n int, total float64) (*Chain, error) {
	return workload.Random(rng, n, total)
}

// Hera, Atlas, Coastal and CoastalSSD return the four platforms of the
// paper's Table I, with the Section IV cost assumptions applied
// (R_D = C_D, R_M = C_M, V* = C_M, V = V*/100, r = 0.8).
func Hera() Platform       { return platform.Hera() }
func Atlas() Platform      { return platform.Atlas() }
func Coastal() Platform    { return platform.Coastal() }
func CoastalSSD() Platform { return platform.CoastalSSD() }

// Platforms returns all four Table I platforms.
func Platforms() []Platform { return platform.All() }

// PlatformByName looks up a Table I platform by name.
func PlatformByName(name string) (Platform, error) { return platform.ByName(name) }

// PlatformFromJSON decodes and validates a user-defined platform, so the
// model can be instantiated with custom parameters as the paper invites.
func PlatformFromJSON(data []byte) (Platform, error) { return platform.FromJSON(data) }

// Costs assigns checkpoint, recovery and verification costs per task
// boundary — the natural model when costs scale with the data volume
// alive at each boundary.
type Costs = platform.Costs

// BoundaryCosts holds the six cost parameters of one boundary.
type BoundaryCosts = platform.BoundaryCosts

// UniformCosts builds the paper's constant-cost table from a platform.
func UniformCosts(p Platform, n int) (*Costs, error) { return platform.UniformCosts(p, n) }

// ScaledCosts scales the platform costs by the data volume crossing each
// boundary (one multiplier per boundary).
func ScaledCosts(p Platform, sizes []float64) (*Costs, error) {
	return platform.ScaledCosts(p, sizes)
}

// PlanWithCosts runs the named algorithm with per-boundary costs.
func PlanWithCosts(alg Algorithm, c *Chain, p Platform, costs *Costs) (*PlanResult, error) {
	return core.PlanWithCosts(alg, c, p, costs)
}

// PlanFull is the most general planning entry point: per-boundary costs
// and placement constraints, both optional (nil).
func PlanFull(alg Algorithm, c *Chain, p Platform, costs *Costs, cons *Constraints) (*PlanResult, error) {
	return core.PlanFull(alg, c, p, costs, cons)
}

// PlanOptions bundles every optional planning input: per-boundary costs,
// placement constraints, and a disk-checkpoint budget.
type PlanOptions = core.Options

// PlanWithOptions runs the named algorithm under the given options.
func PlanWithOptions(alg Algorithm, c *Chain, p Platform, opts PlanOptions) (*PlanResult, error) {
	return core.PlanOpts(alg, c, p, opts)
}

// EvaluateWithCosts is Evaluate with per-boundary costs.
func EvaluateWithCosts(c *Chain, p Platform, costs *Costs, s *Schedule) (float64, error) {
	return core.EvaluateWithCosts(c, p, costs, s)
}

// Evaluator scores fixed schedules for one instance, amortizing the model
// tables across calls; build one when scoring many candidate schedules.
type Evaluator = core.Evaluator

// NewEvaluator precomputes the model tables for (chain, platform, costs);
// costs may be nil for the platform constants.
func NewEvaluator(c *Chain, p Platform, costs *Costs) (*Evaluator, error) {
	return core.NewEvaluator(c, p, costs)
}

// ExactMakespanWithCosts is ExactMakespan with per-boundary costs.
func ExactMakespanWithCosts(c *Chain, p Platform, costs *Costs, s *Schedule) (float64, error) {
	return evaluate.ExactWithCosts(c, p, costs, s)
}

// NewSchedule returns an empty schedule for an n-task chain.
func NewSchedule(n int) (*Schedule, error) { return schedule.New(n) }

// Plan runs the named algorithm and returns the optimal schedule.
func Plan(alg Algorithm, c *Chain, p Platform) (*PlanResult, error) { return core.Plan(alg, c, p) }

// PlanADV runs the single-level planner ADV*.
func PlanADV(c *Chain, p Platform) (*PlanResult, error) { return core.PlanADV(c, p) }

// PlanADMVStar runs the two-level planner ADMV* (Section III-A).
func PlanADMVStar(c *Chain, p Platform) (*PlanResult, error) { return core.PlanADMVStar(c, p) }

// PlanADMV runs the complete planner ADMV (Section III-B).
func PlanADMV(c *Chain, p Platform) (*PlanResult, error) { return core.PlanADMV(c, p) }

// Constraints restricts which mechanisms each boundary may carry; see
// NewConstraints and PlanConstrained.
type Constraints = core.Constraints

// NewConstraints returns constraints allowing every mechanism everywhere.
func NewConstraints(n int) (*Constraints, error) { return core.NewConstraints(n) }

// PlanConstrained runs the named algorithm restricted to schedules whose
// boundary actions satisfy cons (optimal over the constrained space).
func PlanConstrained(alg Algorithm, c *Chain, p Platform, cons *Constraints) (*PlanResult, error) {
	return core.PlanConstrained(alg, c, p, cons)
}

// HeuristicResult is a baseline strategy's placement and expectation.
type HeuristicResult = heuristics.Result

// Baseline heuristics (see internal/heuristics): the no-resilience
// baseline, Young/Daly-style analytic periods, the best task-periodic
// pattern, and greedy marginal-gain insertion. The planners returned by
// Plan* dominate all of them; the heuristics serve as yardsticks and as
// starting points for workloads beyond linear chains.
func HeuristicFinalOnly(c *Chain, p Platform) (*HeuristicResult, error) {
	return heuristics.FinalOnly(c, p)
}
func HeuristicDaly(c *Chain, p Platform) (*HeuristicResult, error) {
	return heuristics.DalyPeriodic(c, p)
}
func HeuristicPeriodicScan(c *Chain, p Platform) (*HeuristicResult, error) {
	return heuristics.PeriodicScan(c, p)
}
func HeuristicGreedy(c *Chain, p Platform) (*HeuristicResult, error) {
	return heuristics.GreedyInsert(c, p)
}
func HeuristicPattern(c *Chain, p Platform) (*HeuristicResult, error) {
	return heuristics.FirstOrderPattern(c, p)
}

// Workflow is a directed acyclic task graph. Under the paper's
// simplified scenario (every task uses the whole platform) it executes
// serially in a topological order, so planning decomposes into choosing a
// linearization and running the chain planner on it (see internal/dag).
type Workflow = dag.Graph

// WorkflowStrategy names a linearization heuristic.
type WorkflowStrategy = dag.Strategy

// WorkflowResult is a planned serialization of a workflow.
type WorkflowResult = dag.Result

// NewWorkflow returns an empty workflow DAG.
func NewWorkflow() *Workflow { return dag.New() }

// WorkflowStrategies lists the linearization heuristics.
func WorkflowStrategies() []WorkflowStrategy { return dag.Strategies() }

// PlanWorkflow serializes the DAG with every strategy, plans each
// serialization with the chain planner, and returns the best.
func PlanWorkflow(alg Algorithm, g *Workflow, p Platform) (*WorkflowResult, error) {
	return dag.Plan(alg, g, p, nil)
}

// PlanWorkflowWith plans under a single linearization strategy.
func PlanWorkflowWith(alg Algorithm, g *Workflow, p Platform, s WorkflowStrategy) (*WorkflowResult, error) {
	return dag.Plan(alg, g, p, []WorkflowStrategy{s})
}

// Elasticity is one parameter's sensitivity result.
type Elasticity = sensitivity.Result

// Elasticities reports how the expected makespan of a fixed schedule
// responds to each platform parameter ((x/E)*dE/dx per parameter): the
// operator's "which knob dominates my overhead" report.
func Elasticities(c *Chain, p Platform, s *Schedule) ([]Elasticity, error) {
	return sensitivity.FixedSchedule(c, p, s)
}

// Evaluate returns the expected makespan of a fixed schedule under the
// paper's closed-form model (Equations (2)-(4) and Section III-B).
func Evaluate(c *Chain, p Platform, s *Schedule) (float64, error) {
	return core.Evaluate(c, p, s)
}

// ExactMakespan returns the exact model-expected makespan of a fixed
// schedule via the independent Markov-renewal oracle.
func ExactMakespan(c *Chain, p Platform, s *Schedule) (float64, error) {
	return evaluate.Exact(c, p, s)
}

// Simulate runs the Monte-Carlo fault simulator on a fixed schedule.
func Simulate(c *Chain, p Platform, s *Schedule, opts SimOptions) (*SimResult, error) {
	return sim.Run(c, p, s, opts)
}

// Engine is a concurrent batch planner: one worker pool solves cache
// misses on one solver kernel, and one LRU memo keyed by canonical
// instance fingerprint serves repeats and coalesces identical in-flight
// requests onto one solve. Use it when serving many plan requests
// (cmd/chainserve) or sweeping many instances (internal/experiments);
// see internal/engine.
type Engine = engine.Engine

// EngineOptions sizes an Engine's worker pool and plan memo.
type EngineOptions = engine.Options

// PlanRequest is one planning job submitted to an Engine.
type PlanRequest = engine.Request

// PlanResponse is the outcome of one PlanRequest, carrying the batch
// index, the result or error, and whether the memo served it.
type PlanResponse = engine.Response

// EngineStats is a snapshot of an Engine's request and cache counters.
type EngineStats = engine.Stats

// NewEngine starts a batch planning engine; Close it to release its
// workers.
//
//	eng := chainckpt.NewEngine(chainckpt.EngineOptions{})
//	defer eng.Close()
//	resps := eng.PlanMany(ctx, reqs)   // or PlanAsync / Stream
func NewEngine(opts EngineOptions) *Engine { return engine.New(opts) }

// DefaultEngine returns the shared process-wide engine used by the
// experiment harness and the command-line tools.
func DefaultEngine() *Engine { return engine.Default() }

// Kernel is the long-lived solver kernel underneath every planner: it
// owns size-bucketed pools of scratch arenas, so repeated planning
// through one kernel runs the dynamic program allocation-free, and it
// exposes incremental suffix re-solves (ReplanSuffix) that re-plan the
// remainder of a chain in place — no suffix chain, cost-table slice or
// constraint slice is materialized. The package-level Plan* functions
// are thin wrappers over a shared default kernel; build your own when
// you want isolated pool statistics or an allocation-free hot loop of
// your own (see internal/core).
type Kernel = core.Kernel

// KernelStats snapshots a kernel's scratch-pool counters: solves, and
// arena reuses versus fresh allocations, per size bucket.
type KernelStats = core.KernelStats

// KernelBucketStats is one capacity class of a kernel's scratch pool.
type KernelBucketStats = core.KernelBucketStats

// NewKernel returns an empty solver kernel.
//
//	k := chainckpt.NewKernel()
//	res, _ := k.PlanOpts(chainckpt.ADMV, c, p, chainckpt.PlanOptions{})
//	upd, _ := k.ReplanSuffix(chainckpt.ADMV, c, newRates, from, chainckpt.PlanOptions{})
func NewKernel() *Kernel { return core.NewKernel() }

// DefaultKernel returns the shared process-wide kernel the package-level
// Plan* functions solve through.
func DefaultKernel() *Kernel { return core.DefaultKernel() }

// Supervisor executes scheduled chains for real: it drives tasks
// through a pluggable TaskRunner, owns a two-tier checkpoint store,
// implements the paper's recovery semantics (fail-stop => restore the
// last disk checkpoint, detected silent error => roll back to the last
// verified in-memory checkpoint), and can adapt the schedule mid-run
// when the observed error rates drift from the model (see RunAdaptive
// and internal/runtime).
type Supervisor = runtime.Supervisor

// SupervisorOptions configures a Supervisor.
type SupervisorOptions = runtime.Options

// RunJob describes one chain execution submitted to a Supervisor.
type RunJob = runtime.Job

// RunReport summarizes one supervised execution.
type RunReport = runtime.Report

// RunCounters tallies the events of one supervised execution.
type RunCounters = runtime.Counters

// AdaptPolicy tunes adaptive re-planning (zero value = defaults).
type AdaptPolicy = runtime.AdaptPolicy

// TaskRunner is the pluggable execution backend of the Supervisor.
type TaskRunner = runtime.TaskRunner

// TaskSpec and TaskResult are one task execution request and outcome.
type TaskSpec = runtime.TaskSpec
type TaskResult = runtime.TaskResult

// TaskState is the opaque application payload flowing between tasks.
type TaskState = runtime.State

// CheckpointStore is the supervisor's two-tier checkpoint store: a
// single in-memory checkpoint plus fingerprinted disk checkpoints.
type CheckpointStore = runtime.Store

// SimTaskRunner injects faults from the simulator's error model; see
// NewSimRunner and NewMisspecifiedRunner.
type SimTaskRunner = runtime.SimRunner

// NopTaskRunner executes tasks instantly and perfectly; SleepTaskRunner
// sleeps Scale wall seconds per modeled second, for watchable demos.
type NopTaskRunner = runtime.NopRunner
type SleepTaskRunner = runtime.SleepRunner

// NewSupervisor builds an execution supervisor.
//
//	sup := chainckpt.NewSupervisor(chainckpt.SupervisorOptions{})
//	rep, err := sup.Run(ctx, chainckpt.RunJob{Chain: c, Platform: p})
//	rep, err = sup.RunAdaptive(ctx, job, chainckpt.AdaptPolicy{})
func NewSupervisor(opts SupervisorOptions) *Supervisor { return runtime.New(opts) }

// NewCheckpointStore opens a checkpoint store; dir "" keeps the disk
// tier in process memory (simulations, tests), a path persists
// fingerprinted checkpoint files under it.
func NewCheckpointStore(dir string) (*CheckpointStore, error) { return runtime.NewStore(dir) }

// MetricsRegistry is the dependency-free metrics registry of the
// observability plane (internal/obs): atomic counters, gauges and
// fixed-bucket latency histograms, rendered in Prometheus text
// exposition format (WritePrometheus) or as a one-shot human-readable
// summary (DumpText — what the CLI -stats flags print).
type MetricsRegistry = obs.Registry

// MetricsHistogram is one fixed-bucket latency or size histogram.
type MetricsHistogram = obs.Histogram

// Tracer records request- and job-scoped span trees into a bounded
// ring; Span is one timed operation. Both are nil-safe: a nil Tracer
// hands out nil Spans and every Span method on nil is a free no-op, so
// instrumented code paths cost nothing when tracing is off.
type Tracer = obs.Tracer
type Span = obs.Span

// NewMetricsRegistry builds an empty metrics registry.
func NewMetricsRegistry() *MetricsRegistry { return obs.NewRegistry() }

// NewTracer builds a tracer keeping the most recent completed traces
// (keep <= 0 uses the default ring size).
func NewTracer(keep int) *Tracer { return obs.NewTracer(keep) }

// EngineMetrics and RuntimeMetrics are the per-layer metric bundles:
// pass them via EngineOptions.Metrics / SupervisorOptions.Metrics to
// fill the engine's queue-wait and solve-latency histograms, and task /
// verification / checkpoint-commit / recovery timings, on reg.
type EngineMetrics = engine.Metrics
type RuntimeMetrics = runtime.Metrics

// NewEngineMetrics registers the engine's metric families on reg (nil
// reg returns nil, an uninstrumented engine).
func NewEngineMetrics(reg *MetricsRegistry) *EngineMetrics { return engine.NewMetrics(reg) }

// NewRuntimeMetrics registers the runtime supervisor's metric families
// on reg (nil reg returns nil, an uninstrumented supervisor).
func NewRuntimeMetrics(reg *MetricsRegistry) *RuntimeMetrics { return runtime.NewMetrics(reg) }

// ContextWithSpan returns ctx carrying s, so supervisor runs and engine
// plans hang their child spans below it; SpanFromContext reads it back.
func ContextWithSpan(ctx context.Context, s *Span) context.Context {
	return obs.ContextWithSpan(ctx, s)
}
func SpanFromContext(ctx context.Context) *Span { return obs.SpanFrom(ctx) }

// EstimatorState is the serializable evidence of a run's online error-
// rate estimators: persist it (RunReport.Estimator), seed it back
// (RunJob.Estimator), or derive re-planning rates from it
// (ReplanPlatform) — the statistical half of resuming an interrupted
// execution.
type EstimatorState = runtime.EstimatorState

// RateObservation is one error source's exposure and arrival count.
type RateObservation = runtime.RateObservation

// JobStore persists execution-job lifecycles so they survive a service
// restart: created -> planned -> running(progress) -> done / failed /
// cancelled, one durable record per transition. See internal/jobstore.
type JobStore = jobstore.Store

// JobRecord is the durable state of one job: lifecycle fields plus
// opaque JSON payloads (request spec, planned schedule, estimator
// evidence, final report) owned by the service above the store.
type JobRecord = jobstore.Record

// JobState is a job lifecycle state.
type JobState = jobstore.State

// The job lifecycle states.
const (
	JobCreated   = jobstore.StateCreated
	JobPlanned   = jobstore.StatePlanned
	JobRunning   = jobstore.StateRunning
	JobDone      = jobstore.StateDone
	JobFailed    = jobstore.StateFailed
	JobCancelled = jobstore.StateCancelled
)

// JournalJobStore is the durable JobStore: an append-only write-ahead
// journal of CRC-framed records in rotated segment files with a
// periodically compacted snapshot, replayed on open with damaged
// frames skipped. MemoryJobStore is the volatile reference
// implementation with identical semantics.
type JournalJobStore = jobstore.Journal
type MemoryJobStore = jobstore.Memory

// JobStoreOptions tunes a journaled job store (segment size, compaction
// cadence, fsync).
type JobStoreOptions = jobstore.Options

// JobStoreStats snapshots a job store's counters, including the
// corruption and duplicate skips of the last replay.
type JobStoreStats = jobstore.Stats

// OpenJobStore opens (creating if necessary) a write-ahead journaled
// job store under dir and replays its records.
//
//	store, err := chainckpt.OpenJobStore(dir, chainckpt.JobStoreOptions{})
//	for _, rec := range store.List() { ... }   // resume what was running
func OpenJobStore(dir string, opts JobStoreOptions) (*JournalJobStore, error) {
	return jobstore.Open(dir, opts)
}

// NewMemoryJobStore returns a volatile job store.
func NewMemoryJobStore() *MemoryJobStore { return jobstore.NewMemory() }

// NewSimRunner builds a fault-injecting task runner whose true rates
// come from p; the seed fixes the fault sequence.
func NewSimRunner(p Platform, seed uint64) *SimTaskRunner { return runtime.NewSimRunner(p, seed) }

// NewMisspecifiedRunner builds a fault-injecting runner whose true
// rates are the platform's scaled by factorF and factorS, for
// robustness studies of stale schedules.
func NewMisspecifiedRunner(p Platform, factorF, factorS float64, seed uint64) *SimTaskRunner {
	return runtime.NewMisspecifiedRunner(p, factorF, factorS, seed)
}

// Recording is the event-sourced capture of one supervised run: the
// instance identity (seed, algorithm, chain/schedule fingerprints), the
// full trace-event stream, estimator snapshots at every committed disk
// checkpoint, checkpoint content digests, normalized job-store
// lifecycle records, and the normalized final report. Re-running the
// same ReplaySpec reproduces a recording bit for bit (see
// internal/replay and the chaos matrices that enforce it).
type Recording = replay.Recording

// RecordingMeta stamps a recording with the run's identity.
type RecordingMeta = replay.Meta

// RecordingFrame is one recorded trace event with its sequence number.
type RecordingFrame = replay.Frame

// Recorder captures a run as it executes; wire its Observe/Progress/
// Lifecycle hooks into the supervisor and job store, then seal with
// Finish.
type Recorder = replay.Recorder

// ReplaySpec is the complete replayable input of one supervised run:
// instance, seed, misspecification, resume flag, and scripted fault
// plan.
type ReplaySpec = replay.Spec

// NewRecorder starts a recording stamped with meta.
func NewRecorder(meta RecordingMeta) *Recorder { return replay.NewRecorder(meta) }

// RecordRun executes spec under sup and records it; a crashed run
// returns its partial recording alongside the error.
func RecordRun(ctx context.Context, sup *Supervisor, spec ReplaySpec) (*Recording, error) {
	return replay.Run(ctx, sup, spec)
}

// Replay re-executes spec and asserts bit-identical equivalence with
// the recording want, returning the re-run's recording and the first
// divergence (as an error) if any.
func Replay(ctx context.Context, sup *Supervisor, spec ReplaySpec, want *Recording) (*Recording, error) {
	return replay.Replay(ctx, sup, spec, want)
}

// DiffRecordings describes the first divergence between two recordings;
// empty means their canonical forms are bit-identical.
func DiffRecordings(a, b *Recording) (string, error) { return replay.Diff(a, b) }

// DecodeRecording parses a recording's canonical JSON form (as served
// by chainserve's GET /v1/jobs/{id}/trace or written to -record-dir).
func DecodeRecording(data []byte) (*Recording, error) { return replay.Decode(data) }

// FaultPoint names one fault-injection point threaded through the
// supervisor's checkpoint commit protocol and the job-store journal;
// see internal/fault for the catalogue.
type FaultPoint = fault.Point

// FaultInjector decides, at each fault point, whether to mutate the
// in-flight payload or kill the process-equivalent; injectors are a
// test seam and nil (the production value) costs one predictable
// branch per point.
type FaultInjector = fault.Injector

// FaultScript is a deterministic injector: it fires once, at the N-th
// hit of one point, optionally mutating the payload and/or crashing.
type FaultScript = fault.Script

// ErrInjectedCrash is the sentinel a scripted crash surfaces as; a run
// ending in it corresponds to a process that died at the fault point.
var ErrInjectedCrash = fault.ErrCrash

// TraceEvent is one step of a replayed or supervised execution.
type TraceEvent = sim.TraceEvent

// TraceExecution replays a single execution with the given seed and
// returns its event log.
func TraceExecution(c *Chain, p Platform, s *Schedule, seed uint64) ([]TraceEvent, error) {
	return sim.Trace(c, p, s, seed)
}

// FormatTrace renders an event log, one line per event.
func FormatTrace(events []TraceEvent) string { return sim.FormatTrace(events) }
