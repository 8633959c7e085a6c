// Package runtime executes scheduled linear task graphs: the missing
// link between the planners (which decide where checkpoints and
// verifications go) and reality (something has to run the tasks, take
// the checkpoints, and recover). A Supervisor drives a chain through a
// pluggable TaskRunner under a schedule, owning a two-tier checkpoint
// store and implementing the paper's full recovery semantics:
//
//   - a fail-stop error destroys memory: restore the last disk
//     checkpoint (cost R_D) and re-execute from there;
//   - a verification that detects silent corruption rolls back to the
//     last verified in-memory checkpoint (cost R_M);
//   - verifications and checkpoints are charged at the boundary costs
//     the schedule was planned with.
//
// Beyond faithful execution, the supervisor adapts: it keeps online
// estimates of the observed fail-stop and silent-error rates (MLE, plus
// a rule-of-three upper bound when a long clean exposure has produced no
// arrivals at all), and when they drift beyond a tolerance from the
// rates the schedule was planned for, it re-solves the dynamic program
// for the remaining suffix of the chain in place — Kernel.ReplanSuffix
// against the original chain, costs and budget, no synthetic suffix
// chain, no engine round-trip — and splices the new schedule in mid-run:
// localized re-planning in the spirit of localized recovery, instead of
// trusting a misspecified model to the end.
//
// The event log uses sim.TraceEvent verbatim, so traces from real
// executions and Monte-Carlo replays render and compare with the same
// tools.
package runtime

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"
	"time"

	"chainckpt/internal/chain"
	"chainckpt/internal/core"
	"chainckpt/internal/engine"
	"chainckpt/internal/fault"
	"chainckpt/internal/obs"
	"chainckpt/internal/platform"
	"chainckpt/internal/schedule"
	"chainckpt/internal/sim"
)

// Options configures a Supervisor.
type Options struct {
	// Engine plans initial schedules (default: the shared process-wide
	// engine), so identical jobs are served from its memo.
	Engine *engine.Engine
	// Kernel re-solves suffixes during adaptive runs (default: the
	// engine's kernel, sharing its scratch pools). Suffix re-plans call
	// it directly — each is specific to the run's observed rates and
	// committed prefix, so there is nothing for the engine to memoize.
	Kernel *core.Kernel
	// Metrics, when non-nil, wires every run into an obs registry:
	// task/verification/checkpoint-commit latency histograms, fsync
	// and payload-size histograms on the disk tier, recovery and
	// re-plan timings, and a collector over the supervisor's re-plan
	// count (see NewMetrics). Nil means uninstrumented.
	Metrics *Metrics
}

// Supervisor executes jobs. It is safe for concurrent use; each Run
// gets its own execution state.
type Supervisor struct {
	eng  *engine.Engine
	kern *core.Kernel
	m    *Metrics

	// Recovery histogram children resolved once (nil when
	// uninstrumented; every observation is nil-safe).
	recDisk, recMem *obs.Histogram

	jobs    atomic.Uint64
	replans atomic.Uint64
}

// New builds a Supervisor.
func New(opts Options) *Supervisor {
	eng := opts.Engine
	if eng == nil {
		eng = engine.Default()
	}
	kern := opts.Kernel
	if kern == nil {
		kern = eng.Kernel()
	}
	s := &Supervisor{eng: eng, kern: kern, m: opts.Metrics}
	if s.m != nil {
		s.m.sup.Store(s)
		s.recDisk = s.m.RecoverySeconds.With("disk")
		s.recMem = s.m.RecoverySeconds.With("memory")
	}
	return s
}

// Job describes one chain execution.
type Job struct {
	// Chain is the task graph to execute.
	Chain *chain.Chain
	// Platform carries the modeled error rates and resilience costs the
	// schedule is planned (and re-planned) against.
	Platform platform.Platform
	// Schedule fixes the resilience placements; nil plans one with
	// Algorithm before executing.
	Schedule *schedule.Schedule
	// Algorithm selects the planner for Schedule == nil and for adaptive
	// re-plans (default ADMV).
	Algorithm core.Algorithm
	// Costs overrides the platform's constant costs per boundary.
	Costs *platform.Costs
	// MaxDiskCheckpoints bounds the disk checkpoints of the whole run
	// (0 = unlimited). It applies to the initial plan and is carried
	// through adaptive re-plans: a suffix re-plan only gets the budget
	// not yet spent on committed disk checkpoints.
	MaxDiskCheckpoints int
	// Runner executes the tasks (default NopRunner).
	Runner TaskRunner
	// Store holds the checkpoints (default: a fresh volatile store).
	Store *Store
	// Initial is the input state of task 1 (checkpointed at the virtual
	// boundary 0).
	Initial State
	// Resume restores the most recent valid disk checkpoint from Store
	// (RecoverLatest, skipping damaged files) and starts execution at
	// that boundary instead of boundary 0 — the cold-start path of a
	// durable job store relaunching an interrupted run. With an empty
	// store the run starts fresh; Initial is ignored whenever a
	// checkpoint is restored.
	Resume bool
	// Estimator, when non-nil, seeds the online rate estimators with
	// persisted evidence, so a resumed run keeps what its earlier life
	// had learned about the true error rates.
	Estimator *EstimatorState
	// Progress, when non-nil, is invoked right after every committed
	// disk checkpoint with the boundary, the estimator state, and the
	// schedule currently executing (including any adaptive splices; the
	// callee must not mutate it and must serialize synchronously) — the
	// durability hook a persistent job store records running(progress)
	// transitions through. It runs on the execution goroutine; keep it
	// fast.
	Progress func(boundary int, est EstimatorState, sched *schedule.Schedule)
	// Observer, when non-nil, receives every event as it happens.
	Observer func(sim.TraceEvent)
	// Faults, when non-nil, is fired at the supervisor's injection
	// points (see internal/fault) — the chaos harness's seam into the
	// commit protocol around disk checkpoints and resumes. Production
	// runs leave it nil.
	Faults fault.Injector
	// Record keeps the full event log in the report.
	Record bool
	// MaxRollbacks aborts runs that recover more than this many times
	// (fail-stop and silent combined), a guard against runners whose
	// true error rates make the schedule diverge. Zero means the
	// default of 1e6; negative disables the guard.
	MaxRollbacks int
}

// AdaptPolicy tunes adaptive re-planning. The zero value selects the
// defaults.
type AdaptPolicy struct {
	// Tolerance is the drift factor that triggers a re-plan: re-plan
	// when the observed rate of either source leaves
	// [planned/Tolerance, planned*Tolerance]. Default 2.
	Tolerance float64
	// MinEvents is the minimum number of observed arrivals of a source
	// before its estimate is trusted. Default 4.
	MinEvents int
	// MaxReplans bounds the re-plans of one run. Default 8.
	MaxReplans int
}

func (p AdaptPolicy) normalized() AdaptPolicy {
	if p.Tolerance <= 1 {
		p.Tolerance = 2
	}
	if p.MinEvents <= 0 {
		p.MinEvents = 4
	}
	if p.MaxReplans <= 0 {
		p.MaxReplans = 8
	}
	return p
}

// Counters tallies the events of one run.
type Counters struct {
	TasksRun         int64 `json:"tasks_run"` // task executions, including re-executions
	FailStop         int64 `json:"fail_stop"`
	SilentDetected   int64 `json:"silent_detected"` // corruptions caught by any verification
	DiskRecoveries   int64 `json:"disk_recoveries"`
	MemoryRecoveries int64 `json:"memory_recoveries"`
	CheckpointsMem   int64 `json:"checkpoints_memory"`
	CheckpointsDisk  int64 `json:"checkpoints_disk"`
	Verifications    int64 `json:"verifications"`
	Replans          int64 `json:"replans"`
}

// Report summarizes one run.
type Report struct {
	// Makespan is the modeled execution time in seconds: compute charged
	// by the runner plus every resilience cost, the quantity the
	// planners minimize in expectation.
	Makespan float64 `json:"makespan"`
	// Wall is the real time the run took.
	Wall time.Duration `json:"wall_ns"`
	// Events tallies what happened.
	Events Counters `json:"events"`
	// FinalSchedule is the schedule after any adaptive splices (equal to
	// the input schedule for static runs).
	FinalSchedule *schedule.Schedule `json:"final_schedule"`
	// LambdaFEstimate and LambdaSEstimate are the MLE error rates
	// observed over the run (the modeled rates when no event was seen).
	LambdaFEstimate float64 `json:"lambda_f_estimate"`
	LambdaSEstimate float64 `json:"lambda_s_estimate"`
	// Estimator is the raw evidence behind the estimates (exposure and
	// arrivals per source), the state a durable job store persists so a
	// future resume can re-seed Job.Estimator.
	Estimator EstimatorState `json:"estimator"`
	// ResumedFrom is the boundary execution started from: positive when
	// Job.Resume restored a disk checkpoint, zero for a fresh run.
	ResumedFrom int `json:"resumed_from,omitempty"`
	// Seed is the RNG seed of the run's task runner when it exposes one
	// (SimRunner does); zero otherwise. It is what a failing chaos cell
	// or a recorded run prints as the one-line repro handle.
	Seed uint64 `json:"seed,omitempty"`
	// Trace is the full event log (only when Job.Record was set).
	Trace []sim.TraceEvent `json:"trace,omitempty"`
}

// Stats is a snapshot of a Supervisor's lifetime counters.
type Stats struct {
	Jobs    uint64 `json:"jobs"`
	Replans uint64 `json:"replans"`
}

// Stats returns the supervisor's lifetime counters.
func (s *Supervisor) Stats() Stats {
	return Stats{Jobs: s.jobs.Load(), Replans: s.replans.Load()}
}

// Run executes the job under its (possibly freshly planned) schedule,
// with recovery but without adaptive re-planning.
func (s *Supervisor) Run(ctx context.Context, job Job) (*Report, error) {
	return s.run(ctx, job, nil)
}

// RunAdaptive executes the job with adaptive re-planning under pol (zero
// value = defaults).
func (s *Supervisor) RunAdaptive(ctx context.Context, job Job, pol AdaptPolicy) (*Report, error) {
	p := pol.normalized()
	return s.run(ctx, job, &p)
}

// execution is the mutable state of one run.
type execution struct {
	sup   *Supervisor
	job   Job
	adapt *AdaptPolicy

	c       *chain.Chain
	planned platform.Platform // rates the current schedule is planned for
	sched   *schedule.Schedule
	runner  TaskRunner
	store   *Store

	stations []schedule.Station
	nextIdx  []int

	t        float64
	cur      int
	state    State
	attempts []int
	est      estimator
	counters Counters
	trace    []sim.TraceEvent

	// span is the run's root span (from the caller's context; nil when
	// untraced — every child/attr call is nil-safe). Spans record wall
	// time only: nothing here touches e.t, the event log, or anything
	// else that feeds replay canonical bytes.
	span *obs.Span
}

func (s *Supervisor) run(ctx context.Context, job Job, adapt *AdaptPolicy) (*Report, error) {
	start := time.Now()
	if job.Chain == nil || job.Chain.Len() == 0 {
		return nil, fmt.Errorf("runtime: empty chain")
	}
	if err := job.Platform.Validate(); err != nil {
		return nil, fmt.Errorf("runtime: %w", err)
	}
	if job.Costs != nil {
		if job.Costs.Len() != job.Chain.Len() {
			return nil, fmt.Errorf("runtime: cost table for %d tasks but chain has %d",
				job.Costs.Len(), job.Chain.Len())
		}
	}
	if job.Algorithm == "" {
		job.Algorithm = core.AlgADMV
	}
	if job.Runner == nil {
		job.Runner = NopRunner{}
	}
	if job.Store == nil {
		st, err := NewStore("")
		if err != nil {
			return nil, err
		}
		job.Store = st
	}
	if job.MaxRollbacks == 0 {
		job.MaxRollbacks = 1_000_000
	}

	sched := job.Schedule
	if sched == nil {
		res, err := s.eng.Plan(ctx, engine.Request{
			Algorithm: job.Algorithm, Chain: job.Chain, Platform: job.Platform,
			Opts: core.Options{Costs: job.Costs, MaxDiskCheckpoints: job.MaxDiskCheckpoints},
		})
		if err != nil {
			return nil, fmt.Errorf("runtime: planning: %w", err)
		}
		sched = res.Schedule
	} else {
		if sched.Len() != job.Chain.Len() {
			return nil, fmt.Errorf("runtime: schedule for %d tasks but chain has %d",
				sched.Len(), job.Chain.Len())
		}
		if err := sched.ValidateComplete(); err != nil {
			return nil, fmt.Errorf("runtime: %w", err)
		}
		sched = sched.Clone()
	}

	e := &execution{
		sup: s, job: job, adapt: adapt,
		c: job.Chain, planned: job.Platform, sched: sched,
		runner: job.Runner, store: job.Store,
		state:    append(State(nil), job.Initial...),
		attempts: make([]int, job.Chain.Len()+1),
		span:     obs.SpanFrom(ctx),
	}
	if s.m != nil {
		job.Store.instrument(s.m.CkptFsyncSeconds, s.m.CkptBytes)
	}
	if job.Estimator != nil {
		e.est.restore(*job.Estimator)
	}
	e.rebuildStations()
	s.jobs.Add(1)

	rep, err := e.execute(ctx)
	if err != nil {
		return nil, err
	}
	rep.Wall = time.Since(start)
	return rep, nil
}

// rebuildStations recomputes the station walk and the rollback index
// (nextIdx[pos] = first station strictly after boundary pos) after the
// schedule changes.
func (e *execution) rebuildStations() {
	e.stations = e.sched.Stations()
	n := e.c.Len()
	e.nextIdx = make([]int, n+1)
	idx := 0
	for pos := 0; pos <= n; pos++ {
		for idx < len(e.stations) && e.stations[idx].Pos <= pos {
			idx++
		}
		e.nextIdx[pos] = idx
	}
}

// costAt returns the effective resilience costs of boundary i.
func (e *execution) costAt(i int) platform.BoundaryCosts {
	if e.job.Costs != nil {
		return e.job.Costs.At(i)
	}
	p := e.job.Platform
	return platform.BoundaryCosts{CD: p.CD, CM: p.CM, RD: p.RD, RM: p.RM, VStar: p.VStar, V: p.V}
}

// fire triggers the job's fault injector at point p (no-op when none is
// installed) and returns the possibly replaced payload.
func (e *execution) fire(p fault.Point, payload []byte) ([]byte, error) {
	return fault.Fire(e.job.Faults, p, payload)
}

func (e *execution) emit(kind string, pos int) {
	ev := sim.TraceEvent{T: e.t, Kind: kind, Pos: pos}
	if e.job.Observer != nil {
		e.job.Observer(ev)
	}
	if e.job.Record {
		e.trace = append(e.trace, ev)
	}
}

func (e *execution) execute(ctx context.Context) (*Report, error) {
	// A resumed run restores the most recent valid disk checkpoint and
	// continues from its boundary; everything else starts at the virtual
	// task T0, whose state is checkpointed everywhere at no cost so
	// recovery to boundary 0 is always possible.
	resumed := -1
	if e.job.Resume {
		rsp := e.span.Child("runtime.resume")
		b, data, err := e.store.Resume()
		if rsp != nil {
			rsp.SetAttrInt("boundary", int64(b))
			rsp.End()
		}
		if err != nil {
			return nil, fmt.Errorf("runtime: resume: %w", err)
		}
		if b > e.c.Len() {
			// A checkpoint from some other (longer) chain's directory, or
			// a corrupted boundary header: refuse rather than index past
			// the schedule.
			return nil, fmt.Errorf("runtime: resume: recovered checkpoint at boundary %d but the chain has %d tasks",
				b, e.c.Len())
		}
		if b >= 0 {
			// The resume-state injection point models corruption smuggled
			// in through recovery itself: the restored bytes may come back
			// mutated, and only the schedule's verifications can tell.
			data, err = e.fire(fault.RuntimeResumeState, data)
			if err != nil {
				return nil, fmt.Errorf("runtime: resume: %w", err)
			}
			e.cur = b
			e.state = data
			resumed = b
			if b > 0 {
				e.emit("resume", b)
			}
		}
	}
	if resumed < 0 {
		e.store.SaveMemory(0, e.state)
		if err := e.store.SaveDisk(0, e.state); err != nil {
			return nil, err
		}
	}

	i := e.nextIdx[e.cur]
	for i < len(e.stations) {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		if e.job.MaxRollbacks > 0 &&
			e.counters.DiskRecoveries+e.counters.MemoryRecoveries > int64(e.job.MaxRollbacks) {
			return nil, fmt.Errorf("runtime: aborted after %d rollbacks (diverging run)", e.job.MaxRollbacks)
		}
		st := e.stations[i]

		recovered, err := e.runSegment(ctx, st.Pos)
		if err != nil {
			return nil, err
		}
		if recovered {
			i = e.nextIdx[e.cur]
			continue
		}

		next, err := e.verifyStation(ctx, st)
		if err != nil {
			return nil, err
		}
		i = next
	}
	e.emit("done", e.c.Len())

	return &Report{
		Makespan:        e.t,
		Events:          e.counters,
		FinalSchedule:   e.sched,
		LambdaFEstimate: e.est.failStop.rate(e.job.Platform.LambdaF),
		LambdaSEstimate: e.est.silent.rate(e.job.Platform.LambdaS),
		Estimator:       e.est.state(),
		ResumedFrom:     max(resumed, 0),
		Seed:            runnerSeed(e.runner),
		Trace:           e.trace,
	}, nil
}

// runSegment executes tasks cur+1..to. It reports recovered=true when a
// fail-stop error interrupted the segment and the execution was restored
// from the disk tier.
func (e *execution) runSegment(ctx context.Context, to int) (recovered bool, err error) {
	m := e.sup.m
	for k := e.cur + 1; k <= to; k++ {
		task := e.c.Task(k)
		tsp := e.span.Child("runtime.task")
		var start time.Time
		if m != nil {
			start = time.Now()
		}
		res, err := e.runner.Run(ctx, TaskSpec{
			Index: k, Name: task.Name, Weight: task.Weight,
			Attempt: e.attempts[k], State: e.state,
		})
		if m != nil {
			m.TaskSeconds.ObserveSince(start)
		}
		if tsp != nil {
			tsp.SetAttrInt("pos", int64(k))
			if e.attempts[k] > 0 {
				tsp.SetAttrInt("attempt", int64(e.attempts[k]))
			}
			tsp.End()
		}
		if err != nil {
			return false, fmt.Errorf("runtime: task %d: %w", k, err)
		}
		e.attempts[k]++
		e.counters.TasksRun++
		e.t += res.Elapsed
		e.est.observeCompute(res.Elapsed)

		if res.FailStop {
			e.counters.FailStop++
			e.est.failStop.event()
			e.emit("failstop", k)
			if err := e.recoverDisk(ctx); err != nil {
				return false, err
			}
			return true, nil
		}
		e.state = res.State
		e.emit("compute", k)
	}
	return false, nil
}

// recoverDisk restores the last disk checkpoint after a fail-stop: the
// memory tier is gone with the crash, so it is reseeded from the disk
// state.
func (e *execution) recoverDisk(ctx context.Context) error {
	rsp := e.span.Child("runtime.recover.disk")
	var start time.Time
	if e.sup.recDisk != nil {
		start = time.Now()
	}
	b, data, err := e.store.LoadDisk()
	if e.sup.recDisk != nil {
		e.sup.recDisk.ObserveSince(start)
	}
	if rsp != nil {
		rsp.SetAttrInt("boundary", int64(b))
		rsp.End()
	}
	if err != nil {
		return fmt.Errorf("runtime: fail-stop recovery: %w", err)
	}
	if b > 0 {
		e.t += e.costAt(b).RD
	}
	e.counters.DiskRecoveries++
	e.state = data
	e.store.SaveMemory(b, data)
	e.cur = b
	e.emit("reset", b)
	e.maybeReplan(ctx)
	return nil
}

// recoverMemory rolls back to the last verified in-memory checkpoint
// after a detected silent corruption.
func (e *execution) recoverMemory() error {
	rsp := e.span.Child("runtime.recover.memory")
	var start time.Time
	if e.sup.recMem != nil {
		start = time.Now()
	}
	b, data, err := e.store.LoadMemory()
	if e.sup.recMem != nil {
		e.sup.recMem.ObserveSince(start)
	}
	if rsp != nil {
		rsp.SetAttrInt("boundary", int64(b))
		rsp.End()
	}
	if err != nil {
		return fmt.Errorf("runtime: silent-error rollback: %w", err)
	}
	if b > 0 {
		e.t += e.costAt(b).RM
	}
	e.counters.MemoryRecoveries++
	e.state = data
	e.cur = b
	e.emit("rollback", b)
	return nil
}

// verifyStation runs the station's verification and checkpoints,
// returning the index of the next station to walk to.
func (e *execution) verifyStation(ctx context.Context, st schedule.Station) (int, error) {
	bc := e.costAt(st.Pos)
	partial := !st.Action.Has(schedule.Guaranteed)
	if partial {
		e.t += bc.V
	} else {
		e.t += bc.VStar
	}
	e.counters.Verifications++
	e.emit("verify", st.Pos)

	m := e.sup.m
	vsp := e.span.Child("runtime.verify")
	var vstart time.Time
	if m != nil {
		vstart = time.Now()
	}
	ok, err := e.runner.Verify(ctx, st.Pos, e.state, partial)
	if m != nil {
		m.VerifySeconds.ObserveSince(vstart)
	}
	if vsp != nil {
		vsp.SetAttrInt("pos", int64(st.Pos))
		if partial {
			vsp.SetAttr("partial", "true")
		}
		if !ok {
			vsp.SetAttr("detected", "true")
		}
		vsp.End()
	}
	if err != nil {
		return 0, fmt.Errorf("runtime: verification at %d: %w", st.Pos, err)
	}
	if !ok {
		e.counters.SilentDetected++
		e.est.silent.event()
		e.emit("detect", st.Pos)
		if err := e.recoverMemory(); err != nil {
			return 0, err
		}
		return e.nextIdx[e.cur], nil
	}

	if st.Action.Has(schedule.Memory) {
		e.t += bc.CM
		e.store.SaveMemory(st.Pos, e.state)
		e.counters.CheckpointsMem++
		e.emit("ckpt-mem", st.Pos)
	}
	if st.Action.Has(schedule.Disk) {
		e.t += bc.CD
		csp := e.span.Child("runtime.ckpt.commit")
		var cstart time.Time
		if m != nil {
			cstart = time.Now()
		}
		commit := func() error {
			// The three injection points bracket the two-phase commit of a
			// disk checkpoint: before the checkpoint write (nothing durable
			// yet), between checkpoint and journal commit (the torn window a
			// resume must reconcile), and after both committed.
			if _, err := e.fire(fault.RuntimeBeforeDiskCkpt, nil); err != nil {
				return fmt.Errorf("runtime: checkpoint at %d: %w", st.Pos, err)
			}
			if err := e.store.SaveDisk(st.Pos, e.state); err != nil {
				return err
			}
			if _, err := e.fire(fault.RuntimeAfterDiskCkpt, nil); err != nil {
				return fmt.Errorf("runtime: checkpoint at %d: %w", st.Pos, err)
			}
			e.counters.CheckpointsDisk++
			e.emit("ckpt-disk", st.Pos)
			if e.job.Progress != nil {
				e.job.Progress(st.Pos, e.est.state(), e.sched)
			}
			if _, err := e.fire(fault.RuntimeAfterCommit, nil); err != nil {
				return fmt.Errorf("runtime: checkpoint at %d: %w", st.Pos, err)
			}
			return nil
		}
		err := commit()
		if m != nil {
			m.CkptCommitSeconds.ObserveSince(cstart)
		}
		if csp != nil {
			csp.SetAttrInt("pos", int64(st.Pos))
			csp.SetAttrInt("bytes", int64(len(e.state)))
			csp.End()
		}
		if err != nil {
			return 0, err
		}
	}
	e.cur = st.Pos
	next := e.nextIdx[e.cur]
	if st.Action.Has(schedule.Disk) {
		// A disk checkpoint is a natural splice point: everything behind
		// it is committed, everything ahead is still plannable.
		e.maybeReplan(ctx)
		next = e.nextIdx[e.cur]
	}
	return next, nil
}

// maybeReplan re-solves the DP for the remaining suffix when the
// observed error rates have drifted beyond the policy tolerance from the
// rates the current schedule was planned for, and splices the new
// schedule in. Called only at disk-checkpoint boundaries (including
// right after a disk recovery), where the model's "start fresh from a
// stored state" assumption holds.
//
// The re-solve is ReplanSuffix: the solver kernel, in place, under the
// disk-checkpoint budget the committed prefix left. An exhausted budget
// skips the re-plan silently.
func (e *execution) maybeReplan(ctx context.Context) {
	if e.adapt == nil || e.cur >= e.c.Len() {
		return
	}
	if e.counters.Replans >= int64(e.adapt.MaxReplans) {
		return
	}
	if ctx.Err() != nil {
		return
	}
	fDrift := e.est.failStop.drifted(e.planned.LambdaF, e.adapt.Tolerance, e.adapt.MinEvents)
	sDrift := e.est.silent.drifted(e.planned.LambdaS, e.adapt.Tolerance, e.adapt.MinEvents)
	if !fDrift && !sDrift {
		return
	}

	// Re-plan the suffix under the observed rates (per source, only once
	// the arrivals — or a long clean exposure — back the estimate; the
	// other keeps its planned value).
	updated := e.planned
	if fDrift {
		updated.LambdaF = e.est.failStop.replanRate(updated.LambdaF, e.adapt.MinEvents)
	}
	if sDrift {
		updated.LambdaS = e.est.silent.replanRate(updated.LambdaS, e.adapt.MinEvents)
	}

	var rstart time.Time
	if e.sup.m != nil {
		rstart = time.Now()
	}
	res, err := ReplanSuffix(ctx, e.sup.kern, e.job.Algorithm, e.c, updated, e.sched, e.cur,
		core.Options{Costs: e.job.Costs, MaxDiskCheckpoints: e.job.MaxDiskCheckpoints})
	if errors.Is(err, errNoSuffixBudget) {
		return // no budget left to re-plan the suffix under
	}
	if e.sup.m != nil {
		e.sup.m.ReplanSeconds.ObserveSince(rstart)
	}
	if err != nil {
		// A failed re-plan is not fatal: keep executing the current
		// schedule.
		return
	}
	e.sched.SpliceSuffix(e.cur, res.Schedule)
	e.planned = updated
	e.rebuildStations()
	e.counters.Replans++
	e.sup.replans.Add(1)
	e.emit("replan", e.cur)
}

// errNoSuffixBudget is ReplanSuffix's answer when the committed prefix
// has spent the whole run's disk-checkpoint budget.
var errNoSuffixBudget = errors.New("no disk-checkpoint budget left for the suffix")

// ReplanSuffix re-solves the dynamic program for the window after
// boundary from of sched under platform p, straight through the solver
// kernel: the original chain and cost table, pooled scratch sized to
// the suffix, no synthetic suffix chain. opts.MaxDiskCheckpoints is the
// whole run's disk-checkpoint budget (0 = unlimited); the suffix gets
// only what the committed prefix of sched has not spent, clamped to its
// length, and an exhausted budget fails before any solve — the suffix's
// mandatory final checkpoint alone would bust the bound. The solve is
// serial (SolveWorkers 1): concurrent jobs are the parallelism, and a
// re-plan must not fan out across every core mid-run. The re-solve is
// a runtime.replan span under ctx's span.
func ReplanSuffix(ctx context.Context, k *core.Kernel, alg core.Algorithm, c *chain.Chain,
	p platform.Platform, sched *schedule.Schedule, from int, opts core.Options) (*core.Result, error) {
	if opts.MaxDiskCheckpoints > 0 {
		used := 0
		for pos := 1; pos <= from; pos++ {
			if sched.At(pos).Has(schedule.Disk) {
				used++
			}
		}
		rem := opts.MaxDiskCheckpoints - used
		if rem < 1 {
			return nil, errNoSuffixBudget
		}
		opts.MaxDiskCheckpoints = min(rem, c.Len()-from)
	}
	opts.SolveWorkers = 1
	sp := obs.SpanFrom(ctx).Child("runtime.replan")
	res, err := k.ReplanSuffix(alg, c, p, from, opts)
	if sp != nil {
		sp.SetAttrInt("from", int64(from))
		sp.End()
	}
	return res, err
}
