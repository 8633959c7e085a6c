// Job endpoints: chainserve doesn't just hand out schedules, it
// executes them. POST /v1/jobs plans a chain and runs it through the
// runtime supervisor with a fault-injecting runner (optionally with
// misspecified true rates and adaptive re-planning); GET /v1/jobs/{id}
// reports status and the final report; GET /v1/jobs/{id}/events streams
// the execution's event log as NDJSON while it happens; DELETE
// /v1/jobs/{id} cancels a running job.
//
// Every lifecycle transition (created -> planned -> running(progress)
// -> done/failed/cancelled) is appended to a jobstore.Store. With the
// default in-memory store that is bookkeeping; with -store-dir it is a
// write-ahead journal that lets a restarted service list finished jobs
// and resume interrupted ones from their disk checkpoints (see
// recover.go).
package main

import (
	"context"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"time"

	"chainckpt/internal/chain"
	"chainckpt/internal/engine"
	"chainckpt/internal/jobstore"
	"chainckpt/internal/obs"
	"chainckpt/internal/platform"
	"chainckpt/internal/replay"
	"chainckpt/internal/runtime"
	"chainckpt/internal/schedule"
	"chainckpt/internal/sim"
)

// jobRequest is the JSON shape of one execution request: a planning
// request plus runtime knobs.
type jobRequest struct {
	planRequest
	// Adaptive enables mid-run suffix re-planning on rate drift.
	Adaptive bool `json:"adaptive,omitempty"`
	// Seed fixes the fault sequence (default: derived from the job id).
	Seed uint64 `json:"seed,omitempty"`
	// ScaleF and ScaleS set the injected true error rates as multiples
	// of the platform's modeled rates (default 1: well-specified).
	ScaleF float64 `json:"true_rate_scale_f,omitempty"`
	ScaleS float64 `json:"true_rate_scale_s,omitempty"`
	// Runner selects the task runner: sim (fault-injecting, default),
	// nop (instant, error-free) or sleep (wall-clock paced, for watching
	// a job progress — and for killing a service mid-job to exercise
	// restart-resume).
	Runner string `json:"runner,omitempty"`
	// SleepScale sets the sleep runner's wall seconds per modeled second
	// (default 1e-4).
	SleepScale float64 `json:"sleep_scale,omitempty"`
	// Retention bounds how many disk checkpoint files the job keeps
	// (0 = all). A long resumable chain places many disk checkpoints,
	// but only the newest can ever be restored from; retaining a couple
	// (for tolerance to a corrupted newest file) bounds the job's disk
	// footprint without losing resumability — the same bound is applied
	// when a restart resumes the job.
	Retention int `json:"retention,omitempty"`
}

// validate rejects the knob combinations the runtime would choke on.
func (jr *jobRequest) validate() error {
	if jr.ScaleF < 0 || jr.ScaleS < 0 {
		return fmt.Errorf("rate scales must be non-negative")
	}
	if jr.SleepScale < 0 {
		return fmt.Errorf("sleep_scale must be non-negative")
	}
	if jr.Retention < 0 {
		return fmt.Errorf("retention must be non-negative")
	}
	switch jr.Runner {
	case "", "sim", "nop", "sleep":
		return nil
	}
	return fmt.Errorf("unknown runner %q (want sim, nop or sleep)", jr.Runner)
}

// normalize applies the defaults, so the marshaled spec a restart
// replays compiles to the same job.
func (jr *jobRequest) normalize() {
	if jr.ScaleF == 0 {
		jr.ScaleF = 1
	}
	if jr.ScaleS == 0 {
		jr.ScaleS = 1
	}
}

// newRunner builds the job's task runner.
func (jr *jobRequest) newRunner(p platform.Platform, seed uint64) runtime.TaskRunner {
	switch jr.Runner {
	case "nop":
		return runtime.NopRunner{}
	case "sleep":
		scale := jr.SleepScale
		if scale == 0 {
			scale = 1e-4
		}
		return runtime.SleepRunner{Scale: scale}
	default:
		return runtime.NewMisspecifiedRunner(p, jr.ScaleF, jr.ScaleS, seed)
	}
}

// jobStatus is the wire representation of a job: a view of its durable
// record plus the in-memory report (see job.view).
type jobStatus struct {
	ID        string  `json:"id"`
	Status    string  `json:"status"` // running | done | failed | cancelled
	Adaptive  bool    `json:"adaptive,omitempty"`
	Algorithm string  `json:"algorithm,omitempty"`
	Predicted float64 `json:"predicted_makespan,omitempty"`
	// Resumes counts service restarts that relaunched this job.
	Resumes   int             `json:"resumes,omitempty"`
	CreatedAt time.Time       `json:"created_at"`
	Report    *runtime.Report `json:"report,omitempty"`
	Error     string          `json:"error,omitempty"`
}

// job is one tracked execution. rec, the job's durable record, is the
// only lifecycle state it holds; jobManager.transition replaces it once
// the store has taken the next one. report is the run's report, whose
// trace is the event log (for a job adopted in its terminal state, the
// persisted trace-free report). Event followers block on cond until new
// events arrive or the run returns (ended). recorder, while attached,
// event-sources the execution (trace frames, lifecycle records,
// estimator snapshots) into a replay.Recording whose canonical bytes
// land in recording when the run is sealed; sealing drops the recorder.
type job struct {
	mu        sync.Mutex
	cond      *sync.Cond
	rec       jobstore.Record
	report    *runtime.Report
	events    []sim.TraceEvent
	ended     bool
	cancelled bool
	cancel    context.CancelFunc

	recorder  *replay.Recorder
	recording []byte
	recErr    error
}

// record snapshots the job's current durable record.
func (j *job) record() jobstore.Record {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.rec
}

// attachRecorder starts event-sourcing the job: initial carries the
// lifecycle records journaled before the recorder existed (see
// jobManager.register); every later transition is fed by
// jobManager.transition.
func (j *job) attachRecorder(rec *replay.Recorder, initial ...jobstore.Record) {
	for _, r := range initial {
		rec.Lifecycle(r)
	}
	j.mu.Lock()
	j.recorder = rec
	j.mu.Unlock()
}

// sealRecording publishes the canonical recording bytes (or the sealing
// failure), drops the recorder and wakes trace waiters.
func (j *job) sealRecording(data []byte, err error) {
	j.mu.Lock()
	j.recording, j.recErr, j.recorder = data, err, nil
	j.cond.Broadcast()
	j.mu.Unlock()
}

// errNoRecording marks a job that never had a recorder: one adopted in
// its terminal state from a previous service life.
var errNoRecording = fmt.Errorf("job has no recording (finished in a previous service life)")

// waitRecording blocks until the job's recording is sealed, the sealing
// fails, or ctx is done. Callers must arrange a cond broadcast on ctx
// cancellation (wakeOnDone).
func (j *job) waitRecording(ctx context.Context) ([]byte, error) {
	j.mu.Lock()
	defer j.mu.Unlock()
	for j.recorder != nil && ctx.Err() == nil {
		j.cond.Wait()
	}
	switch {
	case j.recording != nil:
		return j.recording, nil
	case j.recErr != nil:
		return nil, j.recErr
	case j.recorder == nil:
		return nil, errNoRecording
	default:
		return nil, ctx.Err()
	}
}

// wakeOnDone broadcasts on the job's cond once ctx is done, so a
// handler blocked on the job notices its client went away. Call the
// returned stop when done waiting.
func (j *job) wakeOnDone(ctx context.Context) (stop func() bool) {
	return context.AfterFunc(ctx, func() {
		j.mu.Lock()
		j.cond.Broadcast()
		j.mu.Unlock()
	})
}

// append records one event and wakes followers.
func (j *job) append(ev sim.TraceEvent) {
	j.mu.Lock()
	j.events = append(j.events, ev)
	j.cond.Broadcast()
	j.mu.Unlock()
}

// end marks the run returned: the report takes the event log as its
// trace, and event followers reach EOF. It reports whether a cancel was
// requested, which is final once the run has returned.
func (j *job) end(rep *runtime.Report) (cancelled bool) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if rep != nil {
		rep.Trace = j.events
	}
	j.report, j.ended = rep, true
	j.cond.Broadcast()
	return j.cancelled
}

// requestCancel marks the job cancelled and stops its execution,
// reporting whether the run was still going.
func (j *job) requestCancel() bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.ended {
		return false
	}
	j.cancelled = true
	if j.cancel != nil {
		j.cancel()
	}
	return true
}

func (j *job) setCancel(cancel context.CancelFunc) {
	j.mu.Lock()
	j.cancel = cancel
	cancelled := j.cancelled
	j.mu.Unlock()
	// A DELETE that raced job admission was acknowledged with
	// "cancelling" before the cancel func existed; honor it now.
	if cancelled {
		cancel()
	}
}

// next returns events[from:] once new data or completion is available,
// blocking otherwise. The returned done flag is true when no further
// events will come. A cancelled ctx unblocks with done=true.
func (j *job) next(ctx context.Context, from int) ([]sim.TraceEvent, bool) {
	j.mu.Lock()
	defer j.mu.Unlock()
	for len(j.events) <= from && !j.ended && ctx.Err() == nil {
		j.cond.Wait()
	}
	if ctx.Err() != nil {
		return nil, true
	}
	out := make([]sim.TraceEvent, len(j.events)-from)
	copy(out, j.events[from:])
	return out, j.ended && from+len(out) == len(j.events)
}

// view builds the wire status from the durable record: a job is
// running until its terminal record is published. Callers hold j.mu.
func (j *job) view() jobStatus {
	r := &j.rec
	st := jobStatus{
		ID: r.ID, Status: "running", Adaptive: r.Adaptive, Algorithm: r.Algorithm,
		Predicted: r.Predicted, Resumes: r.Resumes, CreatedAt: r.CreatedAt, Error: r.Error,
	}
	if r.State.Terminal() {
		st.Status, st.Report = string(r.State), j.report
	}
	return st
}

func (j *job) snapshot() jobStatus {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.view()
}

// summary is the status without the event trace, for listings and
// cancel conflicts: a full report of a hot run carries thousands of
// events. These answers are about how a job ended, so once the run has
// returned, summary waits (until ctx is done) for the terminal record to
// be published rather than show a finished run as running.
func (j *job) summary(ctx context.Context) jobStatus {
	defer j.wakeOnDone(ctx)()
	j.mu.Lock()
	for j.ended && !j.rec.State.Terminal() && ctx.Err() == nil {
		j.cond.Wait()
	}
	st := j.view()
	j.mu.Unlock()
	if st.Report != nil && st.Report.Trace != nil {
		rep := *st.Report
		rep.Trace = nil
		st.Report = &rep
	}
	return st
}

// errTooManyJobs is the backpressure signal of the job manager.
var errTooManyJobs = fmt.Errorf("too many jobs executing; retry later")

// jobManager tracks jobs by id and persists their lifecycle through a
// jobstore.Store. Finished jobs are retained (newest first) up to
// maxJobs; concurrent executions are capped at maxRunning so a request
// burst cannot spawn unbounded goroutines.
type jobManager struct {
	mu         sync.Mutex
	seq        uint64
	jobs       map[string]*job
	order      []string // creation order, for eviction
	maxJobs    int
	maxRunning int

	store    jobstore.Store
	ckptRoot string // per-job checkpoint directories ("" = volatile)

	// accepted counts every job create admitted in this service life
	// (retained or since evicted); storeErrors counts failed store
	// writes. Both are nil-safe, registered by the server's initObs.
	accepted    *obs.Counter
	storeErrors *obs.Counter
}

// newJobManager builds a manager over the given durable store. Job
// numbering continues from the store's watermark, so ids stay unique
// across restarts.
func newJobManager(store jobstore.Store, ckptRoot string) *jobManager {
	return &jobManager{
		jobs: make(map[string]*job), maxJobs: 512, maxRunning: 32,
		store: store, ckptRoot: ckptRoot, seq: store.MaxSeq(),
	}
}

// ckptDir returns the checkpoint directory of one job, or "" when the
// manager runs volatile.
func (m *jobManager) ckptDir(id string) string {
	if m.ckptRoot == "" {
		return ""
	}
	return filepath.Join(m.ckptRoot, "jobs", id)
}

// newCheckpointStore opens the job's checkpoint store: fingerprinted
// files under the store root, or a volatile store without one.
// retention > 0 bounds the disk checkpoints kept (jobRequest.Retention
// — applied identically on admission and on restart-resume, so the
// bound survives the service dying).
func (m *jobManager) newCheckpointStore(id string, retention int) (*runtime.Store, error) {
	ck, err := runtime.NewStore(m.ckptDir(id))
	if err != nil {
		return nil, err
	}
	if retention > 0 {
		ck.SetRetention(retention)
	}
	return ck, nil
}

// transition journals the job's next record: mut applied to the current
// one, with the version bumped and the update stamped. It is the only
// writer of a job's record, and readers see the new record only once
// store.Append has returned. A failed append is counted, not propagated
// into the run (a full disk must degrade durability, not abort runs);
// the result reports whether it committed, so callers can keep state
// (checkpoint directories) whose record did not reach its terminal
// form. Transitions of one job never race: one goroutine at a time owns
// its lifecycle, the registering caller and then the run. An attached
// recorder sees every transition, normalized, in order.
func (m *jobManager) transition(j *job, mut func(*jobstore.Record)) bool {
	j.mu.Lock()
	rec, recorder := j.rec, j.recorder
	j.mu.Unlock()
	rec.Version++
	rec.UpdatedAt = time.Now().UTC()
	mut(&rec)
	if recorder != nil {
		recorder.Lifecycle(rec)
	}
	err := m.store.Append(rec)
	if err != nil {
		m.storeErrors.Add(1)
	}
	j.mu.Lock()
	j.rec = rec
	j.cond.Broadcast()
	j.mu.Unlock()
	return err == nil
}

// admission is the transitions that bring a new job into service:
// created, then planned with its schedule and predicted makespan
// (planning precedes admission).
func admission(sched json.RawMessage, predicted float64) []func(*jobstore.Record) {
	return []func(*jobstore.Record){
		func(r *jobstore.Record) { r.State = jobstore.StateCreated },
		func(r *jobstore.Record) {
			r.State, r.Schedule, r.Predicted = jobstore.StatePlanned, sched, predicted
		},
	}
}

// register enters a job into the table and journals, in order, the
// transitions that bring it into service, returning the records they
// journaled: what a recorder attached afterwards must see first.
//
// A record without an id is a new job. It is admitted against the
// running cap, evicts the oldest finished jobs beyond the table's
// bound, and is numbered and stamped here; its seed is the requested
// rec.Seed, else its sequence number, and travels in the durable record
// so a failed run can always be reproduced from its journal alone. A
// journaled record (resumed, or adopted as it ended) keeps its
// identity, and numbering continues past it.
func (m *jobManager) register(rec jobstore.Record, steps ...func(*jobstore.Record)) (*job, []jobstore.Record, error) {
	m.mu.Lock()
	var evicted []string
	if rec.ID == "" {
		if m.runningLocked() >= m.maxRunning {
			m.mu.Unlock()
			return nil, nil, errTooManyJobs
		}
		evicted = m.evictLocked()
		m.accepted.Inc()
		rec.Seq = m.seq + 1
		rec.ID = fmt.Sprintf("job-%d", rec.Seq)
		if rec.Seed == 0 {
			rec.Seed = rec.Seq
		}
		rec.CreatedAt = time.Now().UTC()
	}
	m.seq = max(m.seq, rec.Seq)
	j := &job{rec: rec, ended: rec.State.Terminal()}
	j.cond = sync.NewCond(&j.mu)
	if len(rec.Report) > 0 {
		var rep runtime.Report
		if err := json.Unmarshal(rec.Report, &rep); err == nil {
			j.report = &rep
		}
	}
	m.jobs[rec.ID] = j
	m.order = append(m.order, rec.ID)
	m.mu.Unlock()

	// All disk work — tombstoning and checkpoint cleanup for evicted
	// jobs, the fsync'd transitions — happens outside the manager lock,
	// so durability never serializes the whole job API behind the disk.
	for _, id := range evicted {
		if err := m.store.Delete(id); err != nil {
			m.storeErrors.Add(1)
		}
		if dir := m.ckptDir(id); dir != "" {
			os.RemoveAll(dir)
		}
	}
	journaled := make([]jobstore.Record, 0, len(steps))
	for _, step := range steps {
		m.transition(j, step)
		journaled = append(journaled, j.record())
	}
	return j, journaled, nil
}

// evictLocked drops the oldest jobs whose terminal record is published
// beyond the retention bound from the in-memory map, returning their
// ids; caller holds m.mu and performs the disk half (store tombstone,
// checkpoint-directory removal) after releasing it.
func (m *jobManager) evictLocked() []string {
	var evicted []string
	for len(m.jobs) >= m.maxJobs {
		found := false
		for i, id := range m.order {
			if j, ok := m.jobs[id]; ok && j.record().State.Terminal() {
				delete(m.jobs, id)
				m.order = append(m.order[:i], m.order[i+1:]...)
				evicted = append(evicted, id)
				found = true
				break
			}
		}
		if !found {
			break // everything retained is still running
		}
	}
	return evicted
}

// progress persists one running(progress) transition: the boundary just
// committed to disk, the estimator evidence at that moment, and the
// schedule currently executing — adaptive suffix splices must reach the
// journal, or a restart would resume against the original schedule and
// miscount its disk-checkpoint budget. The schedule is marshaled here,
// synchronously on the execution goroutine, because the supervisor may
// splice it right after the hook returns.
func (m *jobManager) progress(j *job, boundary int, est runtime.EstimatorState, sched *schedule.Schedule) {
	estJSON, err := json.Marshal(est)
	if err != nil {
		estJSON = nil
	}
	schedJSON, schedErr := json.Marshal(sched)
	m.transition(j, func(r *jobstore.Record) {
		r.State = jobstore.StateRunning
		r.Progress = boundary
		r.Estimator = estJSON
		if schedErr == nil {
			r.Schedule = schedJSON
		}
	})
}

// finish ends the job's run and journals its outcome: the one place a
// run's result maps to done, failed or cancelled. Event followers are
// released first; the status turns terminal once the store has taken
// the terminal record. The persisted report drops the trace (the event
// log of a long run dwarfs the record). A finished job's checkpoints
// are garbage and their directory is removed.
func (m *jobManager) finish(j *job, rep *runtime.Report, err error) jobstore.State {
	state, msg := jobstore.StateDone, ""
	if cancelled := j.end(rep); err != nil {
		state, msg = jobstore.StateFailed, err.Error()
		if cancelled {
			state = jobstore.StateCancelled
		}
	}
	var repJSON json.RawMessage
	if rep != nil {
		trimmed := *rep
		trimmed.Trace = nil
		if b, merr := json.Marshal(&trimmed); merr == nil {
			repJSON = b
		}
	}
	persisted := m.transition(j, func(r *jobstore.Record) {
		r.State, r.Error, r.Report = state, msg, repJSON
		if rep != nil {
			r.Progress = rep.FinalSchedule.Len()
		}
	})
	// Only discard the checkpoints once the terminal record is durable:
	// if the append failed (store closed mid-shutdown, disk full), the
	// record still says running and the next boot must be able to resume
	// from these files instead of re-executing the chain.
	if dir := m.ckptDir(j.record().ID); dir != "" && persisted {
		os.RemoveAll(dir)
	}
	return state
}

func (m *jobManager) get(id string) (*job, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	j, ok := m.jobs[id]
	return j, ok
}

// list summarizes the retained jobs in creation order.
func (m *jobManager) list(ctx context.Context) []jobStatus {
	m.mu.Lock()
	jobs := make([]*job, 0, len(m.order))
	for _, id := range m.order {
		if j, ok := m.jobs[id]; ok {
			jobs = append(jobs, j)
		}
	}
	m.mu.Unlock()
	out := make([]jobStatus, len(jobs))
	for i, j := range jobs {
		out[i] = j.summary(ctx)
	}
	return out
}

// running counts the jobs whose run has not returned.
func (m *jobManager) running() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.runningLocked()
}

func (m *jobManager) runningLocked() int {
	running := 0
	for _, j := range m.jobs {
		j.mu.Lock()
		if !j.ended {
			running++
		}
		j.mu.Unlock()
	}
	return running
}

// start launches a registered job: it attaches the job's recorder,
// seeded with the lifecycle records registration journaled (initial),
// builds the runtime.Job from the compiled request and launches it.
// sched is the schedule to execute and ck the job's checkpoint store;
// est, non-nil for a resumed job, seeds the rate estimators with the
// evidence of its earlier lives and resumes the run from ck's newest
// checkpoint.
func (s *server) start(j *job, initial []jobstore.Record, jr *jobRequest, req engine.Request,
	c *chain.Chain, sched *schedule.Schedule, ck *runtime.Store, est *runtime.EstimatorState) {
	rec := j.record()
	resume := est != nil
	recorder := replay.NewRecorder(recorderMeta(
		jr, rec.Seed, string(req.Algorithm), rec.Fingerprint, c, sched, resume))
	j.attachRecorder(recorder, initial...)
	s.launch(j, recorder, runtime.Job{
		Chain:              c,
		Platform:           req.Platform,
		Schedule:           sched,
		Algorithm:          req.Algorithm,
		Costs:              req.Opts.Costs,
		MaxDiskCheckpoints: req.Opts.MaxDiskCheckpoints,
		Runner:             jr.newRunner(req.Platform, rec.Seed),
		Store:              ck,
		Resume:             resume,
		Estimator:          est,
	}, jr.Adaptive)
}

// launch starts the job's execution goroutine, wiring the event
// observer, the durable progress hook and the cancel handle. The
// recorder is chained into both hooks and sealed once the terminal
// transition is journaled, so its recording carries the full lifecycle
// including how the job ended.
//
// The execution also roots a trace under the job's id: the span rides
// the context into the supervisor, which hangs its per-task, verify,
// checkpoint-commit, recovery and re-plan spans below it — the tree
// GET /v1/jobs/{id}/spans serves. Spans measure wall time only and
// never touch the recorder, so the replay recording stays byte-stable
// with tracing on or off.
func (s *server) launch(j *job, recorder *replay.Recorder, runJob runtime.Job, adaptive bool) {
	ctx, cancel := context.WithCancel(context.Background())
	j.setCancel(cancel)
	id := j.record().ID
	root := s.obs.jobTracer.StartTrace(id, "job")
	if root != nil {
		root.SetAttr("algorithm", string(runJob.Algorithm))
		if adaptive {
			root.SetAttr("adaptive", "true")
		}
		if runJob.Resume {
			root.SetAttr("resume", "true")
		}
		ctx = obs.ContextWithSpan(ctx, root)
	}
	runJob.Observer = func(ev sim.TraceEvent) {
		recorder.Observe(ev)
		j.append(ev)
	}
	runJob.Progress = func(b int, est runtime.EstimatorState, sched *schedule.Schedule) {
		recorder.Progress(b, est, sched)
		s.jobs.progress(j, b, est, sched)
	}
	go func() {
		defer cancel()
		var rep *runtime.Report
		var err error
		if adaptive {
			rep, err = s.sup.RunAdaptive(ctx, runJob, runtime.AdaptPolicy{})
		} else {
			rep, err = s.sup.Run(ctx, runJob)
		}
		// Digest the checkpoint tier before finish: a finished job's
		// checkpoint directory is removed once its terminal record is
		// durable, and the recording must capture the tier as the run
		// left it.
		recorder.Checkpoints(runJob.Store)
		state := s.jobs.finish(j, rep, err)
		if root != nil {
			root.SetAttr("status", string(state))
			root.End()
		}
		recording, ferr := recorder.Finish(rep, nil)
		var data []byte
		if ferr == nil {
			data, ferr = recording.Canonical()
		}
		// Mirror before sealing: the trace endpoint answers once the
		// recording is sealed, and the file must exist by then.
		if ferr == nil {
			s.writeRecording(id, data)
		}
		j.sealRecording(data, ferr)
		// A cancel is not a failure: only genuine failures feed the
		// error-rate metric.
		if state == jobstore.StateFailed {
			s.jobErrors.Add(1)
		}
	}()
}

// writeRecording persists one sealed recording under the record
// directory, when configured.
func (s *server) writeRecording(id string, data []byte) {
	if s.recordDir == "" {
		return
	}
	if err := os.WriteFile(filepath.Join(s.recordDir, id+".json"), data, 0o644); err != nil {
		s.jobs.storeErrors.Add(1)
	}
}

// runnerName resolves the wire runner field to the recorded kind.
func runnerName(r string) string {
	if r == "" {
		return "sim"
	}
	return r
}

// jobFingerprint is the instance fingerprint as persisted in job
// records and recordings. engine.Fingerprint keys are raw hash bytes (a
// memo key, not a display string); hex-encode them here so the journal
// and the recording meta carry stable, printable JSON — raw bytes would
// be mangled into U+FFFD by the encoder and never round-trip.
func jobFingerprint(req engine.Request) string {
	raw, err := engine.Fingerprint(req)
	if err != nil {
		return ""
	}
	return hex.EncodeToString([]byte(raw))
}

// recorderMeta stamps a job's recording: the resolved seed, the
// instance fingerprints and the runtime knobs — everything a replay
// needs to recognize the run. The instance fingerprint is already hex
// (see jobFingerprint); rate-misspecification scales only apply to the
// sim runner.
func recorderMeta(jr *jobRequest, seed uint64, algorithm, instance string,
	c *chain.Chain, sched *schedule.Schedule, resume bool) replay.Meta {
	m := replay.Meta{
		Seed: seed, Algorithm: algorithm, Runner: runnerName(jr.Runner),
		Adaptive: jr.Adaptive, Resume: resume,
		ChainFingerprint: replay.ChainFingerprint(c),
		Instance:         instance,
	}
	if m.Runner == "sim" {
		m.ScaleF, m.ScaleS = jr.ScaleF, jr.ScaleS
	}
	if sched != nil {
		m.ScheduleFingerprint = replay.ScheduleFingerprint(sched)
	}
	return m
}

func (s *server) handleJobCreate(w http.ResponseWriter, r *http.Request) {
	var jr jobRequest
	if err := decodeJSON(r, &jr); err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	if err := jr.validate(); err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	jr.normalize()
	req, c, err := jr.toEngine()
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}

	// Plan up front (through the shared memo) so the job status can show
	// the model prediction from the start, and budget/cost options apply.
	res, err := s.eng.Plan(r.Context(), req)
	if err != nil {
		s.planErrors.Add(1)
		writeError(w, http.StatusUnprocessableEntity, err)
		return
	}

	// The normalized spec is the job's durable identity: a restart
	// recompiles the chain, platform and runner from exactly these
	// bytes.
	spec, err := json.Marshal(&jr)
	if err != nil {
		writeError(w, http.StatusInternalServerError, err)
		return
	}
	schedJSON, err := json.Marshal(res.Schedule)
	if err != nil {
		writeError(w, http.StatusInternalServerError, err)
		return
	}

	j, initial, err := s.jobs.register(jobstore.Record{
		Fingerprint: jobFingerprint(req), Algorithm: string(res.Algorithm),
		Adaptive: jr.Adaptive, Seed: jr.Seed, Spec: spec,
	}, admission(schedJSON, res.ExpectedMakespan)...)
	if err != nil {
		writeTooManyRequests(w, s.opsCfg.RetryAfter, err)
		return
	}
	ck, err := s.jobs.newCheckpointStore(j.record().ID, jr.Retention)
	if err != nil {
		s.jobs.finish(j, nil, err)
		writeError(w, http.StatusInternalServerError, err)
		return
	}
	s.start(j, initial, &jr, req, c, res.Schedule, ck, nil)

	writeJSON(w, http.StatusAccepted, j.snapshot())
}

// lookup finds the job the request's {id} names, answering 404 when
// there is none.
func (s *server) lookup(w http.ResponseWriter, r *http.Request) (*job, bool) {
	j, ok := s.jobs.get(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, fmt.Errorf("unknown job %q", r.PathValue("id")))
	}
	return j, ok
}

func (s *server) handleJobGet(w http.ResponseWriter, r *http.Request) {
	if j, ok := s.lookup(w, r); ok {
		writeJSON(w, http.StatusOK, j.snapshot())
	}
}

func (s *server) handleJobList(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{"jobs": s.jobs.list(r.Context())})
}

// handleJobCancel stops a running job; its terminal state is persisted
// as cancelled. Cancelling a job whose run already returned is a
// conflict, not a success: the response is 409 with the terminal state
// in the body, so an at-least-once cancel client can tell "I stopped
// it" (202) apart from "it had already ended as X" instead of mistaking
// a done job for a cancelled one.
func (s *server) handleJobCancel(w http.ResponseWriter, r *http.Request) {
	j, ok := s.lookup(w, r)
	if !ok {
		return
	}
	if j.requestCancel() {
		writeJSON(w, http.StatusAccepted, map[string]string{"status": "cancelling"})
		return
	}
	writeJSON(w, http.StatusConflict, j.summary(r.Context()))
}

// handleJobTrace serves the job's sealed replay recording in canonical
// JSON form: the full event-sourced capture of the execution (trace
// frames, estimator snapshots, checkpoint digests, normalized lifecycle
// records, normalized report). The recording carries no job id and no
// timestamps, so two runs of the same spec with the same explicit seed
// answer with byte-identical bodies — the property the replay CI gate
// diffs. Blocks until the run is sealed; 409 for jobs adopted from a
// previous service life (their execution was never recorded).
func (s *server) handleJobTrace(w http.ResponseWriter, r *http.Request) {
	j, ok := s.lookup(w, r)
	if !ok {
		return
	}
	ctx := r.Context()
	defer j.wakeOnDone(ctx)()
	data, err := j.waitRecording(ctx)
	switch {
	case errors.Is(err, errNoRecording):
		writeError(w, http.StatusConflict, err)
	case ctx.Err() != nil:
		return // client went away
	case err != nil:
		writeError(w, http.StatusInternalServerError, err)
	default:
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusOK)
		w.Write(data)
	}
}

// handleJobEvents streams the job's event log as NDJSON, following the
// execution live until its run returns (or the client goes away).
func (s *server) handleJobEvents(w http.ResponseWriter, r *http.Request) {
	j, ok := s.lookup(w, r)
	if !ok {
		return
	}
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	flusher, _ := w.(http.Flusher)

	ctx := r.Context()
	defer j.wakeOnDone(ctx)()
	enc := json.NewEncoder(w)
	from := 0
	for {
		events, done := j.next(ctx, from)
		for _, ev := range events {
			if err := enc.Encode(ev); err != nil {
				return
			}
		}
		from += len(events)
		if flusher != nil {
			flusher.Flush()
		}
		if done {
			return
		}
	}
}
