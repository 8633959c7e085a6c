package main

import (
	"bufio"
	"context"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"sync"
	"time"

	"chainckpt/internal/engine"
	"chainckpt/internal/jobstore"
	"chainckpt/internal/obs"
	"chainckpt/internal/ops"
	"chainckpt/internal/replay"
	"chainckpt/internal/runtime"
	"chainckpt/internal/schedule"
)

// span is one timed call the traced run made into a layer. Parent
// indexes the same worker's span list (-1 for an op root).
type span struct {
	Name   string `json:"name"`
	Worker int    `json:"worker"`
	Op     int    `json:"op"`
	Parent int    `json:"parent"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// tracer keeps one worker's spans in memory. A nil tracer records
// nothing (setup traffic).
type tracer struct {
	base   time.Time
	worker int
	spans  []span
}

func (t *tracer) begin(name string, op, parent int) int {
	if t == nil {
		return -1
	}
	t.spans = append(t.spans, span{Name: name, Worker: t.worker, Op: op, Parent: parent, Start: int64(time.Since(t.base))})
	return len(t.spans) - 1
}

func (t *tracer) end(id int) {
	if t != nil && id >= 0 {
		t.spans[id].End = int64(time.Since(t.base))
	}
}

// tracedStore times every journal write one job op makes.
type tracedStore struct {
	jobstore.Store
	tr         *tracer
	op, parent int
}

func (s *tracedStore) Append(rec jobstore.Record) error {
	id := s.tr.begin("jobstore.append", s.op, s.parent)
	defer s.tr.end(id)
	return s.Store.Append(rec)
}

func (s *tracedStore) Delete(jobID string) error {
	id := s.tr.begin("jobstore.delete", s.op, s.parent)
	defer s.tr.end(id)
	return s.Store.Delete(jobID)
}

// tracedRunner times the runner's task executions and verifications.
type tracedRunner struct {
	sim        *runtime.SimRunner
	tr         *tracer
	op, parent int
}

func (r *tracedRunner) Run(ctx context.Context, t runtime.TaskSpec) (runtime.TaskResult, error) {
	id := r.tr.begin("runtime.task", r.op, r.parent)
	defer r.tr.end(id)
	return r.sim.Run(ctx, t)
}

func (r *tracedRunner) Verify(ctx context.Context, boundary int, st runtime.State, partial bool) (bool, error) {
	id := r.tr.begin("runtime.verify", r.op, r.parent)
	defer r.tr.end(id)
	return r.sim.Verify(ctx, boundary, st, partial)
}

// Seed exposes the wrapped runner's seed, as the supervisor reports it.
func (r *tracedRunner) Seed() uint64 { return r.sim.Seed() }

// jobTable mirrors chainserve's job numbering and retention: a create
// beyond the cap evicts the oldest job.
type jobTable struct {
	mu   sync.Mutex
	seq  uint64
	live []string
}

func (t *jobTable) create() (id string, seq uint64, evicted []string) {
	t.mu.Lock()
	defer t.mu.Unlock()
	for len(t.live) >= jobTableCap {
		evicted = append(evicted, t.live[0])
		t.live = t.live[1:]
	}
	t.seq++
	id = fmt.Sprintf("job-%d", t.seq)
	t.live = append(t.live, id)
	return id, t.seq, evicted
}

// layers is the stack chainserve composes, built in-process with its
// default flags: engine, admission controller, supervisor and (for
// jobs) a journal on the real disk.
type layers struct {
	w         *workloadGen
	reqs      map[int]engine.Request
	eng       *engine.Engine
	engM      *engine.Metrics
	solveHist []*obs.Histogram // per-shard kernel solve latency
	ctrl      *ops.Controller
	sup       *runtime.Supervisor
	jobTracer *obs.Tracer
	journal   *jobstore.Journal
	jsM       *jobstore.Metrics
	dir       string
	table     jobTable
}

func newLayers(w *workloadGen, dir string) (*layers, error) {
	reg := obs.NewRegistry()
	l := &layers{w: w, reqs: map[int]engine.Request{}, dir: dir, engM: engine.NewMetrics(reg),
		jsM: jobstore.NewMetrics(reg), jobTracer: obs.NewTracer(128)}
	for i, in := range w.insts {
		c, p, err := in.compile()
		if err != nil {
			return nil, err
		}
		l.reqs[i] = engine.Request{Algorithm: in.Alg, Chain: c, Platform: p}
	}
	l.eng = engine.New(engine.Options{CacheSize: 4096, SolveWorkers: 1, Metrics: l.engM})
	for i := range l.eng.Stats().Shards {
		l.solveHist = append(l.solveHist, l.engM.SolveLatency.With(strconv.Itoa(i)))
	}
	l.ctrl = ops.NewController(ops.ControllerConfig{MaxConcurrent: 64, MaxQueue: 256, RetryAfter: time.Second},
		ops.NewMetrics(reg))
	l.sup = runtime.New(runtime.Options{Engine: l.eng, Metrics: runtime.NewMetrics(reg)})
	return l, nil
}

func (l *layers) close() {
	if l.journal != nil {
		l.journal.Close()
	}
	l.ctrl.Close()
	l.eng.Close()
}

// openJournal (re)opens the journal; noSync is for setup only.
func (l *layers) openJournal(noSync bool) error {
	if l.journal != nil {
		if err := l.journal.Close(); err != nil {
			return err
		}
	}
	j, err := jobstore.Open(filepath.Join(l.dir, "journal"), jobstore.Options{NoSync: noSync, Metrics: l.jsM})
	l.journal = j
	return err
}

// solveSeconds is the engine's summed kernel solve time so far.
func (l *layers) solveSeconds() float64 {
	s := 0.0
	for _, h := range l.solveHist {
		s += h.Sum()
	}
	return s
}

// outcome is what one traced op reports beyond its spans.
type outcome struct {
	shed       bool
	kernelSecs float64 // plan ops: summed solve time inside PlanMany
	rep        *runtime.Report
	recBytes   int
}

// planOp mirrors a plan route: admission (interactive class), then one
// engine batch. The engine's solve-time sum is read outside the op
// span, which the single plan connection keeps free of other solves.
func (l *layers) planOp(ctx context.Context, tr *tracer, opID int, o op) (outcome, error) {
	reqs := make([]engine.Request, len(o.Insts))
	for i, idx := range o.Insts {
		reqs[i] = l.reqs[idx]
	}
	before := l.solveSeconds()
	root := tr.begin("op", opID, -1)
	a := tr.begin("ops.admit", opID, root)
	release, err := l.ctrl.Admit(ctx, ops.Interactive)
	tr.end(a)
	if err != nil {
		tr.end(root)
		return outcome{shed: true}, nil
	}
	p := tr.begin("engine.plan", opID, root)
	resps := l.eng.PlanMany(ctx, reqs)
	tr.end(p)
	r := tr.begin("ops.release", opID, root)
	release()
	tr.end(r)
	tr.end(root)
	for _, r := range resps {
		if r.Err != nil {
			return outcome{}, r.Err
		}
	}
	return outcome{kernelSecs: l.solveSeconds() - before}, nil
}

// jobOp mirrors POST /v1/jobs and the execution it launches, in
// chainserve's call order: admission (batch class), plan, evictions and
// the created/planned appends, then the supervised run with an append
// per progress transition, the terminal append and the recording seal.
func (l *layers) jobOp(ctx context.Context, tr *tracer, opID int, js jobSpec) (outcome, error) {
	root := tr.begin("op", opID, -1)
	defer tr.end(root)
	a := tr.begin("ops.admit", opID, root)
	release, err := l.ctrl.Admit(ctx, ops.Batch)
	tr.end(a)
	if err != nil {
		return outcome{shed: true}, nil
	}
	req := l.reqs[js.Inst]
	p := tr.begin("engine.plan", opID, root)
	res, err := l.eng.Plan(ctx, req)
	tr.end(p)
	if err != nil {
		release()
		return outcome{}, err
	}
	spec, err := json.Marshal(l.w.jobWire(js))
	if err != nil {
		release()
		return outcome{}, err
	}
	schedJSON, err := json.Marshal(res.Schedule)
	if err != nil {
		release()
		return outcome{}, err
	}
	raw, _ := engine.Fingerprint(req)
	fp := hex.EncodeToString([]byte(raw))

	st := &tracedStore{Store: l.journal, tr: tr, op: opID, parent: root}
	id, seq, evicted := l.table.create()
	for _, old := range evicted {
		if err := st.Delete(old); err != nil {
			release()
			return outcome{}, err
		}
	}
	now := time.Now().UTC()
	cur := jobstore.Record{
		ID: id, Seq: seq, Version: 2, State: jobstore.StatePlanned, CreatedAt: now, UpdatedAt: now,
		Fingerprint: fp, Algorithm: string(res.Algorithm), Adaptive: js.Adaptive, Seed: js.Seed,
		Spec: spec, Schedule: schedJSON, Predicted: res.ExpectedMakespan,
	}
	created := cur
	created.Version, created.State, created.Schedule, created.Predicted = 1, jobstore.StateCreated, nil, 0
	for _, rec := range []jobstore.Record{created, cur} {
		if err := st.Append(rec); err != nil {
			release()
			return outcome{}, err
		}
	}
	r := tr.begin("ops.release", opID, root)
	release()
	tr.end(r)

	ckDir := filepath.Join(l.dir, "jobs", id)
	ck, err := runtime.NewStore(ckDir)
	if err != nil {
		return outcome{}, err
	}
	meta := replay.Meta{
		Seed: js.Seed, Algorithm: string(res.Algorithm), Runner: "sim", Adaptive: js.Adaptive,
		ChainFingerprint: replay.ChainFingerprint(req.Chain), Instance: fp,
		ScaleF: js.Scale, ScaleS: js.Scale, ScheduleFingerprint: replay.ScheduleFingerprint(res.Schedule),
	}
	rec := replay.NewRecorder(meta)
	rec.Lifecycle(created)
	rec.Lifecycle(cur)
	transition := func(mut func(*jobstore.Record)) error {
		cur.Version++
		cur.UpdatedAt = time.Now().UTC()
		mut(&cur)
		rec.Lifecycle(cur)
		return st.Append(cur)
	}

	jroot := l.jobTracer.StartTrace(id, "job")
	runCtx := obs.ContextWithSpan(ctx, jroot)
	run := tr.begin("runtime.run", opID, root)
	st.parent = run
	var appendErr error
	job := runtime.Job{
		Chain: req.Chain, Platform: req.Platform, Schedule: res.Schedule, Algorithm: req.Algorithm,
		Runner: &tracedRunner{sim: runtime.NewMisspecifiedRunner(req.Platform, js.Scale, js.Scale, js.Seed),
			tr: tr, op: opID, parent: run},
		Store: ck, Record: true, Observer: rec.Observe,
		Progress: func(b int, est runtime.EstimatorState, sched *schedule.Schedule) {
			rec.Progress(b, est, sched)
			estJSON, _ := json.Marshal(est)
			schedJSON, _ := json.Marshal(sched)
			if err := transition(func(r *jobstore.Record) {
				r.State, r.Progress, r.Estimator, r.Schedule = jobstore.StateRunning, b, estJSON, schedJSON
			}); err != nil && appendErr == nil {
				appendErr = err
			}
		},
	}
	var rep *runtime.Report
	if js.Adaptive {
		rep, err = l.sup.RunAdaptive(runCtx, job, runtime.AdaptPolicy{})
	} else {
		rep, err = l.sup.Run(runCtx, job)
	}
	tr.end(run)
	st.parent = root
	if err == nil {
		err = appendErr
	}
	if err != nil {
		jroot.End()
		return outcome{}, err
	}

	d := tr.begin("replay.digest", opID, root)
	err = rec.Checkpoints(ck)
	tr.end(d)
	if err != nil {
		jroot.End()
		return outcome{}, err
	}
	trimmed := *rep
	trimmed.Trace = nil
	repJSON, err := json.Marshal(&trimmed)
	if err == nil {
		err = transition(func(r *jobstore.Record) {
			r.State, r.Report, r.Progress = jobstore.StateDone, repJSON, rep.FinalSchedule.Len()
		})
	}
	c := tr.begin("runtime.ckpt_cleanup", opID, root)
	os.RemoveAll(ckDir)
	tr.end(c)
	jroot.End()
	if err != nil {
		return outcome{}, err
	}

	s := tr.begin("replay.seal", opID, root)
	recording, err := rec.Finish(rep, nil)
	var data []byte
	if err == nil {
		data, err = recording.Canonical()
	}
	tr.end(s)
	return outcome{rep: rep, recBytes: len(data)}, err
}

func (l *layers) do(ctx context.Context, tr *tracer, opID int, o op) (outcome, error) {
	if l.w.name == "jobs-durable" {
		return l.jobOp(ctx, tr, opID, o.Job)
	}
	return l.planOp(ctx, tr, opID, o)
}

// prime loads the layers the way setup loaded chainserve: the primed
// instances into the memo, the warm-up traffic, and for jobs a journal
// filled to the retention cap (written without fsync, then reopened
// with it).
func (l *layers) prime(ctx context.Context, warm []op) error {
	for i := 0; i < l.w.primed; i++ {
		if _, err := l.eng.Plan(ctx, l.reqs[i]); err != nil {
			return err
		}
	}
	if l.w.name == "jobs-durable" {
		if err := l.openJournal(true); err != nil {
			return err
		}
	}
	for i, o := range warm {
		if _, err := l.do(ctx, nil, i, o); err != nil {
			return err
		}
	}
	if l.w.name == "jobs-durable" {
		return l.openJournal(false)
	}
	return nil
}

// replayResult gathers a traced replay: every worker's spans and every
// op's outcome, in op order.
type replayResult struct {
	spans    [][]span
	outcomes []outcome
	wall     time.Duration
}

// replay re-issues the timed phase's op stream in-process with the
// same concurrency as the HTTP clients.
func (l *layers) replay(ctx context.Context, stream []op) (*replayResult, error) {
	out := &replayResult{spans: make([][]span, l.w.conns), outcomes: make([]outcome, len(stream))}
	base := time.Now()
	var (
		mu       sync.Mutex
		next     int
		firstErr error
		wg       sync.WaitGroup
	)
	for wk := 0; wk < l.w.conns; wk++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			tr := &tracer{base: base, worker: wk}
			defer func() { out.spans[wk] = tr.spans }()
			for {
				mu.Lock()
				i := next
				next++
				stop := firstErr != nil
				mu.Unlock()
				if stop || i >= len(stream) {
					return
				}
				oc, err := l.do(ctx, tr, i, stream[i])
				if err != nil {
					mu.Lock()
					if firstErr == nil {
						firstErr = fmt.Errorf("traced op %d: %w", i, err)
					}
					mu.Unlock()
					return
				}
				out.outcomes[i] = oc
			}
		}()
	}
	wg.Wait()
	out.wall = time.Since(base)
	return out, firstErr
}

// ckptSaveProbe times Store.SaveDisk directly on the run's disk with a
// payload shaped like the simulated runner's state.
func ckptSaveProbe(dir string, saves int) ([]time.Duration, error) {
	st, err := runtime.NewStore(dir)
	if err != nil {
		return nil, err
	}
	st.SetRetention(2)
	out := make([]time.Duration, saves)
	for i := range out {
		payload := []byte(fmt.Sprintf(`{"boundary":%d,"steps":%d,"corrupt":false}`, i+1, i+1))
		start := time.Now()
		if err := st.SaveDisk(i+1, payload); err != nil {
			return nil, err
		}
		out[i] = time.Since(start)
	}
	return out, nil
}

// writeSpans writes the spans out as JSON lines.
func writeSpans(path string, spans [][]span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for _, ws := range spans {
		for _, s := range ws {
			if err := enc.Encode(s); err != nil {
				f.Close()
				return err
			}
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// covered is the length of the union of the intervals.
func covered(iv [][2]int64) int64 {
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total, curS, curE int64
	started := false
	for _, x := range iv {
		if !started || x[0] > curE {
			if started {
				total += curE - curS
			}
			curS, curE, started = x[0], x[1], true
		} else if x[1] > curE {
			curE = x[1]
		}
	}
	if started {
		total += curE - curS
	}
	return total
}
