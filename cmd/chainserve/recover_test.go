package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"chainckpt/internal/engine"
	"chainckpt/internal/jobstore"
	"chainckpt/internal/runtime"
	"chainckpt/internal/schedule"
)

// resumeSpec is a job whose platform has a fail-stop rate high enough
// that the planner spreads interior disk checkpoints across the chain —
// without them there is nothing to resume from.
const resumeSpec = `{"algorithm":"ADMV*","platform_spec":{"name":"CrashLab",` +
	`"lambda_f":1e-4,"lambda_s":4e-4,"c_d":100,"c_m":10,"r_d":100,"r_m":10,` +
	`"v_star":10,"v":0.1,"recall":0.8},"pattern":"uniform","n":24,"total":24000,` +
	`"true_rate_scale_f":2,"seed":11}`

// TestCrashRecoveryResumesInterruptedJob is the end-to-end restart
// story. Life 1 admits a job exactly as the HTTP handler does (created
// and planned transitions journaled, checkpoints under the store root)
// and then dies at the second disk checkpoint: the context is cancelled
// inside the durable-progress hook and no terminal transition is ever
// appended — precisely the wreckage kill -9 leaves behind. Life 2 opens
// a fresh server over the same directory, replays the journal, and must
// resume the job from its last disk checkpoint with a suffix-re-planned
// schedule (no full-chain re-solve) and drive it to completion with a
// consistent event log.
func TestCrashRecoveryResumesInterruptedJob(t *testing.T) {
	dir := t.TempDir()

	// --- Life 1 -------------------------------------------------------
	st1, err := jobstore.Open(filepath.Join(dir, "journal"), jobstore.Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	eng1 := engine.New(engine.Options{Workers: 2})
	srv1 := newServer(eng1, st1, dir, newObsPlane(), defaultOpsConfig())

	var jr jobRequest
	if err := json.Unmarshal([]byte(resumeSpec), &jr); err != nil {
		t.Fatal(err)
	}
	jr.normalize()
	req, c, err := jr.toEngine()
	if err != nil {
		t.Fatal(err)
	}
	res, err := eng1.Plan(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	spec, _ := json.Marshal(&jr)
	schedJSON, _ := json.Marshal(res.Schedule)
	fp := jobFingerprint(req)
	j1, _, err := srv1.jobs.register(jobstore.Record{
		Fingerprint: fp, Algorithm: string(res.Algorithm), Spec: spec,
	}, admission(schedJSON, res.ExpectedMakespan)...)
	if err != nil {
		t.Fatal(err)
	}
	rec1 := j1.record()
	id, seq := rec1.ID, rec1.Seed

	ck1, err := srv1.jobs.newCheckpointStore(id, jr.Retention)
	if err != nil {
		t.Fatal(err)
	}
	ctx, crash := context.WithCancel(context.Background())
	defer crash()
	disks := 0
	var stoppedAt int
	_, err = srv1.sup.Run(ctx, runtime.Job{
		Chain: c, Platform: req.Platform, Schedule: res.Schedule, Algorithm: req.Algorithm,
		Runner: jr.newRunner(req.Platform, seq), Store: ck1,
		Progress: func(b int, est runtime.EstimatorState, sched *schedule.Schedule) {
			srv1.jobs.progress(j1, b, est, sched)
			if disks++; disks == 2 && b < c.Len() {
				stoppedAt = b
				crash() // kill -9: the goroutine dies, no terminal record
			}
		},
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("life 1 ended with %v, want context.Canceled", err)
	}
	if stoppedAt <= 0 {
		t.Fatalf("job finished before the crash point (disks=%d)", disks)
	}
	// The abandoned record says running with committed progress.
	rec, ok := st1.Get(id)
	if !ok || rec.State != jobstore.StateRunning || rec.Progress == 0 {
		t.Fatalf("abandoned record: %+v ok=%v", rec, ok)
	}
	// A real crash closes nothing: st1 and eng1 are simply abandoned.

	// --- Life 2 -------------------------------------------------------
	st2, err := jobstore.Open(filepath.Join(dir, "journal"), jobstore.Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st2.Close() })
	eng2 := engine.New(engine.Options{Workers: 2})
	t.Cleanup(eng2.Close)
	srv2 := newServer(eng2, st2, dir, newObsPlane(), defaultOpsConfig())
	resumed, adopted := srv2.recoverJobs(context.Background())
	if resumed != 1 || adopted != 0 {
		t.Fatalf("recoverJobs = (%d resumed, %d adopted), want (1, 0)", resumed, adopted)
	}
	// The suffix re-plan went through the kernel, not the engine: no
	// full-chain solve was submitted in life 2.
	if est := eng2.Stats(); est.Requests != 0 {
		t.Errorf("recovery submitted %d engine requests, want 0 (suffix re-plans only)", est.Requests)
	}
	if kst := eng2.Kernel().Stats(); kst.Solves != 1 {
		t.Errorf("kernel solves = %d, want exactly the one suffix re-plan", kst.Solves)
	}

	ts := httptest.NewServer(srv2.mux())
	t.Cleanup(ts.Close)
	final := waitForJob(t, ts.URL+"/v1/jobs/"+id)
	if final.Status != "done" || final.Report == nil {
		t.Fatalf("resumed job: %+v", final)
	}
	if final.Resumes != 1 {
		t.Errorf("resumes = %d, want 1", final.Resumes)
	}
	if final.Report.ResumedFrom != stoppedAt {
		t.Errorf("resumed from %d, want the crash-point checkpoint %d", final.Report.ResumedFrom, stoppedAt)
	}

	// Event-log consistency: the trace of life 2 opens with the resume
	// event at the restored boundary, carries a monotone clock, and ends
	// with done at the final boundary.
	trace := final.Report.Trace
	if len(trace) == 0 || trace[0].Kind != "resume" || trace[0].Pos != stoppedAt {
		t.Fatalf("trace start: %+v", trace[:min(3, len(trace))])
	}
	for i := 1; i < len(trace); i++ {
		if trace[i].T < trace[i-1].T {
			t.Fatalf("clock ran backwards at event %d: %+v -> %+v", i, trace[i-1], trace[i])
		}
	}
	if last := trace[len(trace)-1]; last.Kind != "done" || last.Pos != c.Len() {
		t.Fatalf("trace end: %+v", last)
	}

	// The durable record reached done with a persisted (trace-free)
	// report and a strictly advancing version history.
	rec2, ok := st2.Get(id)
	if !ok || rec2.State != jobstore.StateDone || len(rec2.Report) == 0 {
		t.Fatalf("final record: %+v ok=%v", rec2, ok)
	}
	if rec2.Version <= rec.Version {
		t.Errorf("version did not advance across lives: %d -> %d", rec.Version, rec2.Version)
	}

	// And a third life sees a finished job: nothing to resume.
	st3, err := jobstore.Open(filepath.Join(dir, "journal"), jobstore.Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st3.Close() })
	srv3 := newServer(eng2, st3, dir, newObsPlane(), defaultOpsConfig())
	if resumed, adopted := srv3.recoverJobs(context.Background()); resumed != 0 || adopted != 1 {
		t.Fatalf("third life recovered (%d, %d), want (0, 1)", resumed, adopted)
	}
	if got := srv3.jobs.list(context.Background()); len(got) != 1 || got[0].Status != "done" {
		t.Fatalf("third-life listing: %+v", got)
	}
}

// crashSpecFor renders a crash-lab job spec with the given RNG seed.
// CD=1000 prices disk checkpoints high enough that the planner places
// them sparsely (interior ones plus the mandatory final), so every
// interior checkpoint is a distinct, meaningful crash point.
func crashSpecFor(seed uint64) string {
	return fmt.Sprintf(`{"algorithm":"ADMV*","platform_spec":{"name":"CrashLab",`+
		`"lambda_f":1e-4,"lambda_s":4e-4,"c_d":1000,"c_m":10,"r_d":1000,"r_m":10,`+
		`"v_star":10,"v":0.1,"recall":0.8},"pattern":"uniform","n":24,"total":24000,`+
		`"true_rate_scale_f":2,"seed":%d}`, seed)
}

// crashRecoveryAt runs one crash/recover cycle: life 1 admits the job
// exactly as the HTTP handler does and dies inside the durable-progress
// hook of its k-th disk checkpoint (no terminal transition — kill -9
// wreckage); life 2 opens a fresh server over the same directory,
// replays the journal, and must resume from exactly that boundary and
// finish. Failure messages carry a one-line repro built from the seed
// and crash point the journal now persists.
func crashRecoveryAt(t *testing.T, specJSON string, k int) {
	t.Helper()
	dir := t.TempDir()
	repro := fmt.Sprintf("repro: go test ./cmd/chainserve -run 'TestCrashRecoveryAtEveryCheckpoint' -count=1  # spec=%s crash_at_disk_ckpt=%d", specJSON, k)

	// --- Life 1: admit, run, die at the k-th disk checkpoint ----------
	st1, err := jobstore.Open(filepath.Join(dir, "journal"), jobstore.Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	eng1 := engine.New(engine.Options{Workers: 2})
	srv1 := newServer(eng1, st1, dir, newObsPlane(), defaultOpsConfig())

	var jr jobRequest
	if err := json.Unmarshal([]byte(specJSON), &jr); err != nil {
		t.Fatal(err)
	}
	jr.normalize()
	req, c, err := jr.toEngine()
	if err != nil {
		t.Fatal(err)
	}
	res, err := eng1.Plan(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	spec, _ := json.Marshal(&jr)
	schedJSON, _ := json.Marshal(res.Schedule)
	j1, _, err := srv1.jobs.register(jobstore.Record{
		Algorithm: string(res.Algorithm), Seed: jr.Seed, Spec: spec,
	}, admission(schedJSON, res.ExpectedMakespan)...)
	if err != nil {
		t.Fatal(err)
	}
	rec1 := j1.record()
	id, seed := rec1.ID, rec1.Seed
	if seed != jr.Seed {
		t.Fatalf("register derived seed %d, spec asked for %d\n%s", seed, jr.Seed, repro)
	}

	ck1, err := srv1.jobs.newCheckpointStore(id, jr.Retention)
	if err != nil {
		t.Fatal(err)
	}
	ctx, crash := context.WithCancel(context.Background())
	defer crash()
	disks := 0
	var stoppedAt int
	_, err = srv1.sup.Run(ctx, runtime.Job{
		Chain: c, Platform: req.Platform, Schedule: res.Schedule, Algorithm: req.Algorithm,
		Runner: jr.newRunner(req.Platform, seed), Store: ck1,
		Progress: func(b int, est runtime.EstimatorState, sched *schedule.Schedule) {
			srv1.jobs.progress(j1, b, est, sched)
			if disks++; disks == k && b < c.Len() {
				stoppedAt = b
				crash()
			}
		},
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("life 1 ended with %v, want context.Canceled\n%s", err, repro)
	}
	if stoppedAt <= 0 {
		t.Fatalf("job finished before the crash point (disks=%d, k=%d)\n%s", disks, k, repro)
	}
	// The abandoned record carries the seed a repro needs.
	if rec, ok := st1.Get(id); !ok || rec.Seed != seed {
		t.Fatalf("abandoned record lost the seed: %+v ok=%v\n%s", rec, ok, repro)
	}

	// --- Life 2: recover over the same directory ----------------------
	st2, err := jobstore.Open(filepath.Join(dir, "journal"), jobstore.Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st2.Close() })
	eng2 := engine.New(engine.Options{Workers: 2})
	t.Cleanup(eng2.Close)
	srv2 := newServer(eng2, st2, dir, newObsPlane(), defaultOpsConfig())
	if resumed, adopted := srv2.recoverJobs(context.Background()); resumed != 1 || adopted != 0 {
		t.Fatalf("recoverJobs = (%d resumed, %d adopted), want (1, 0)\n%s", resumed, adopted, repro)
	}
	ts := httptest.NewServer(srv2.mux())
	t.Cleanup(ts.Close)
	final := waitForJob(t, ts.URL+"/v1/jobs/"+id)
	if final.Status != "done" || final.Report == nil {
		t.Fatalf("resumed job: %+v\n%s", final, repro)
	}
	if final.Report.ResumedFrom != stoppedAt {
		t.Errorf("resumed from %d, want the crash-point checkpoint %d\n%s",
			final.Report.ResumedFrom, stoppedAt, repro)
	}
	if final.Report.Seed != seed {
		t.Errorf("resumed run reports seed %d, want %d\n%s", final.Report.Seed, seed, repro)
	}
	if last := final.Report.Trace[len(final.Report.Trace)-1]; last.Kind != "done" || last.Pos != c.Len() {
		t.Errorf("trace end: %+v\n%s", last, repro)
	}
}

// TestCrashRecoveryAtEveryCheckpoint generalizes the restart story into
// a seed-parameterized table: for each seed, the service is killed at
// every interior disk checkpoint the plan places (k = 1..N) and must
// recover from each one. The checkpoint count is read off the plan, not
// hard-coded, so a planner change reshapes the table instead of
// silently shrinking it.
func TestCrashRecoveryAtEveryCheckpoint(t *testing.T) {
	for _, seed := range []uint64{11, 23} {
		specJSON := crashSpecFor(seed)
		// Count the interior disk checkpoints of this spec's plan.
		var jr jobRequest
		if err := json.Unmarshal([]byte(specJSON), &jr); err != nil {
			t.Fatal(err)
		}
		jr.normalize()
		req, c, err := jr.toEngine()
		if err != nil {
			t.Fatal(err)
		}
		eng := engine.New(engine.Options{Workers: 1})
		res, err := eng.Plan(context.Background(), req)
		eng.Close()
		if err != nil {
			t.Fatal(err)
		}
		interior := 0
		for pos := 1; pos < c.Len(); pos++ {
			if res.Schedule.At(pos).Has(schedule.Disk) {
				interior++
			}
		}
		if interior < 2 {
			t.Fatalf("crash spec plans only %d interior disk checkpoints; the table needs at least 2", interior)
		}
		for k := 1; k <= interior; k++ {
			t.Run(fmt.Sprintf("seed=%d/k=%d", seed, k), func(t *testing.T) {
				crashRecoveryAt(t, specJSON, k)
			})
		}
	}
}

// TestCrashRecoveryWithRetentionLimitedCheckpoints: a job whose spec
// bounds its disk-checkpoint retention must still resume after a hard
// stop — pruning old checkpoints shrinks the disk footprint but never
// touches the newest one, which is the only one a resume can use. The
// retention bound itself must survive the restart: it travels in the
// job spec, and resumeJob re-applies it to the reopened store.
func TestCrashRecoveryWithRetentionLimitedCheckpoints(t *testing.T) {
	dir := t.TempDir()
	const retention = 2
	spec := `{"algorithm":"ADMV*","platform_spec":{"name":"CrashLab",` +
		`"lambda_f":1e-4,"lambda_s":4e-4,"c_d":100,"c_m":10,"r_d":100,"r_m":10,` +
		`"v_star":10,"v":0.1,"recall":0.8},"pattern":"uniform","n":24,"total":24000,` +
		`"true_rate_scale_f":2,"seed":11,"retention":2}`

	st1, err := jobstore.Open(filepath.Join(dir, "journal"), jobstore.Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	eng1 := engine.New(engine.Options{Workers: 2})
	srv1 := newServer(eng1, st1, dir, newObsPlane(), defaultOpsConfig())

	var jr jobRequest
	if err := json.Unmarshal([]byte(spec), &jr); err != nil {
		t.Fatal(err)
	}
	jr.normalize()
	req, c, err := jr.toEngine()
	if err != nil {
		t.Fatal(err)
	}
	res, err := eng1.Plan(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	specJSON, _ := json.Marshal(&jr)
	schedJSON, _ := json.Marshal(res.Schedule)
	j1, _, err := srv1.jobs.register(jobstore.Record{
		Algorithm: string(res.Algorithm), Seed: jr.Seed, Spec: specJSON,
	}, admission(schedJSON, 0)...)
	if err != nil {
		t.Fatal(err)
	}
	rec1 := j1.record()
	id, seq := rec1.ID, rec1.Seed

	ck1, err := srv1.jobs.newCheckpointStore(id, jr.Retention)
	if err != nil {
		t.Fatal(err)
	}
	ctx, crash := context.WithCancel(context.Background())
	defer crash()
	countCkpts := func() int {
		t.Helper()
		ents, err := os.ReadDir(srv1.jobs.ckptDir(id))
		if err != nil {
			t.Fatal(err)
		}
		n := 0
		for _, e := range ents {
			if strings.HasPrefix(e.Name(), "ckpt-") && strings.HasSuffix(e.Name(), ".bin") {
				n++
			}
		}
		return n
	}
	disks := 0
	var stoppedAt int
	_, err = srv1.sup.Run(ctx, runtime.Job{
		Chain: c, Platform: req.Platform, Schedule: res.Schedule, Algorithm: req.Algorithm,
		Runner: jr.newRunner(req.Platform, seq), Store: ck1,
		Progress: func(b int, est runtime.EstimatorState, sched *schedule.Schedule) {
			srv1.jobs.progress(j1, b, est, sched)
			if got := countCkpts(); got > retention {
				t.Errorf("retention %d but %d checkpoint files on disk at boundary %d", retention, got, b)
			}
			if disks++; disks == 3 && b < c.Len() {
				stoppedAt = b
				crash() // hard stop: no terminal transition reaches the journal
			}
		},
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("life 1 ended with %v, want context.Canceled", err)
	}
	if stoppedAt <= 0 {
		t.Fatalf("job finished before the crash point (disks=%d)", disks)
	}
	// The wreckage the pruned store leaves behind: at most `retention`
	// checkpoint files, the newest at the crash boundary.
	if got := countCkpts(); got > retention {
		t.Fatalf("crash left %d checkpoint files, retention is %d", got, retention)
	}

	st2, err := jobstore.Open(filepath.Join(dir, "journal"), jobstore.Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st2.Close() })
	eng2 := engine.New(engine.Options{Workers: 2})
	t.Cleanup(eng2.Close)
	srv2 := newServer(eng2, st2, dir, newObsPlane(), defaultOpsConfig())
	if resumed, adopted := srv2.recoverJobs(context.Background()); resumed != 1 || adopted != 0 {
		t.Fatalf("recoverJobs = (%d resumed, %d adopted), want (1, 0)", resumed, adopted)
	}
	ts := httptest.NewServer(srv2.mux())
	t.Cleanup(ts.Close)
	final := waitForJob(t, ts.URL+"/v1/jobs/"+id)
	if final.Status != "done" || final.Report == nil {
		t.Fatalf("retention-limited job did not resume to done: %+v", final)
	}
	if final.Report.ResumedFrom != stoppedAt {
		t.Errorf("resumed from %d, want the crash-point checkpoint %d", final.Report.ResumedFrom, stoppedAt)
	}
}

// TestRecoverMarksUnresumableJobFailed: a journal record whose spec
// cannot be recompiled must surface as a failed job, not vanish and not
// wedge recovery.
func TestRecoverMarksUnresumableJobFailed(t *testing.T) {
	dir := t.TempDir()
	st, err := jobstore.Open(filepath.Join(dir, "journal"), jobstore.Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st.Close() })
	now := time.Now().UTC()
	if err := st.Append(jobstore.Record{
		ID: "job-1", Seq: 1, Version: 1, State: jobstore.StateRunning,
		CreatedAt: now, UpdatedAt: now,
		Spec: json.RawMessage(`{"platform":"NoSuchPlatform","weights":[1,2]}`),
	}); err != nil {
		t.Fatal(err)
	}

	eng := engine.New(engine.Options{Workers: 1})
	t.Cleanup(eng.Close)
	srv := newServer(eng, st, dir, newObsPlane(), defaultOpsConfig())
	if resumed, adopted := srv.recoverJobs(context.Background()); resumed != 0 || adopted != 0 {
		t.Fatalf("recoverJobs = (%d, %d), want (0, 0)", resumed, adopted)
	}
	j, ok := srv.jobs.get("job-1")
	if !ok {
		t.Fatal("unresumable job vanished")
	}
	if snap := j.snapshot(); snap.Status != "failed" || snap.Error == "" {
		t.Fatalf("unresumable job status: %+v", snap)
	}
	rec, ok := st.Get("job-1")
	if !ok || rec.State != jobstore.StateFailed || rec.Error == "" {
		t.Fatalf("durable record: %+v ok=%v", rec, ok)
	}
}

// TestJobCancellation drives DELETE /v1/jobs/{id}: a paced job is
// cancelled mid-run and both the live status and the durable record end
// cancelled.
func TestJobCancellation(t *testing.T) {
	_, ts := newTestServer(t)
	// A sleep-paced job slow enough (~2.5 s) to be cancelled mid-run.
	resp, body := postJSON(t, ts.URL+"/v1/jobs",
		`{"platform":"Hera","pattern":"uniform","n":10,"runner":"sleep","sleep_scale":1e-4}`)
	if resp.StatusCode != 202 {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var created jobStatus
	if err := json.Unmarshal(body, &created); err != nil {
		t.Fatal(err)
	}
	del, err := http.NewRequest(http.MethodDelete, ts.URL+"/v1/jobs/"+created.ID, nil)
	if err != nil {
		t.Fatal(err)
	}
	resp2, err := http.DefaultClient.Do(del)
	if err != nil {
		t.Fatal(err)
	}
	if readAll(t, resp2); resp2.StatusCode != http.StatusAccepted {
		t.Fatalf("cancel status %d", resp2.StatusCode)
	}
	final := waitForJob(t, ts.URL+"/v1/jobs/"+created.ID)
	if final.Status != "cancelled" {
		t.Fatalf("final status %q, want cancelled", final.Status)
	}
	// Re-cancelling the now-terminal job is a conflict carrying the
	// terminal state, not a second success.
	resp3, err := http.DefaultClient.Do(del.Clone(context.Background()))
	if err != nil {
		t.Fatal(err)
	}
	body3 := readAll(t, resp3)
	if resp3.StatusCode != http.StatusConflict {
		t.Fatalf("re-cancel status %d, want 409 (%s)", resp3.StatusCode, body3)
	}
	var terminal jobStatus
	if err := json.Unmarshal([]byte(body3), &terminal); err != nil {
		t.Fatal(err)
	}
	if terminal.Status != "cancelled" || terminal.ID != created.ID {
		t.Fatalf("conflict body: %+v, want the cancelled terminal state", terminal)
	}
}

// TestCancelFinishedJobConflict: DELETE on a job that completed on its
// own must answer 409 with the done state in the body — an
// at-least-once cancel client must not read "200, cancelled" off a job
// that actually succeeded.
func TestCancelFinishedJobConflict(t *testing.T) {
	_, ts := newTestServer(t)
	resp, body := postJSON(t, ts.URL+"/v1/jobs",
		`{"platform":"Hera","pattern":"uniform","n":6,"runner":"nop"}`)
	if resp.StatusCode != 202 {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var created jobStatus
	if err := json.Unmarshal(body, &created); err != nil {
		t.Fatal(err)
	}
	final := waitForJob(t, ts.URL+"/v1/jobs/"+created.ID)
	if final.Status != "done" {
		t.Fatalf("job ended %q, want done", final.Status)
	}
	del, err := http.NewRequest(http.MethodDelete, ts.URL+"/v1/jobs/"+created.ID, nil)
	if err != nil {
		t.Fatal(err)
	}
	resp2, err := http.DefaultClient.Do(del)
	if err != nil {
		t.Fatal(err)
	}
	body2 := readAll(t, resp2)
	if resp2.StatusCode != http.StatusConflict {
		t.Fatalf("cancel-after-done status %d, want 409 (%s)", resp2.StatusCode, body2)
	}
	var terminal jobStatus
	if err := json.Unmarshal([]byte(body2), &terminal); err != nil {
		t.Fatal(err)
	}
	if terminal.Status != "done" || terminal.ID != created.ID {
		t.Fatalf("conflict body: %+v, want the done terminal state", terminal)
	}
	if terminal.Report == nil || terminal.Report.Trace != nil {
		t.Errorf("conflict body should carry the trace-free report summary, got %+v", terminal.Report)
	}
	// The job itself must be untouched by the failed cancel.
	if got := waitForJob(t, ts.URL+"/v1/jobs/"+created.ID); got.Status != "done" {
		t.Errorf("job status after conflict: %q", got.Status)
	}
}

// terminalGate is a job store whose Append blocks on a terminal-state
// record until release is closed, signalling reached on the first one:
// a terminal fsync that takes as long as the test wants.
type terminalGate struct {
	jobstore.Store
	once    sync.Once
	reached chan struct{}
	release chan struct{}
}

func (g *terminalGate) Append(rec jobstore.Record) error {
	if rec.State.Terminal() {
		g.once.Do(func() { close(g.reached) })
		<-g.release
	}
	return g.Store.Append(rec)
}

// TestTerminalStatusPublishedAfterDurableAppend: a job's status turns
// terminal only once its terminal record is durable. While that append
// is in flight the run is over — its event stream has reached EOF — but
// the job still reads running and eviction must not pick it, since a
// crash in that window resumes it. Once the append returns, it reads
// done, and a listing taken meanwhile waited to say so.
func TestTerminalStatusPublishedAfterDurableAppend(t *testing.T) {
	gate := &terminalGate{Store: jobstore.NewMemory(),
		reached: make(chan struct{}), release: make(chan struct{})}
	released := false
	release := func() {
		if !released {
			released = true
			close(gate.release)
		}
	}
	defer release()
	eng := engine.New(engine.Options{Workers: 1})
	t.Cleanup(eng.Close)
	srv := newServer(eng, gate, "", newObsPlane(), defaultOpsConfig())
	srv.jobs.maxJobs = 1 // the next admission must evict a finished job
	ts := httptest.NewServer(srv.mux())
	t.Cleanup(ts.Close)

	const spec = `{"platform":"Hera","pattern":"uniform","n":6,"runner":"nop"}`
	resp, body := postJSON(t, ts.URL+"/v1/jobs", spec)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var created jobStatus
	if err := json.Unmarshal(body, &created); err != nil {
		t.Fatal(err)
	}
	select {
	case <-gate.reached:
	case <-time.After(10 * time.Second):
		t.Fatal("the run never appended its terminal record")
	}

	// The run has returned: its event stream ends with done.
	resp, err := http.Get(ts.URL + "/v1/jobs/" + created.ID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	events := strings.Split(strings.TrimSpace(readAll(t, resp)), "\n")
	if last := events[len(events)-1]; !strings.Contains(last, `"done"`) {
		t.Fatalf("event stream ends with %s, want the done event", last)
	}
	// The terminal record is not durable yet: the job still runs.
	resp, err = http.Get(ts.URL + "/v1/jobs/" + created.ID)
	if err != nil {
		t.Fatal(err)
	}
	var st jobStatus
	if err := json.Unmarshal([]byte(readAll(t, resp)), &st); err != nil {
		t.Fatal(err)
	}
	if st.Status != "running" || st.Report != nil {
		t.Fatalf("status before the terminal record is durable: %+v, want running without a report", st)
	}
	// Nor may eviction pick it: a second admission into the full table
	// keeps it.
	if resp, body := postJSON(t, ts.URL+"/v1/jobs", spec); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("second job: status %d: %s", resp.StatusCode, body)
	}
	if _, ok := srv.jobs.get(created.ID); !ok {
		t.Fatal("eviction picked a job whose terminal record is not durable")
	}

	// A listing reports how jobs ended, so it waits for the terminal
	// record of a run that has returned instead of listing it running.
	type listing struct {
		Jobs []jobStatus `json:"jobs"`
	}
	listed := make(chan listing, 1)
	go func() {
		var l listing
		if resp, err := http.Get(ts.URL + "/v1/jobs"); err == nil {
			json.NewDecoder(resp.Body).Decode(&l)
			resp.Body.Close()
		}
		listed <- l
	}()
	time.Sleep(50 * time.Millisecond) // let the listing reach its wait

	release()
	if final := waitForJob(t, ts.URL+"/v1/jobs/"+created.ID); final.Status != "done" || final.Report == nil {
		t.Fatalf("after the terminal append: %+v, want done with a report", final)
	}
	l := <-listed
	if len(l.Jobs) == 0 || l.Jobs[0].ID != created.ID || l.Jobs[0].Status != "done" {
		t.Fatalf("listing taken while the terminal append was in flight: %+v, want %s done first", l.Jobs, created.ID)
	}
}
