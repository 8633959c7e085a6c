// Tests for the replay-recording surface of the service: the trace
// endpoint's determinism contract (same spec + same explicit seed =>
// byte-identical canonical recordings), the -record-dir mirror, and the
// conflict answer for jobs whose execution predates the recorder.
package main

import (
	"context"
	"encoding/hex"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"testing"
	"time"

	"chainckpt/internal/engine"
	"chainckpt/internal/jobstore"
	"chainckpt/internal/replay"
)

// recordedSpec fixes every input of the run, seed included: the
// determinism gate depends on nothing but these bytes.
const recordedSpec = `{"algorithm":"ADMV*","platform_spec":{"name":"ReplayLab",` +
	`"lambda_f":1e-4,"lambda_s":4e-4,"c_d":100,"c_m":10,"r_d":100,"r_m":10,` +
	`"v_star":10,"v":0.1,"recall":0.8},"pattern":"uniform","n":24,"total":24000,` +
	`"true_rate_scale_f":2,"seed":17}`

// fetchTrace posts one job and returns its sealed canonical recording.
func fetchTrace(t *testing.T, baseURL, spec string) (string, []byte) {
	t.Helper()
	resp, body := postJSON(t, baseURL+"/v1/jobs", spec)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("create status %d: %s", resp.StatusCode, body)
	}
	var created jobStatus
	if err := json.Unmarshal(body, &created); err != nil {
		t.Fatal(err)
	}
	tr, err := http.Get(baseURL + "/v1/jobs/" + created.ID + "/trace")
	if err != nil {
		t.Fatal(err)
	}
	data := readAll(t, tr)
	if tr.StatusCode != http.StatusOK {
		t.Fatalf("trace status %d: %s", tr.StatusCode, data)
	}
	return created.ID, []byte(data)
}

// TestTraceEndpointIsDeterministic is the replay gate the CI job runs:
// two jobs from identical specs (explicit seed) must answer
// GET /v1/jobs/{id}/trace with byte-identical bodies — the recording
// carries no job id, no sequence numbers and no timestamps, so a plain
// diff is the equivalence check.
func TestTraceEndpointIsDeterministic(t *testing.T) {
	_, ts := newTestServer(t)
	id1, rec1 := fetchTrace(t, ts.URL, recordedSpec)
	id2, rec2 := fetchTrace(t, ts.URL, recordedSpec)
	if id1 == id2 {
		t.Fatalf("distinct jobs share id %s", id1)
	}
	if string(rec1) != string(rec2) {
		a, errA := replay.Decode(rec1)
		b, errB := replay.Decode(rec2)
		if errA != nil || errB != nil {
			t.Fatalf("recordings differ and do not decode (%v, %v)", errA, errB)
		}
		d, _ := replay.Diff(a, b)
		t.Fatalf("identical specs, divergent recordings: %s\nrepro: go test ./cmd/chainserve -run TestTraceEndpointIsDeterministic -count=1  # seed=17", d)
	}

	// The recording is a well-formed, non-trivial capture of the run.
	rec, err := replay.Decode(rec1)
	if err != nil {
		t.Fatal(err)
	}
	if rec.Meta.Seed != 17 || rec.Meta.Runner != "sim" || rec.Meta.Algorithm == "" {
		t.Fatalf("meta: %+v", rec.Meta)
	}
	if rec.Meta.ChainFingerprint == "" || rec.Meta.ScheduleFingerprint == "" || rec.Meta.Instance == "" {
		t.Fatalf("meta is missing instance fingerprints: %+v", rec.Meta)
	}
	// All three fingerprints must be printable hex, not raw hash bytes
	// (raw bytes are not valid UTF-8 and get mangled by JSON encoding).
	for name, fp := range map[string]string{
		"chain": rec.Meta.ChainFingerprint, "schedule": rec.Meta.ScheduleFingerprint,
		"instance": rec.Meta.Instance,
	} {
		if _, err := hex.DecodeString(fp); err != nil {
			t.Fatalf("%s fingerprint is not hex (%v): %q", name, err, fp)
		}
	}
	if len(rec.Frames) == 0 || len(rec.Checkpoints) == 0 || rec.Report == nil {
		t.Fatalf("recording is incomplete: %d frames, %d checkpoints, report=%v",
			len(rec.Frames), len(rec.Checkpoints), rec.Report)
	}
	if rec.Report.Seed != 17 {
		t.Fatalf("report seed %d, want 17", rec.Report.Seed)
	}
	// The lifecycle journal walks created -> planned -> running* -> done
	// with identity and timestamps normalized away.
	if len(rec.Journal) < 3 {
		t.Fatalf("journal has %d records, want the full lifecycle", len(rec.Journal))
	}
	if rec.Journal[0].State != jobstore.StateCreated || rec.Journal[1].State != jobstore.StatePlanned {
		t.Fatalf("journal opens %s, %s", rec.Journal[0].State, rec.Journal[1].State)
	}
	if last := rec.Journal[len(rec.Journal)-1]; last.State != jobstore.StateDone {
		t.Fatalf("journal ends in %s, want done", last.State)
	}
	for i, jr := range rec.Journal {
		if jr.ID != "" || jr.Seq != 0 || !jr.CreatedAt.IsZero() || !jr.UpdatedAt.IsZero() {
			t.Fatalf("journal record %d not normalized: %+v", i, jr)
		}
		if jr.Seed != 17 {
			t.Fatalf("journal record %d lost the seed: %+v", i, jr)
		}
	}
}

// TestRecordDirMirrorsTraceEndpoint: with a record directory configured
// the sealed recording also lands on disk as <id>.json, byte-identical
// to the endpoint's body.
func TestRecordDirMirrorsTraceEndpoint(t *testing.T) {
	srv, ts := newTestServer(t)
	srv.recordDir = t.TempDir()
	id, rec := fetchTrace(t, ts.URL, recordedSpec)
	onDisk, err := os.ReadFile(filepath.Join(srv.recordDir, id+".json"))
	if err != nil {
		t.Fatal(err)
	}
	if string(onDisk) != string(rec) {
		t.Fatal("recording on disk differs from the trace endpoint's body")
	}
}

// TestTraceOfAdoptedJobConflicts: a job adopted in its terminal state
// from a previous service life has no recording — its execution
// happened before this recorder existed — and the endpoint must say so
// with 409 rather than hang or 500.
func TestTraceOfAdoptedJobConflicts(t *testing.T) {
	dir := t.TempDir()
	st, err := jobstore.Open(filepath.Join(dir, "journal"), jobstore.Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st.Close() })
	now := time.Now().UTC()
	if err := st.Append(jobstore.Record{
		ID: "job-1", Seq: 1, Version: 3, State: jobstore.StateDone,
		CreatedAt: now, UpdatedAt: now,
	}); err != nil {
		t.Fatal(err)
	}
	eng := engine.New(engine.Options{Workers: 1})
	t.Cleanup(eng.Close)
	srv := newServer(eng, st, dir, newObsPlane(), defaultOpsConfig())
	if resumed, adopted := srv.recoverJobs(context.Background()); resumed != 0 || adopted != 1 {
		t.Fatalf("recoverJobs = (%d, %d), want (0, 1)", resumed, adopted)
	}
	ts := httptest.NewServer(srv.mux())
	t.Cleanup(ts.Close)
	resp, err := http.Get(ts.URL + "/v1/jobs/job-1/trace")
	if err != nil {
		t.Fatal(err)
	}
	if body := readAll(t, resp); resp.StatusCode != http.StatusConflict {
		t.Fatalf("trace of adopted job: status %d (%s), want 409", resp.StatusCode, body)
	}
}
