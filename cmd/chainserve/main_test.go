package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"chainckpt/internal/core"
	"chainckpt/internal/engine"
	"chainckpt/internal/jobstore"
	"chainckpt/internal/platform"
	"chainckpt/internal/runtime"
	"chainckpt/internal/schedule"
	"chainckpt/internal/sim"
	"chainckpt/internal/workload"
)

func newTestServer(t *testing.T) (*server, *httptest.Server) {
	t.Helper()
	eng := engine.New(engine.Options{Workers: 4})
	t.Cleanup(eng.Close)
	srv := newServer(eng, jobstore.NewMemory(), "", newObsPlane(), defaultOpsConfig())
	ts := httptest.NewServer(srv.mux())
	t.Cleanup(ts.Close)
	return srv, ts
}

func postJSON(t *testing.T, url, body string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	return resp, []byte(readAll(t, resp))
}

func readAll(t *testing.T, resp *http.Response) string {
	t.Helper()
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(body)
}

func TestPlanEndpointMatchesLibrary(t *testing.T) {
	_, ts := newTestServer(t)
	resp, body := postJSON(t, ts.URL+"/v1/plan",
		`{"algorithm":"ADMV","platform":"Hera","pattern":"uniform","n":20,"tag":"t1"}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var out planResponse
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatalf("bad JSON: %v\n%s", err, body)
	}
	if out.Tag != "t1" || out.Algorithm != "ADMV" || out.Error != "" {
		t.Fatalf("response: %+v", out)
	}

	c, err := workload.Uniform(20, workload.PaperTotalWeight)
	if err != nil {
		t.Fatal(err)
	}
	want, err := core.PlanADMV(c, platform.Hera())
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(out.ExpectedMakespan-want.ExpectedMakespan) > 1e-9*want.ExpectedMakespan {
		t.Errorf("expected makespan %.6f, want %.6f", out.ExpectedMakespan, want.ExpectedMakespan)
	}
	if out.Schedule == nil || !out.Schedule.Equal(want.Schedule) {
		t.Errorf("schedule mismatch: got %v want %v", out.Schedule, want.Schedule)
	}
}

func TestPlanEndpointExplicitWeightsAndSpec(t *testing.T) {
	_, ts := newTestServer(t)
	spec, err := json.Marshal(platform.Hera())
	if err != nil {
		t.Fatal(err)
	}
	resp, body := postJSON(t, ts.URL+"/v1/plan",
		`{"algorithm":"ADMV*","platform_spec":`+string(spec)+`,"weights":[100,200,300,400]}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var out planResponse
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatal(err)
	}
	if out.Error != "" || out.Counts == nil || out.Counts.Disk < 1 {
		t.Fatalf("response: %+v", out)
	}
}

func TestPlanEndpointErrors(t *testing.T) {
	_, ts := newTestServer(t)
	for _, tc := range []struct {
		body   string
		status int
	}{
		{`{not json`, http.StatusBadRequest},
		{`{"platform":"NoSuch","weights":[1,2]}`, http.StatusBadRequest},
		{`{"platform":"Hera"}`, http.StatusBadRequest},
		{`{"platform":"Hera","pattern":"zigzag","n":5}`, http.StatusBadRequest},
		{`{"platform":"Hera","weights":[1,2],"algorithm":"NOPE"}`, http.StatusUnprocessableEntity},
	} {
		resp, body := postJSON(t, ts.URL+"/v1/plan", tc.body)
		if resp.StatusCode != tc.status {
			t.Errorf("%s: status %d, want %d (%s)", tc.body, resp.StatusCode, tc.status, body)
		}
	}
}

func TestBatchEndpoint(t *testing.T) {
	srv, ts := newTestServer(t)
	batch := `{"requests":[
		{"platform":"Hera","pattern":"uniform","n":10,"tag":"a"},
		{"platform":"Hera","pattern":"uniform","n":10,"tag":"b"},
		{"platform":"BadName","weights":[1],"tag":"c"}
	]}`
	resp, body := postJSON(t, ts.URL+"/v1/plan/batch", batch)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var out batchResponse
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatal(err)
	}
	if len(out.Responses) != 3 {
		t.Fatalf("responses: %d", len(out.Responses))
	}
	a, b, c := out.Responses[0], out.Responses[1], out.Responses[2]
	if a.Error != "" || b.Error != "" {
		t.Fatalf("unexpected errors: %+v %+v", a, b)
	}
	if a.ExpectedMakespan != b.ExpectedMakespan {
		t.Errorf("identical requests disagree: %f vs %f", a.ExpectedMakespan, b.ExpectedMakespan)
	}
	if !b.Cached && !a.Cached {
		t.Errorf("identical requests in one batch should coalesce onto the memo")
	}
	if c.Error == "" || c.Tag != "c" {
		t.Errorf("bad request should carry its error: %+v", c)
	}
	if st := srv.eng.Stats(); st.CacheHits == 0 {
		t.Errorf("engine stats show no cache hit: %+v", st)
	}
}

func TestHealthMetricsPlatforms(t *testing.T) {
	_, ts := newInstrumentedServer(t)

	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	if body := readAll(t, resp); resp.StatusCode != http.StatusOK || !strings.Contains(body, "ok") {
		t.Fatalf("healthz: %d %s", resp.StatusCode, body)
	}

	postJSON(t, ts.URL+"/v1/plan", `{"platform":"Hera","pattern":"uniform","n":5}`)

	resp, err = http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	metrics := readAll(t, resp)
	for _, want := range []string{
		`chainckpt_http_route_requests_total{route="plan",code="200"} 1`,
		"chainckpt_engine_requests_total 1",
		"chainckpt_engine_cache_misses_total 1",
		"chainckpt_http_uptime_seconds",
	} {
		if !strings.Contains(metrics, want) {
			t.Errorf("metrics missing %q:\n%s", want, metrics)
		}
	}

	resp, err = http.Get(ts.URL + "/v1/platforms")
	if err != nil {
		t.Fatal(err)
	}
	var plats []platform.Platform
	if err := json.Unmarshal([]byte(readAll(t, resp)), &plats); err != nil {
		t.Fatal(err)
	}
	if len(plats) != 4 {
		t.Errorf("platforms: %d, want 4", len(plats))
	}
}

// TestMetricsShardGauges: the engine families count every solve,
// hit and memo entry of the one pool, the solve histogram carries its
// single shard="0" child, and no per-shard family is exported.
func TestMetricsShardGauges(t *testing.T) {
	_, ts := newInstrumentedServer(t)

	// Distinct plans plus one repeat: 3 solves and 1 hit.
	postJSON(t, ts.URL+"/v1/plan", `{"platform":"Hera","pattern":"uniform","n":6}`)
	postJSON(t, ts.URL+"/v1/plan", `{"platform":"Hera","pattern":"uniform","n":7}`)
	postJSON(t, ts.URL+"/v1/plan", `{"platform":"Atlas","pattern":"uniform","n":8}`)
	postJSON(t, ts.URL+"/v1/plan", `{"platform":"Hera","pattern":"uniform","n":6}`)

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	metrics := readAll(t, resp)
	for _, want := range []string{
		"chainckpt_engine_cache_misses_total 3",
		"chainckpt_engine_cache_hits_total 1",
		"chainckpt_engine_cache_entries 3",
		`chainckpt_engine_solve_seconds_count{shard="0"} 3`,
		"chainckpt_engine_queue_wait_seconds_count 3",
	} {
		if !strings.Contains(metrics, want+"\n") {
			t.Errorf("metrics missing %q:\n%s", want, metrics)
		}
	}
	if strings.Contains(metrics, "_engine_shard") {
		t.Error("per-shard engine families are still exported")
	}
}

func TestEngineSolveWorkers(t *testing.T) {
	for _, tc := range []struct{ flag, want int }{{1, 1}, {0, -1}, {4, 4}} {
		if got, err := engineSolveWorkers(tc.flag); err != nil || got != tc.want {
			t.Errorf("engineSolveWorkers(%d) = %d, %v; want %d", tc.flag, got, err, tc.want)
		}
	}
	for _, v := range []int{-1, -5} {
		_, err := engineSolveWorkers(v)
		if err == nil || !strings.Contains(err.Error(), "-solve-workers") {
			t.Errorf("engineSolveWorkers(%d) error = %v, want one naming -solve-workers", v, err)
		}
	}
}

func TestDefaultDrainTimeout(t *testing.T) {
	env := func(vals map[string]string) func(string) string {
		return func(k string) string { return vals[k] }
	}
	for _, tc := range []struct {
		name string
		env  map[string]string
		want time.Duration
	}{
		{"default", nil, 10 * time.Second},
		{"from env", map[string]string{"CHAINSERVE_DRAIN_TIMEOUT": "30s"}, 30 * time.Second},
		{"sub-second", map[string]string{"CHAINSERVE_DRAIN_TIMEOUT": "250ms"}, 250 * time.Millisecond},
		{"invalid falls back", map[string]string{"CHAINSERVE_DRAIN_TIMEOUT": "soon"}, 10 * time.Second},
		{"negative falls back", map[string]string{"CHAINSERVE_DRAIN_TIMEOUT": "-5s"}, 10 * time.Second},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if got := defaultDrainTimeout(env(tc.env)); got != tc.want {
				t.Errorf("defaultDrainTimeout = %v, want %v", got, tc.want)
			}
		})
	}
}

func waitForJob(t *testing.T, url string) jobStatus {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		resp, err := http.Get(url)
		if err != nil {
			t.Fatal(err)
		}
		var st jobStatus
		if err := json.Unmarshal([]byte(readAll(t, resp)), &st); err != nil {
			t.Fatal(err)
		}
		if st.Status != "running" {
			return st
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatal("job did not finish in time")
	return jobStatus{}
}

func TestJobLifecycle(t *testing.T) {
	_, ts := newTestServer(t)
	resp, body := postJSON(t, ts.URL+"/v1/jobs",
		`{"algorithm":"ADMV*","platform":"Hera","pattern":"uniform","n":10,"seed":3}`)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var created jobStatus
	if err := json.Unmarshal(body, &created); err != nil {
		t.Fatal(err)
	}
	if created.ID == "" || created.Status != "running" || created.Predicted <= 0 {
		t.Fatalf("created job: %+v", created)
	}

	final := waitForJob(t, ts.URL+"/v1/jobs/"+created.ID)
	if final.Status != "done" || final.Report == nil {
		t.Fatalf("final job: %+v", final)
	}
	if final.Report.Makespan <= 0 || final.Report.Events.TasksRun < 10 {
		t.Fatalf("report: %+v", final.Report)
	}

	// The NDJSON stream replays the full event log, one JSON event per
	// line, ending with the done event.
	resp, err := http.Get(ts.URL + "/v1/jobs/" + created.ID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Errorf("content type %q", ct)
	}
	lines := strings.Split(strings.TrimSpace(readAll(t, resp)), "\n")
	if len(lines) != len(final.Report.Trace) {
		t.Fatalf("streamed %d events, report has %d", len(lines), len(final.Report.Trace))
	}
	var last struct {
		T    float64 `json:"t"`
		Kind string  `json:"kind"`
		Pos  int     `json:"pos"`
	}
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &last); err != nil {
		t.Fatal(err)
	}
	if last.Kind != "done" || last.Pos != 10 {
		t.Fatalf("last streamed event: %+v", last)
	}

	// The job shows up in the listing.
	resp, err = http.Get(ts.URL + "/v1/jobs")
	if err != nil {
		t.Fatal(err)
	}
	var listing struct {
		Jobs []jobStatus `json:"jobs"`
	}
	if err := json.Unmarshal([]byte(readAll(t, resp)), &listing); err != nil {
		t.Fatal(err)
	}
	if len(listing.Jobs) != 1 || listing.Jobs[0].ID != created.ID {
		t.Fatalf("listing: %+v", listing)
	}
}

func TestAdaptiveJobReplansUnderMisspecifiedRates(t *testing.T) {
	_, ts := newTestServer(t)
	spec := `{"name":"JobLab","lambda_f":1e-4,"lambda_s":4e-4,"c_d":100,"c_m":10,` +
		`"r_d":100,"r_m":10,"v_star":10,"v":0.1,"recall":0.8}`
	resp, body := postJSON(t, ts.URL+"/v1/jobs",
		`{"algorithm":"ADMV*","platform_spec":`+spec+`,"pattern":"uniform","n":30,"total":25000,`+
			`"adaptive":true,"true_rate_scale_f":4,"true_rate_scale_s":4,"seed":11}`)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var created jobStatus
	if err := json.Unmarshal(body, &created); err != nil {
		t.Fatal(err)
	}
	final := waitForJob(t, ts.URL+"/v1/jobs/"+created.ID)
	if final.Status != "done" {
		t.Fatalf("job: %+v", final)
	}
	if final.Report.Events.Replans == 0 {
		t.Fatalf("adaptive job under 4x rates never re-planned: %+v", final.Report.Events)
	}
	if final.Report.LambdaFEstimate <= 1e-4 {
		t.Errorf("estimate %.3g did not rise above the modeled rate", final.Report.LambdaFEstimate)
	}
}

func TestJobEndpointErrors(t *testing.T) {
	_, ts := newTestServer(t)
	for _, tc := range []struct {
		body   string
		status int
	}{
		{`{not json`, http.StatusBadRequest},
		{`{"platform":"Hera"}`, http.StatusBadRequest},
		{`{"platform":"Hera","weights":[1,2],"true_rate_scale_f":-1}`, http.StatusBadRequest},
		{`{"platform":"Hera","weights":[1,2],"algorithm":"NOPE"}`, http.StatusUnprocessableEntity},
	} {
		resp, body := postJSON(t, ts.URL+"/v1/jobs", tc.body)
		if resp.StatusCode != tc.status {
			t.Errorf("%s: status %d, want %d (%s)", tc.body, resp.StatusCode, tc.status, body)
		}
	}
	resp, err := http.Get(ts.URL + "/v1/jobs/job-999")
	if err != nil {
		t.Fatal(err)
	}
	if readAll(t, resp); resp.StatusCode != http.StatusNotFound {
		t.Errorf("unknown job status: %d", resp.StatusCode)
	}
	resp, err = http.Get(ts.URL + "/v1/jobs/job-999/events")
	if err != nil {
		t.Fatal(err)
	}
	if readAll(t, resp); resp.StatusCode != http.StatusNotFound {
		t.Errorf("unknown job events status: %d", resp.StatusCode)
	}
}

func TestMetricsEngineAndJobGauges(t *testing.T) {
	_, ts := newInstrumentedServer(t)
	// Two identical plans: one miss, one hit.
	postJSON(t, ts.URL+"/v1/plan", `{"platform":"Hera","pattern":"uniform","n":5}`)
	postJSON(t, ts.URL+"/v1/plan", `{"platform":"Hera","pattern":"uniform","n":5}`)

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	metrics := readAll(t, resp)
	for _, want := range []string{
		`chainckpt_engine_plans_total{algorithm="ADMV"} 2`,
		`chainckpt_engine_plans_total{algorithm="ADV*"} 0`,
		"chainckpt_engine_requests_total 2",
		"chainckpt_engine_cache_hits_total 1",
		"chainckpt_jobs_total 0",
		"chainckpt_jobs_running 0",
		"chainckpt_runtime_replans_total 0",
		"chainckpt_jobs_errors_total 0",
		"chainckpt_jobs_resumed_total 0",
		"chainckpt_http_replan_requests_total 0",
		"chainckpt_jobs_store_errors_total 0",
	} {
		if !strings.Contains(metrics, want) {
			t.Errorf("metrics missing %q:\n%s", want, metrics)
		}
	}
}

func TestMetricsKernelScratchGauges(t *testing.T) {
	_, ts := newInstrumentedServer(t)
	// Three distinct instances of one size class: the first solve
	// allocates an arena, the repeats recycle it (the plans differ, so
	// the engine memo cannot serve them).
	postJSON(t, ts.URL+"/v1/plan", `{"platform":"Hera","pattern":"uniform","n":6}`)
	postJSON(t, ts.URL+"/v1/plan", `{"platform":"Hera","pattern":"decrease","n":6}`)
	postJSON(t, ts.URL+"/v1/plan", `{"platform":"Atlas","pattern":"uniform","n":6}`)

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	metrics := readAll(t, resp)
	// Exact reuse counts depend on which worker's sync.Pool slot served
	// each solve, so the split between fresh and reused is asserted only
	// in aggregate (3 solves => 3 arena acquisitions, at least one
	// fresh), while names, the one active size class and labels are
	// exact.
	for _, want := range []string{
		"chainckpt_kernel_solves_total 3",
		`chainckpt_kernel_scratch_bucket_arenas_total{cap="8",kind="reused"} `,
		`chainckpt_kernel_scratch_bucket_arenas_total{cap="8",kind="fresh"} `,
		`chainckpt_kernel_arena_bytes{cap="8"} `,
	} {
		if !strings.Contains(metrics, want) {
			t.Errorf("metrics missing %q:\n%s", want, metrics)
		}
	}
	if n := strings.Count(metrics, "\nchainckpt_kernel_arena_bytes{"); n != 1 {
		t.Errorf("%d active scratch size classes, want 1:\n%s", n, metrics)
	}
	var fresh, reuses uint64
	for _, line := range strings.Split(metrics, "\n") {
		if v, ok := strings.CutPrefix(line, `chainckpt_kernel_scratch_bucket_arenas_total{cap="8",kind="fresh"} `); ok {
			fmt.Sscanf(v, "%d", &fresh)
		}
		if v, ok := strings.CutPrefix(line, `chainckpt_kernel_scratch_bucket_arenas_total{cap="8",kind="reused"} `); ok {
			fmt.Sscanf(v, "%d", &reuses)
		}
	}
	if fresh < 1 || fresh+reuses != 3 {
		t.Errorf("scratch accounting fresh=%d reuses=%d, want fresh>=1 and fresh+reuses=3", fresh, reuses)
	}
}

// TestJobsTotalCountsEveryAcceptedJob: chainckpt_jobs_total counts
// accepted jobs, not the retained ones — with the job table capped at
// 2, five finished jobs still scrape as 5.
func TestJobsTotalCountsEveryAcceptedJob(t *testing.T) {
	srv, ts := newTestServer(t)
	srv.jobs.maxJobs = 2
	for i := 0; i < 5; i++ {
		fetchTrace(t, ts.URL, recordedSpec)
	}
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	if metrics := readAll(t, resp); !strings.Contains(metrics, "\nchainckpt_jobs_total 5\n") {
		t.Errorf("metrics do not count 5 accepted jobs:\n%s", metrics)
	}
}

func TestJobManagerRetentionAndBackpressure(t *testing.T) {
	m := newJobManager(jobstore.NewMemory(), "")
	m.maxJobs = 3
	m.maxRunning = 2

	mk := func() *job {
		t.Helper()
		j, _, err := m.register(jobstore.Record{}, admission(nil, 0)...)
		if err != nil {
			t.Fatal(err)
		}
		return j
	}
	a, b := mk(), mk()
	// Both running: the cap rejects a third.
	if _, _, err := m.register(jobstore.Record{}, admission(nil, 0)...); err == nil {
		t.Fatal("running cap did not reject")
	}
	m.finish(a, nil, nil)
	m.finish(b, nil, nil)
	c := mk()
	m.finish(c, nil, nil)
	// Retention (3): creating a fourth evicts the oldest finished job.
	d := mk()
	if _, ok := m.get("job-1"); ok {
		t.Error("oldest finished job not evicted")
	}
	if _, ok := m.get(d.snapshot().ID); !ok {
		t.Error("new job missing")
	}
	ctx := context.Background()
	if got := len(m.list(ctx)); got != 3 {
		t.Errorf("listing has %d jobs, want 3", got)
	}
	// Listings strip the trace but keep the report, whose trace is the
	// job's event log.
	e := mk()
	e.append(sim.TraceEvent{Kind: "done"})
	m.finish(e, &runtime.Report{Makespan: 1, FinalSchedule: schedule.MustNew(1)}, nil)
	for _, st := range m.list(ctx) {
		if st.Report != nil && st.Report.Trace != nil {
			t.Error("listing leaked a full trace")
		}
	}
	if full := e.snapshot(); full.Report == nil || len(full.Report.Trace) != 1 {
		t.Error("direct snapshot lost the trace")
	}
}
