// Tests for the observability plane's HTTP surface: the /metrics
// exposition must survive the Prometheus text-format linter, a
// completed job must answer /v1/jobs/{id}/spans with a non-empty span
// tree, the debug trace index must cover request and job traces, and —
// the replay gate's guard — recordings must stay byte-identical with
// tracing on or off.
package main

import (
	"bufio"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"slices"
	"strings"
	"testing"

	"chainckpt/internal/engine"
	"chainckpt/internal/jobstore"
	"chainckpt/internal/obs"
)

// newInstrumentedServer wires the full plane the way main() does:
// engine, runtime and jobstore metrics all feeding one registry.
func newInstrumentedServer(t *testing.T) (*server, *httptest.Server) {
	t.Helper()
	plane := newObsPlane()
	eng := engine.New(engine.Options{Workers: 2, Metrics: plane.engine})
	t.Cleanup(eng.Close)
	srv := newServer(eng, jobstore.NewMemory(), "", plane, defaultOpsConfig())
	ts := httptest.NewServer(srv.mux())
	t.Cleanup(ts.Close)
	return srv, ts
}

// TestMetricsExpositionLintsClean drives real traffic — plans, a full
// job, error responses, a scrape — and then validates every line of
// /metrics against the Prometheus text format: HELP/TYPE present, no
// duplicate series, label escaping, histogram bucket monotonicity.
func TestMetricsExpositionLintsClean(t *testing.T) {
	_, ts := newInstrumentedServer(t)
	postJSON(t, ts.URL+"/v1/plan",
		`{"algorithm":"ADMV","platform":"Hera","pattern":"uniform","n":20}`)
	postJSON(t, ts.URL+"/v1/plan", `{"platform":"nope"}`) // a 4xx for the route counter
	fetchTrace(t, ts.URL, recordedSpec)                   // a full job
	http.Get(ts.URL + "/metrics")                         // a prior scrape (collector deltas)

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("content type %q", ct)
	}
	body := readAll(t, resp)
	if problems := obs.Lint(strings.NewReader(body)); len(problems) > 0 {
		for _, p := range problems {
			t.Errorf("lint: %s", p)
		}
	}
	// The acceptance surface: latency histograms for HTTP routes,
	// engine solves, checkpoint commits and journal appends, plus each
	// layer's counters, all rendered from the registry.
	for _, want := range []string{
		`chainckpt_http_request_seconds_bucket{route="plan",le="+Inf"}`,
		`chainckpt_http_route_requests_total{route="plan",code="200"} 1`,
		`chainckpt_http_route_requests_total{route="plan",code="400"} 1`,
		"# TYPE chainckpt_engine_solve_seconds histogram",
		"# TYPE chainckpt_runtime_ckpt_commit_seconds histogram",
		"# TYPE chainckpt_jobstore_append_seconds histogram",
		"chainckpt_engine_requests_total",
		"chainckpt_kernel_solves_total",
		"chainckpt_kernel_arena_bytes",
		"chainckpt_kernel_parallel_tiles_total",
		"chainckpt_kernel_parallel_busy_seconds_total",
		"chainckpt_kernel_parallel_crossover_skips_total",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("metrics missing %q", want)
		}
	}
	// Every family is a chainckpt_* series registered by its owning
	// layer. The solve team schedules from one shared cursor and keeps
	// no goroutines between solves: no span, steal or helper-pool
	// families. Admission is a plain bounded queue: no SLO families.
	for _, gone := range []string{
		"chainserve_",
		"chainckpt_kernel_local_tiles_total",
		"chainckpt_kernel_steal_total",
		"chainckpt_kernel_parallel_workers",
		"chainckpt_slo_",
	} {
		if strings.Contains(body, gone) {
			t.Errorf("metrics still export %q", gone)
		}
	}
}

// TestJobSpansEndpoint checks the span tree of a completed job: a job
// root carrying runtime children with sane offsets.
func TestJobSpansEndpoint(t *testing.T) {
	_, ts := newInstrumentedServer(t)
	id, _ := fetchTrace(t, ts.URL, recordedSpec) // blocks until the run is sealed

	resp, err := http.Get(ts.URL + "/v1/jobs/" + id + "/spans")
	if err != nil {
		t.Fatal(err)
	}
	body := readAll(t, resp)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("spans status %d: %s", resp.StatusCode, body)
	}
	var td obs.TraceDump
	if err := json.Unmarshal([]byte(body), &td); err != nil {
		t.Fatal(err)
	}
	if td.ID != id || td.Root == nil || td.Root.Name != "job" {
		t.Fatalf("dump: id=%q root=%+v", td.ID, td.Root)
	}
	if len(td.Root.Children) == 0 {
		t.Fatal("job root has no child spans")
	}
	names := map[string]bool{}
	var walk func(*obs.SpanDump)
	walk = func(s *obs.SpanDump) {
		names[s.Name] = true
		if s.StartNs < 0 || s.DurNs < 0 {
			t.Fatalf("span %s has negative offsets: %+v", s.Name, s)
		}
		for _, c := range s.Children {
			walk(c)
		}
	}
	walk(td.Root)
	for _, want := range []string{"runtime.task", "runtime.verify", "runtime.ckpt.commit"} {
		if !names[want] {
			t.Errorf("span tree missing %q (have %v)", want, names)
		}
	}

	if resp, err := http.Get(ts.URL + "/v1/jobs/job-999/spans"); err != nil {
		t.Fatal(err)
	} else if readAll(t, resp); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown job spans: status %d, want 404", resp.StatusCode)
	}
}

// TestDebugTraceEndpoints checks the request-trace ring: a traced
// route answers with X-Request-Id, the index lists it, and the dump
// resolves both request and job ids.
func TestDebugTraceEndpoints(t *testing.T) {
	_, ts := newInstrumentedServer(t)
	resp, _ := postJSON(t, ts.URL+"/v1/plan",
		`{"algorithm":"ADMV","platform":"Hera","pattern":"uniform","n":16}`)
	reqID := resp.Header.Get("X-Request-Id")
	if reqID == "" {
		t.Fatal("traced route answered without X-Request-Id")
	}
	jobID, _ := fetchTrace(t, ts.URL, recordedSpec)

	lr, err := http.Get(ts.URL + "/debug/traces")
	if err != nil {
		t.Fatal(err)
	}
	var index struct {
		Requests []string `json:"requests"`
		Jobs     []string `json:"jobs"`
	}
	if err := json.Unmarshal([]byte(readAll(t, lr)), &index); err != nil {
		t.Fatal(err)
	}
	contains := func(ids []string, id string) bool {
		for _, v := range ids {
			if v == id {
				return true
			}
		}
		return false
	}
	if !contains(index.Requests, reqID) {
		t.Fatalf("trace index %v missing request %s", index.Requests, reqID)
	}
	if !contains(index.Jobs, jobID) {
		t.Fatalf("trace index %v missing job %s", index.Jobs, jobID)
	}

	for _, id := range []string{reqID, jobID} {
		dr, err := http.Get(ts.URL + "/debug/traces/" + id)
		if err != nil {
			t.Fatal(err)
		}
		body := readAll(t, dr)
		if dr.StatusCode != http.StatusOK {
			t.Fatalf("trace %s: status %d: %s", id, dr.StatusCode, body)
		}
		var td obs.TraceDump
		if err := json.Unmarshal([]byte(body), &td); err != nil {
			t.Fatal(err)
		}
		if td.ID != id || td.Root == nil {
			t.Fatalf("trace %s: bad dump %+v", id, td)
		}
	}

	// The plan request's engine child hangs under the HTTP root span.
	dr, _ := http.Get(ts.URL + "/debug/traces/" + reqID)
	var td obs.TraceDump
	if err := json.Unmarshal([]byte(readAll(t, dr)), &td); err != nil {
		t.Fatal(err)
	}
	var plan *obs.SpanDump
	for _, c := range td.Root.Children {
		if c.Name == "engine.plan" {
			plan = c
		}
	}
	if plan == nil {
		t.Fatalf("request trace has no engine.plan child: %+v", td.Root)
	}
	// The solve itself is a child of the plan span, annotated with the
	// team width the kernel ran at (serial here: the engine default).
	var solve *obs.SpanDump
	for _, c := range plan.Children {
		if c.Name == "kernel.solve" {
			solve = c
		}
	}
	if solve == nil {
		t.Fatalf("engine.plan has no kernel.solve child: %+v", plan)
	}
	if got := solve.Attrs["workers"]; got != "1" {
		t.Errorf("kernel.solve workers attr = %q, want \"1\"", got)
	}
}

// TestRecordingUnchangedByTracing is the replay-purity regression:
// the same spec with the same explicit seed must produce byte-identical
// canonical recordings whether the run was traced and metered (the
// default plane) or completely uninstrumented — spans and histograms
// must never leak into the event-sourced capture.
func TestRecordingUnchangedByTracing(t *testing.T) {
	_, traced := newInstrumentedServer(t)

	bare := newObsPlane()
	bare.httpTracer, bare.jobTracer = nil, nil
	bare.engine, bare.runtime, bare.jobstore = nil, nil, nil
	eng := engine.New(engine.Options{Workers: 2})
	t.Cleanup(eng.Close)
	srv := newServer(eng, jobstore.NewMemory(), "", bare, defaultOpsConfig())
	ts := httptest.NewServer(srv.mux())
	t.Cleanup(ts.Close)

	_, withTracing := fetchTrace(t, traced.URL, recordedSpec)
	_, without := fetchTrace(t, ts.URL, recordedSpec)
	if string(withTracing) != string(without) {
		t.Fatal("recording bytes differ with tracing on vs off")
	}
}

// TestMetricsReferenceMatchesScrape holds README's metrics reference
// to the scrape of a fully wired server — a journal store, one plan
// and one job: the first table lists exactly the families (and types)
// the scrape renders, and the second lists the families that render
// only once their first labelled sample exists, absent here.
func TestMetricsReferenceMatchesScrape(t *testing.T) {
	plane := newObsPlane()
	dir := t.TempDir()
	journal, err := jobstore.Open(dir+"/journal", jobstore.Options{NoSync: true, Metrics: plane.jobstore})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { journal.Close() })
	eng := engine.New(engine.Options{Workers: 2, Metrics: plane.engine})
	t.Cleanup(eng.Close)
	ts := httptest.NewServer(newServer(eng, journal, dir, plane, defaultOpsConfig()).mux())
	t.Cleanup(ts.Close)

	postJSON(t, ts.URL+"/v1/plan", `{"algorithm":"ADMV","platform":"Hera","pattern":"uniform","n":12}`)
	fetchTrace(t, ts.URL, recordedSpec)
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	scraped := map[string]string{}
	for _, line := range strings.Split(readAll(t, resp), "\n") {
		if f := strings.Fields(line); len(f) == 4 && f[1] == "TYPE" {
			scraped[f[2]] = f[3]
		}
	}

	tables := readmeMetricTables(t)
	if len(tables) != 2 {
		t.Fatalf("README metrics reference has %d tables, want 2", len(tables))
	}
	for name, kind := range tables[0] {
		if got, ok := scraped[name]; !ok {
			t.Errorf("README lists %s, the scrape has no such family", name)
		} else if got != kind {
			t.Errorf("README types %s as %s, the scrape as %s", name, kind, got)
		}
	}
	for name := range scraped {
		if _, ok := tables[0][name]; !ok {
			t.Errorf("the scrape renders %s, README's table does not list it", name)
		}
	}
	for name := range tables[1] {
		if _, ok := scraped[name]; ok {
			t.Errorf("README lists %s as rendered on first event, but it is already in the scrape", name)
		}
	}
}

// readmeMetricTables parses the tables of README's "Metrics reference"
// section into one name -> type map per table.
func readmeMetricTables(t *testing.T) []map[string]string {
	t.Helper()
	f, err := os.Open("../../README.md")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var tables []map[string]string
	in, inTable := false, false
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "### ") {
			in = line == "### Metrics reference"
			continue
		}
		if !in {
			continue
		}
		cells := strings.Split(line, "|")
		if len(cells) < 4 || !strings.HasPrefix(strings.TrimSpace(cells[1]), "`") {
			inTable = false
			continue
		}
		if !inTable {
			tables = append(tables, map[string]string{})
			inTable = true
		}
		name := strings.Trim(strings.TrimSpace(cells[1]), "`")
		if strings.ContainsAny(name, "{}, ") {
			t.Fatalf("README row %q names more than one family", line)
		}
		if slices.ContainsFunc(tables, func(m map[string]string) bool { _, dup := m[name]; return dup }) {
			t.Fatalf("README lists %s twice", name)
		}
		tables[len(tables)-1][name] = strings.TrimSpace(cells[2])
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return tables
}
