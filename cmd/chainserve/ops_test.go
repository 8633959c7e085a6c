package main

import (
	"context"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"chainckpt/internal/engine"
	"chainckpt/internal/jobstore"
	"chainckpt/internal/ops"
)

// newOpsTestServer builds a server with an explicit ops configuration
// — the knob saturation tests need that newTestServer's generous
// defaults hide.
func newOpsTestServer(t *testing.T, engOpts engine.Options, cfg opsConfig) (*server, *httptest.Server) {
	t.Helper()
	eng := engine.New(engOpts)
	t.Cleanup(eng.Close)
	srv := newServer(eng, jobstore.NewMemory(), "", newObsPlane(), cfg)
	t.Cleanup(srv.admission.Close)
	ts := httptest.NewServer(srv.mux())
	t.Cleanup(ts.Close)
	return srv, ts
}

const planBody = `{"algorithm":"ADMV","platform":"Hera","pattern":"uniform","n":20,"total":10000}`

// TestSaturationShedsBatchKeepsInteractive: with the admission slots
// held and the batch queue bound exceeded, job submissions shed with
// 429 + Retry-After, and interactive planning keeps completing once the
// slots free up.
func TestSaturationShedsBatchKeepsInteractive(t *testing.T) {
	cfg := defaultOpsConfig()
	cfg.AdmitConcurrent = 2
	cfg.AdmitQueue = 1
	cfg.RetryAfter = 3 * time.Second
	srv, ts := newOpsTestServer(t, engine.Options{Workers: 4}, cfg)

	// Occupy every execution slot, simulating long-running admitted work.
	rel1, err := srv.admission.Admit(context.Background(), ops.Interactive)
	if err != nil {
		t.Fatal(err)
	}
	rel2, err := srv.admission.Admit(context.Background(), ops.Interactive)
	if err != nil {
		t.Fatal(err)
	}

	// Flood batch-class job submissions: one fits the queue, the rest
	// must shed immediately with 429 and a Retry-After hint.
	const flood = 6
	codes := make(chan int, flood)
	retryAfter := make(chan string, flood)
	var wg sync.WaitGroup
	for i := 0; i < flood; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			req, _ := http.NewRequest("POST", ts.URL+"/v1/jobs", strings.NewReader(`{}`))
			req.Header.Set("X-Deadline-Ms", "2000")
			resp, err := http.DefaultClient.Do(req)
			if err != nil {
				codes <- -1
				return
			}
			readAll(t, resp)
			codes <- resp.StatusCode
			retryAfter <- resp.Header.Get("Retry-After")
		}()
	}
	// Wait until the sheds have landed (flood-1 queue capacity 1), then
	// free the slots so the queued request completes.
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if srv.opsMetrics.Shed.With("batch").Value() >= flood-1-1 {
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	rel1()
	rel2()
	wg.Wait()
	close(codes)
	close(retryAfter)

	shed, other := 0, 0
	for code := range codes {
		if code == http.StatusTooManyRequests {
			shed++
		} else {
			other++
		}
	}
	if shed == 0 {
		t.Fatal("no batch request was shed with 429 under saturation")
	}
	for ra := range retryAfter {
		if ra != "" && ra != "3" {
			t.Errorf("Retry-After = %q, want 3", ra)
		}
	}
	if got := srv.opsMetrics.Shed.With("batch").Value(); got == 0 {
		t.Fatal("chainckpt_admission_shed_total{batch} = 0")
	}

	// Interactive planning still flows.
	for i := 0; i < 20; i++ {
		resp, _ := postJSON(t, ts.URL+"/v1/plan", planBody)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("interactive plan under saturation: status %d", resp.StatusCode)
		}
	}
}

// TestJobTableFullSetsRetryAfter: a full running-job table answers 429
// with the same Retry-After hint an admission shed carries.
func TestJobTableFullSetsRetryAfter(t *testing.T) {
	cfg := defaultOpsConfig()
	cfg.RetryAfter = 4 * time.Second
	srv, ts := newOpsTestServer(t, engine.Options{Workers: 2}, cfg)
	srv.jobs.maxRunning = 0 // every job create finds the table full

	resp, body := postJSON(t, ts.URL+"/v1/jobs", planBody)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("job create on a full table: status %d (body %s), want 429", resp.StatusCode, body)
	}
	if !strings.Contains(string(body), "too many jobs") {
		t.Fatalf("429 body %q does not name the job table", body)
	}
	if ra := resp.Header.Get("Retry-After"); ra != "4" {
		t.Fatalf("Retry-After = %q, want 4", ra)
	}
}

// TestDeadlineHeaderHonored: a request whose X-Deadline-Ms budget is
// consumed waiting in the admission queue fails 503, never runs, and
// lands in the deadline counter. A header that is not an integer or
// whose budget overflows a time.Duration (1e13 ms would wrap negative
// and expire at once) is a 400 naming the header, before admission.
func TestDeadlineHeaderHonored(t *testing.T) {
	cfg := defaultOpsConfig()
	cfg.AdmitConcurrent = 1
	cfg.AdmitQueue = 4
	srv, ts := newOpsTestServer(t, engine.Options{Workers: 2}, cfg)

	rel, err := srv.admission.Admit(context.Background(), ops.Interactive)
	if err != nil {
		t.Fatal(err)
	}
	defer rel()
	for _, tc := range []struct {
		header string
		status int
	}{
		{"30", http.StatusServiceUnavailable},
		{"10000000000000", http.StatusBadRequest},
		{"99999999999999999999", http.StatusBadRequest},
		{"soon", http.StatusBadRequest},
	} {
		req, _ := http.NewRequest("POST", ts.URL+"/v1/plan", strings.NewReader(planBody))
		req.Header.Set("X-Deadline-Ms", tc.header)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		body := readAll(t, resp)
		if resp.StatusCode != tc.status {
			t.Fatalf("X-Deadline-Ms %s: status %d (body %s), want %d", tc.header, resp.StatusCode, body, tc.status)
		}
		if tc.status == http.StatusBadRequest && !strings.Contains(body, "X-Deadline-Ms") {
			t.Fatalf("X-Deadline-Ms %s: error %s does not name the header", tc.header, body)
		}
	}
	if got := srv.opsMetrics.Deadline.With("interactive").Value(); got != 1 {
		t.Fatalf("chainckpt_admission_deadline_total{interactive} = %d, want 1", got)
	}
}

// TestAdmissionMetricsInScrape: the new families render through
// /metrics with the chainckpt_ prefixes the ops plane promises.
func TestAdmissionMetricsInScrape(t *testing.T) {
	_, ts := newOpsTestServer(t, engine.Options{Workers: 2}, defaultOpsConfig())
	resp, _ := postJSON(t, ts.URL+"/v1/plan", planBody)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("plan status %d", resp.StatusCode)
	}
	mresp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	text := readAll(t, mresp)
	for _, want := range []string{
		`chainckpt_admission_admitted_total{class="interactive"}`,
		"chainckpt_admission_in_flight",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
}
