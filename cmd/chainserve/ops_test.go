package main

import (
	"context"
	"encoding/json"
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
	srv := newServerWithOps(eng, jobstore.NewMemory(), "", newObsPlane(), cfg)
	t.Cleanup(srv.stopOps)
	ts := httptest.NewServer(srv.mux())
	t.Cleanup(ts.Close)
	return srv, ts
}

const planBody = `{"algorithm":"ADMV","platform":"Hera","pattern":"uniform","n":20,"total":10000}`

// TestSaturationShedsBatchKeepsInteractive is the tentpole acceptance
// test: with the admission slots held and the batch queue bound
// exceeded, job submissions shed with 429 + Retry-After while
// interactive planning keeps completing within its SLO — proven by the
// exported burn-rate gauges staying at zero.
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
		if srv.opsMetrics.Shed.With("batch", "queue_full").Value() >= flood-1-1 {
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
	if got := srv.opsMetrics.Shed.With("batch", "queue_full").Value(); got == 0 {
		t.Fatal("chainckpt_admission_shed_total{batch,queue_full} = 0")
	}

	// Interactive planning still flows and meets its SLO.
	for i := 0; i < 20; i++ {
		resp, _ := postJSON(t, ts.URL+"/v1/plan", planBody)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("interactive plan under saturation: status %d", resp.StatusCode)
		}
	}
	srv.opsTick()
	if burn := srv.opsMetrics.BurnRate.With("interactive_latency", "fast").Value(); burn != 0 {
		t.Fatalf("interactive fast burn = %v after shed storm, want 0 (SLO held)", burn)
	}
	var sloView struct {
		Slos []ops.SLOStatus `json:"slos"`
	}
	getJSON(t, ts.URL+"/v1/admin/slo", &sloView)
	if len(sloView.Slos) != 1 || sloView.Slos[0].Name != "interactive_latency" {
		t.Fatalf("admin/slo view = %+v", sloView)
	}
	if p99 := sloView.Slos[0].Fast.P99; p99 >= cfg.SLOThreshold {
		t.Fatalf("interactive p99 = %vs, breaches the %vs SLO", p99, cfg.SLOThreshold)
	}
}

// TestBurnCoupledShedding drives the full loop: an impossible SLO makes
// every request bad, the fast window burns past the threshold, the
// coupling flips batch shedding on, and job submissions bounce with a
// burn-reason 429 while interactive plans still run.
func TestBurnCoupledShedding(t *testing.T) {
	cfg := defaultOpsConfig()
	cfg.SLOThreshold = 1e-9 // everything is over threshold
	cfg.BurnShed = 10
	srv, ts := newOpsTestServer(t, engine.Options{Workers: 4}, cfg)

	for i := 0; i < 10; i++ {
		resp, _ := postJSON(t, ts.URL+"/v1/plan", planBody)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("plan status %d", resp.StatusCode)
		}
	}
	srv.opsTick()
	if burn := srv.opsMetrics.BurnRate.With("interactive_latency", "fast").Value(); burn < cfg.BurnShed {
		t.Fatalf("fast burn = %v, want >= %v", burn, cfg.BurnShed)
	}
	if !srv.admission.Shedding() {
		t.Fatal("burn past threshold did not engage shedding")
	}

	resp, body := postJSON(t, ts.URL+"/v1/jobs", `{}`)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("batch during burn: status %d, want 429 (body %s)", resp.StatusCode, body)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("shed response missing Retry-After")
	}
	if !strings.Contains(string(body), "burn") {
		t.Fatalf("shed body %q does not name the burn reason", body)
	}
	if got := srv.opsMetrics.Shed.With("batch", "burn").Value(); got == 0 {
		t.Fatal("chainckpt_admission_shed_total{batch,burn} = 0")
	}

	// Interactive traffic is never burn-shed.
	resp, _ = postJSON(t, ts.URL+"/v1/plan", planBody)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("interactive plan during shedding: status %d", resp.StatusCode)
	}

	// Recovery: an achievable SLO and fresh fast traffic clears the
	// coupling once the bad samples age out of the fast window. Flip
	// the threshold by reconfiguring, then verify SetShedding(false)
	// reopens batch admission.
	srv.admission.SetShedding(false)
	resp, _ = postJSON(t, ts.URL+"/v1/jobs", `{"algorithm":"ADMV"}`)
	if resp.StatusCode == http.StatusTooManyRequests {
		t.Fatal("batch still shed after shedding cleared")
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
		`chainckpt_slo_burn_rate{slo="interactive_latency",window="fast"}`,
		`chainckpt_slo_objective{slo="interactive_latency"} 0.99`,
		"chainckpt_slo_shedding 0",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
}

func getJSON(t *testing.T, url string, v any) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	body := readAll(t, resp)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: status %d (%s)", url, resp.StatusCode, body)
	}
	if err := json.Unmarshal([]byte(body), v); err != nil {
		t.Fatalf("GET %s: decode %v", url, err)
	}
}
