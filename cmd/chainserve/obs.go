// The service's observability plane: one obs.Registry every layer
// registers its own chainckpt_* series on, two trace rings (HTTP
// requests and job executions), and the HTTP route instrumentation.
// chainserve registers only what it counts itself (initObs); each
// family name has one registration site. /metrics is rendered entirely
// from the registry, whose writer is lint-checked against the text
// format in tests.
package main

import (
	"fmt"
	"net/http"
	"strconv"
	"time"

	"chainckpt/internal/engine"
	"chainckpt/internal/jobstore"
	"chainckpt/internal/obs"
	"chainckpt/internal/runtime"
)

// obsPlane bundles what main() must build before the engine exists:
// the registry and the per-layer metric handles that engine.New,
// jobstore.Open and runtime.New take at construction. Requests and
// jobs get separate trace rings so a scrape-heavy or chatty client
// cannot evict the span trees of recently finished jobs.
type obsPlane struct {
	reg        *obs.Registry
	httpTracer *obs.Tracer
	jobTracer  *obs.Tracer

	engine   *engine.Metrics
	runtime  *runtime.Metrics
	jobstore *jobstore.Metrics
}

func newObsPlane() *obsPlane {
	reg := obs.NewRegistry()
	return &obsPlane{
		reg:        reg,
		httpTracer: obs.NewTracer(64),
		jobTracer:  obs.NewTracer(128),
		engine:     engine.NewMetrics(reg),
		runtime:    runtime.NewMetrics(reg),
		jobstore:   jobstore.NewMetrics(reg),
	}
}

// initObs registers the series chainserve counts itself: the HTTP
// route families, request-side errors and the uptime gauge
// (chainckpt_http_*), and the job manager's counters (chainckpt_jobs_*).
// Every other family is registered by the layer that counts it —
// engine.NewMetrics, jobstore.NewMetrics, runtime.NewMetrics and
// ops.NewMetrics.
func (s *server) initObs() {
	reg := s.obs.reg
	s.routeReqs = reg.NewCounterVec("chainckpt_http_route_requests_total",
		"HTTP requests by route and final status code.", "route", "code")
	s.routeLat = reg.NewHistogramVec("chainckpt_http_request_seconds",
		"HTTP request latency by route.", nil, "route")
	s.planErrors = reg.NewCounter("chainckpt_http_plan_errors_total",
		"Planning requests that failed.")
	s.replans = reg.NewCounter("chainckpt_http_replan_requests_total",
		"Suffix re-plans served through /v1/replan.")
	reg.RegisterGaugeFunc("chainckpt_http_uptime_seconds",
		"Seconds since the service started.", func(set obs.LabelSetter) {
			set.Set(time.Since(s.started).Round(time.Second).Seconds())
		})

	s.jobs.accepted = reg.NewCounter("chainckpt_jobs_total",
		"Execution jobs accepted.")
	s.jobErrors = reg.NewCounter("chainckpt_jobs_errors_total",
		"Execution jobs that failed.")
	s.jobsResumed = reg.NewCounter("chainckpt_jobs_resumed_total",
		"Interrupted jobs resumed after a restart.")
	s.jobs.storeErrors = reg.NewCounter("chainckpt_jobs_store_errors_total",
		"Job-store writes that failed.")
	reg.RegisterGaugeFunc("chainckpt_jobs_running",
		"Jobs currently executing.", func(set obs.LabelSetter) {
			set.Set(float64(s.jobs.running()))
		})
}

// statusWriter records the final status code of a response, defaulting
// to 200 on an implicit WriteHeader. It forwards Flush so the NDJSON
// event stream keeps flushing through the wrapper.
type statusWriter struct {
	http.ResponseWriter
	code int
}

func (w *statusWriter) WriteHeader(code int) {
	if w.code == 0 {
		w.code = code
	}
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Write(b []byte) (int, error) {
	if w.code == 0 {
		w.code = http.StatusOK
	}
	return w.ResponseWriter.Write(b)
}

func (w *statusWriter) Flush() {
	if f, ok := w.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

func (w *statusWriter) status() int {
	if w.code == 0 {
		return http.StatusOK
	}
	return w.code
}

// instrument wraps one route: it feeds the per-route latency histogram
// and requests-by-status counter (a total request count is their sum,
// so none is kept), and each request roots a trace whose span rides the context into the engine —
// engine.plan children land under it, and the id is echoed in
// X-Request-Id. The read-side plumbing routes (metrics, health, the
// trace dumps themselves) are measured but not traced, so scrapers
// cannot churn the request ring.
func (s *server) instrument(route string, h http.HandlerFunc) http.HandlerFunc {
	traced := true
	switch route {
	case "metrics", "healthz", "traces", "trace_dump":
		traced = false
	}
	lat := s.routeLat.With(route)
	return func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		sw := &statusWriter{ResponseWriter: w}
		if traced {
			id := "req-" + strconv.FormatUint(s.reqSeq.Add(1), 10)
			if sp := s.obs.httpTracer.StartTrace(id, "http."+route); sp != nil {
				w.Header().Set("X-Request-Id", id)
				r = r.WithContext(obs.ContextWithSpan(r.Context(), sp))
				defer func() {
					sp.SetAttrInt("status", int64(sw.status()))
					sp.End()
				}()
			}
		}
		h(sw, r)
		lat.ObserveSince(start)
		s.routeReqs.With(route, strconv.Itoa(sw.status())).Inc()
	}
}

func (s *server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	s.obs.reg.WritePrometheus(w)
}

// handleJobSpans serves the span tree of one job's execution: the job
// root with its engine.plan / runtime.* children, offsets relative to
// the trace start. 404 for jobs the tracer never saw (adopted from a
// previous service life) or whose trace aged out of the ring.
func (s *server) handleJobSpans(w http.ResponseWriter, r *http.Request) {
	if _, ok := s.lookup(w, r); !ok {
		return
	}
	id := r.PathValue("id")
	td := s.obs.jobTracer.Dump(id)
	if td == nil {
		writeError(w, http.StatusNotFound,
			fmt.Errorf("no spans for job %q (executed in a previous service life, or evicted from the trace ring)", id))
		return
	}
	writeJSON(w, http.StatusOK, td)
}

// handleTraceDump serves one trace by id — request traces ("req-N")
// and job traces ("job-N") alike, active or completed.
func (s *server) handleTraceDump(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	td := s.obs.httpTracer.Dump(id)
	if td == nil {
		td = s.obs.jobTracer.Dump(id)
	}
	if td == nil {
		writeError(w, http.StatusNotFound, fmt.Errorf("unknown trace %q", id))
		return
	}
	writeJSON(w, http.StatusOK, td)
}

// handleTraceList indexes the dumpable traces.
func (s *server) handleTraceList(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{
		"requests": s.obs.httpTracer.RecentIDs(),
		"jobs":     s.obs.jobTracer.RecentIDs(),
	})
}
