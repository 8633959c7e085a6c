// The service's observability plane: one obs.Registry every layer
// feeds, two trace rings (HTTP requests and job executions), and the
// collectors that re-emit the engine/kernel/supervisor/jobstore stats
// snapshots under their historical chainserve_* names. /metrics is
// rendered entirely from the registry — the hand-rolled Fprintf
// exposition this file replaced could drift from the text format;
// the registry's writer is lint-checked against it in tests.
package main

import (
	"fmt"
	"net/http"
	"strconv"
	"sync"
	"time"

	"chainckpt/internal/core"
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

// scrapeSnapshot is the one consistent stats snapshot a scrape renders
// from. The registry's scrape hook refreshes it once per exposition;
// every collector then reads the same numbers, so a scrape can never
// show, say, a hit ratio disagreeing with the hit and miss totals
// because the engine moved between two Stats() calls.
type scrapeSnapshot struct {
	mu          sync.Mutex
	eng         engine.Stats
	supReplans  uint64
	jst         jobstore.Stats
	storeErrors uint64
	jobsTotal   int
	jobsRunning int
}

// initObs creates the server's own instruments and registers the
// collectors that project the layered stats snapshots into the
// registry. Every metric name predating the registry is preserved.
func (s *server) initObs() {
	reg := s.obs.reg
	s.httpRequests = reg.NewCounter("chainserve_http_requests_total",
		"HTTP requests received.")
	s.planErrors = reg.NewCounter("chainserve_plan_errors_total",
		"Planning requests that failed.")
	s.jobErrors = reg.NewCounter("chainserve_job_errors_total",
		"Execution jobs that failed.")
	s.jobsResumed = reg.NewCounter("chainserve_jobs_resumed_total",
		"Interrupted jobs resumed after a restart.")
	s.replans = reg.NewCounter("chainserve_replan_requests_total",
		"Suffix re-plans served through /v1/replan.")
	s.routeReqs = reg.NewCounterVec("chainserve_http_route_requests_total",
		"HTTP requests by route and final status code.", "route", "code")
	s.routeLat = reg.NewHistogramVec("chainserve_http_request_seconds",
		"HTTP request latency by route.", nil, "route")

	snap := &scrapeSnapshot{}
	reg.OnScrape(func() {
		est := s.eng.Stats()
		sst := s.sup.Stats()
		jst := s.jobs.store.Stats()
		total, running := s.jobs.counts()
		snap.mu.Lock()
		snap.eng, snap.supReplans, snap.jst = est, sst.Replans, jst
		snap.storeErrors = s.jobs.storeErrors.Load()
		snap.jobsTotal, snap.jobsRunning = total, running
		snap.mu.Unlock()
	})

	// counterFn/gaugeFn adapt an unlabeled snapshot read into a
	// collector; the labeled families below keep their closures inline.
	counterFn := func(name, help string, get func(*scrapeSnapshot) uint64) {
		reg.RegisterCounterFunc(name, help, func(set obs.LabelSetter) {
			snap.mu.Lock()
			v := get(snap)
			snap.mu.Unlock()
			set.Set(float64(v))
		})
	}
	gaugeFn := func(name, help string, get func(*scrapeSnapshot) float64) {
		reg.RegisterGaugeFunc(name, help, func(set obs.LabelSetter) {
			snap.mu.Lock()
			v := get(snap)
			snap.mu.Unlock()
			set.Set(v)
		})
	}

	// Engine aggregates.
	counterFn("chainserve_engine_requests_total",
		"Planning requests accepted by the engine.",
		func(sn *scrapeSnapshot) uint64 { return sn.eng.Requests })
	counterFn("chainserve_engine_cache_hits_total",
		"Plans served from the memo.",
		func(sn *scrapeSnapshot) uint64 { return sn.eng.CacheHits })
	counterFn("chainserve_engine_cache_misses_total",
		"Plans that ran a solver.",
		func(sn *scrapeSnapshot) uint64 { return sn.eng.CacheMisses })
	counterFn("chainserve_engine_cache_evictions_total",
		"Memo entries evicted.",
		func(sn *scrapeSnapshot) uint64 { return sn.eng.Evictions })
	reg.RegisterCounterFunc("chainserve_engine_plans_total",
		"Planning requests per algorithm.", func(set obs.LabelSetter) {
			snap.mu.Lock()
			algs := snap.eng.Algorithms
			snap.mu.Unlock()
			for _, alg := range core.Algorithms() {
				set.Set(float64(algs[string(alg)]), string(alg))
			}
		}, "algorithm")
	gaugeFn("chainserve_engine_cache_hit_ratio",
		"Fraction of planning requests served from the memo.",
		func(sn *scrapeSnapshot) float64 { return sn.eng.HitRatio() })
	gaugeFn("chainserve_engine_cache_entries",
		"Current memo entries.",
		func(sn *scrapeSnapshot) float64 { return float64(sn.eng.Entries) })

	// Kernel scratch pools.
	counterFn("chainserve_kernel_solves_total",
		"Dynamic-program solves completed by the solver kernel.",
		func(sn *scrapeSnapshot) uint64 { return sn.eng.Kernel.Solves })
	counterFn("chainserve_kernel_scratch_reuses_total",
		"Solves served by a recycled scratch arena.",
		func(sn *scrapeSnapshot) uint64 { return sn.eng.Kernel.ScratchReuses })
	counterFn("chainserve_kernel_scratch_fresh_total",
		"Solves that allocated a fresh scratch arena.",
		func(sn *scrapeSnapshot) uint64 { return sn.eng.Kernel.ScratchFresh })
	gaugeFn("chainserve_kernel_scratch_buckets",
		"Scratch-pool size classes in use.",
		func(sn *scrapeSnapshot) float64 { return float64(len(sn.eng.Kernel.Buckets)) })
	reg.RegisterCounterFunc("chainserve_kernel_scratch_bucket_arenas_total",
		"Arena acquisitions per size class (cap = bucket capacity in tasks).",
		func(set obs.LabelSetter) {
			snap.mu.Lock()
			buckets := snap.eng.Kernel.Buckets
			snap.mu.Unlock()
			for _, b := range buckets {
				set.Set(float64(b.Reuses), strconv.Itoa(b.Cap), "reused")
				set.Set(float64(b.Fresh), strconv.Itoa(b.Cap), "fresh")
			}
		}, "cap", "kind")
	reg.RegisterGaugeFunc("chainckpt_kernel_arena_bytes",
		"Bytes one scratch arena of each active size class pins (cap = arena capacity in tasks).",
		func(set obs.LabelSetter) {
			snap.mu.Lock()
			buckets := snap.eng.Kernel.Buckets
			snap.mu.Unlock()
			set.Reset()
			for _, b := range buckets {
				set.Set(float64(core.ArenaBytes(b.Cap)), strconv.Itoa(b.Cap))
			}
		}, "cap")

	// The in-kernel parallel solve (core.KernelParallelStats): how many
	// solves engaged a worker team, the tiles they dispatched and the
	// time participants spent running them, and how often auto mode
	// declined below the crossover length.
	counterFn("chainckpt_kernel_parallel_solves_total",
		"Solves that engaged a worker team (SolveWorkers > 1, explicit or auto).",
		func(sn *scrapeSnapshot) uint64 { return sn.eng.Kernel.Parallel.Solves })
	counterFn("chainckpt_kernel_parallel_tiles_total",
		"DP tiles dispatched to solver worker teams.",
		func(sn *scrapeSnapshot) uint64 { return sn.eng.Kernel.Parallel.Tiles })
	reg.RegisterCounterFunc("chainckpt_kernel_parallel_busy_seconds_total",
		"Cumulative seconds solver team members spent running tiles.",
		func(set obs.LabelSetter) {
			snap.mu.Lock()
			v := snap.eng.Kernel.Parallel.BusySeconds
			snap.mu.Unlock()
			set.Set(v)
		})
	counterFn("chainckpt_kernel_parallel_crossover_skips_total",
		"Auto-mode solves that stayed serial below the crossover window length.",
		func(sn *scrapeSnapshot) uint64 { return sn.eng.Kernel.Parallel.CrossoverSkips })

	// Jobs and the supervisor.
	counterFn("chainserve_jobs_total",
		"Execution jobs accepted.",
		func(sn *scrapeSnapshot) uint64 { return uint64(sn.jobsTotal) })
	counterFn("chainserve_supervisor_replans_total",
		"Adaptive suffix re-plans across all jobs.",
		func(sn *scrapeSnapshot) uint64 { return sn.supReplans })
	gaugeFn("chainserve_jobs_running",
		"Jobs currently executing.",
		func(sn *scrapeSnapshot) float64 { return float64(sn.jobsRunning) })

	// Durable job store.
	counterFn("chainserve_jobstore_appends_total",
		"Job lifecycle records appended to the durable store.",
		func(sn *scrapeSnapshot) uint64 { return sn.jst.Appends })
	counterFn("chainserve_jobstore_replayed_total",
		"Records applied during the boot-time journal replay.",
		func(sn *scrapeSnapshot) uint64 { return sn.jst.Replayed })
	counterFn("chainserve_jobstore_skipped_corrupt_total",
		"Damaged journal frames skipped during replay.",
		func(sn *scrapeSnapshot) uint64 { return sn.jst.SkippedCorrupt })
	counterFn("chainserve_jobstore_skipped_duplicates_total",
		"Duplicate transitions dropped during replay.",
		func(sn *scrapeSnapshot) uint64 { return sn.jst.SkippedDuplicates })
	counterFn("chainserve_jobstore_compactions_total",
		"Journal compactions into a snapshot.",
		func(sn *scrapeSnapshot) uint64 { return sn.jst.Compactions })
	counterFn("chainserve_jobstore_errors_total",
		"Durable store writes that failed.",
		func(sn *scrapeSnapshot) uint64 { return sn.storeErrors })
	gaugeFn("chainserve_jobstore_jobs",
		"Live records in the durable job store.",
		func(sn *scrapeSnapshot) float64 { return float64(sn.jst.Jobs) })
	gaugeFn("chainserve_jobstore_segments",
		"Journal segment files on disk.",
		func(sn *scrapeSnapshot) float64 { return float64(sn.jst.Segments) })
	reg.RegisterGaugeFunc("chainserve_uptime_seconds",
		"Seconds since start.", func(set obs.LabelSetter) {
			set.Set(time.Since(s.started).Round(time.Second).Seconds())
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

// instrument wraps one route: the per-route latency histogram and
// requests-by-status counter replace the old bare request count (which
// lumped /metrics scrapes into every error-rate denominator), and each
// request roots a trace whose span rides the context into the engine —
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
		s.httpRequests.Add(1)
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
	id := r.PathValue("id")
	if _, ok := s.jobs.get(id); !ok {
		writeError(w, http.StatusNotFound, fmt.Errorf("unknown job %q", id))
		return
	}
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
