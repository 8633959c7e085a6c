// Command chainserve exposes the batch planning engine over HTTP/JSON,
// turning the library into a deployable service: clients POST planning
// requests (singly or in batches) and receive optimal schedules; health
// and metrics endpoints make it fit for a load balancer and a scraper.
//
// Usage:
//
//	chainserve [flags]
//
//	-addr host:port   listen address (default :8080)
//	-workers k        planning worker pool size (default GOMAXPROCS)
//	-solve-workers k  DP worker team per solve: 1 serial (default; the
//	                  pool is the parallelism), 0 auto (each solve
//	                  engages a team above the crossover length on
//	                  multi-core hosts), k>1 pins the width. Size
//	                  workers×solve-workers to the core count. Never
//	                  changes any plan.
//	-cache k          plan memo capacity in entries (default 4096, 0 disables)
//	-drain d          graceful-shutdown drain timeout (default 10s, or
//	                  $CHAINSERVE_DRAIN_TIMEOUT)
//	-store-dir path   durable job store root (default $CHAINSERVE_STORE_DIR;
//	                  empty keeps jobs in memory). With a store dir, job
//	                  lifecycles are write-ahead journaled and disk
//	                  checkpoints live under <dir>/jobs/<id>/, so a
//	                  restarted service lists finished jobs and resumes
//	                  interrupted ones from their last checkpoint with a
//	                  suffix-re-planned schedule.
//	-record-dir path  replay recording directory (default
//	                  $CHAINSERVE_RECORD_DIR; empty serves recordings over
//	                  the API only). Every finished job's event-sourced
//	                  recording — trace frames, estimator snapshots,
//	                  checkpoint digests, normalized lifecycle records —
//	                  is written as <dir>/<id>.json in canonical form; the
//	                  same bytes GET /v1/jobs/{id}/trace answers with.
//	-pprof-addr addr  serve net/http/pprof on a separate listener (empty,
//	                  the default, disables it — profiling endpoints never
//	                  share the public address).
//	-admit-concurrent k  admission slots for the write routes (default 64)
//	-admit-queue k    admission queue bound per priority class (default
//	                  256); beyond it requests shed with 429 + Retry-After
//
// Endpoints:
//
//	POST /v1/plan            one planning request  -> one plan
//	POST /v1/plan/batch      {"requests":[...]}    -> {"responses":[...]}
//	POST /v1/replan          current schedule + observed rates -> schedule
//	                         with the suffix after the committed boundary
//	                         re-planned and spliced in
//	POST /v1/jobs            plan and execute a chain through the runtime
//	                         supervisor (fault-injecting runner; optional
//	                         adaptive re-planning)
//	GET  /v1/jobs            list jobs
//	GET  /v1/jobs/{id}       job status and final report
//	GET  /v1/jobs/{id}/events  NDJSON event stream, live until done
//	GET  /v1/jobs/{id}/trace   canonical replay recording (blocks until
//	                         the run is sealed; same spec + same seed =>
//	                         byte-identical body)
//	GET  /v1/jobs/{id}/spans   span tree of the job's execution (engine
//	                         planning, per-task runs, verifications,
//	                         checkpoint commits, recoveries, re-plans)
//	DELETE /v1/jobs/{id}     cancel a running job
//	GET  /v1/platforms       the Table I platforms
//	GET  /healthz            liveness probe
//	GET  /metrics            Prometheus text exposition, rendered from
//	                         the obs registry: every legacy counter plus
//	                         latency histograms for HTTP routes, engine
//	                         solves, checkpoint commits and journal
//	                         appends
//	GET  /debug/traces       recent request and job trace ids
//	GET  /debug/traces/{id}  one trace (request or job), as a span tree
//
// A request names a Table I platform or embeds a custom one, and gives
// the chain either as explicit weights or as a (pattern, n, total)
// triple:
//
//	curl -s localhost:8080/v1/plan -d '{
//	  "algorithm": "ADMV", "platform": "Hera",
//	  "pattern": "uniform", "n": 50, "total": 25000
//	}'
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"log"
	"net/http"
	_ "net/http/pprof" // registers on DefaultServeMux; served only via -pprof-addr
	"os"
	"os/signal"
	"path/filepath"
	"strings"
	"sync/atomic"
	"syscall"
	"time"

	"chainckpt/internal/chain"
	"chainckpt/internal/core"
	"chainckpt/internal/engine"
	"chainckpt/internal/jobstore"
	"chainckpt/internal/obs"
	"chainckpt/internal/ops"
	"chainckpt/internal/platform"
	"chainckpt/internal/runtime"
	"chainckpt/internal/schedule"
	"chainckpt/internal/workload"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("chainserve: ")

	addr := flag.String("addr", ":8080", "listen address")
	workers := flag.Int("workers", 0, "planning worker pool size (0 = GOMAXPROCS)")
	solveWorkers := flag.Int("solve-workers", 1,
		"DP worker team per solve (1 = serial, 0 = auto above the crossover, k>1 = pinned width)")
	cacheSize := flag.Int("cache", 4096, "plan memo capacity in entries (0 disables the memo)")
	drain := flag.Duration("drain", defaultDrainTimeout(os.Getenv), "graceful-shutdown drain timeout")
	storeDir := flag.String("store-dir", os.Getenv("CHAINSERVE_STORE_DIR"),
		"durable job store root (empty = in-memory jobs)")
	recordDir := flag.String("record-dir", os.Getenv("CHAINSERVE_RECORD_DIR"),
		"replay recording directory (empty = recordings over the API only)")
	pprofAddr := flag.String("pprof-addr", "",
		"serve net/http/pprof on this address (empty = disabled)")
	opsDefaults := defaultOpsConfig()
	admitConcurrent := flag.Int("admit-concurrent", opsDefaults.AdmitConcurrent,
		"admission slots for the write routes (plan/replan/jobs)")
	admitQueue := flag.Int("admit-queue", opsDefaults.AdmitQueue,
		"admission queue bound per priority class; beyond it requests shed with 429")
	flag.Parse()
	engineWorkers, err := engineSolveWorkers(*solveWorkers)
	if err != nil {
		log.Print(err)
		flag.Usage()
		os.Exit(2)
	}

	memo := *cacheSize
	if memo <= 0 {
		memo = -1 // engine.Options uses negative for "disabled"
	}
	plane := newObsPlane()
	var store jobstore.Store = jobstore.NewMemory()
	if *storeDir != "" {
		journal, err := jobstore.Open(filepath.Join(*storeDir, "journal"),
			jobstore.Options{Metrics: plane.jobstore})
		if err != nil {
			log.Fatal(err)
		}
		defer journal.Close()
		store = journal
	}
	opsCfg := opsDefaults
	opsCfg.AdmitConcurrent = *admitConcurrent
	opsCfg.AdmitQueue = *admitQueue
	srv := newServer(engine.New(engine.Options{
		Workers: *workers, CacheSize: memo,
		SolveWorkers: engineWorkers, Metrics: plane.engine,
	}), store, *storeDir, plane, opsCfg)
	defer srv.eng.Close()
	defer srv.admission.Close()
	if *pprofAddr != "" {
		// pprof stays off the public mux: a separate listener the
		// operator opts into, carrying DefaultServeMux's /debug/pprof/*.
		go func() {
			log.Printf("pprof listening on %s", *pprofAddr)
			log.Printf("pprof: %v", http.ListenAndServe(*pprofAddr, nil))
		}()
	}
	if *recordDir != "" {
		if err := os.MkdirAll(*recordDir, 0o755); err != nil {
			log.Fatal(err)
		}
		srv.recordDir = *recordDir
	}
	if resumed, adopted := srv.recoverJobs(context.Background()); resumed+adopted > 0 {
		log.Printf("recovered %d finished jobs, resumed %d interrupted jobs from %s",
			adopted, resumed, *storeDir)
	}

	httpSrv := &http.Server{
		Addr:              *addr,
		Handler:           srv.mux(),
		ReadHeaderTimeout: 10 * time.Second,
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	shutdownDone := make(chan struct{})
	go func() {
		defer close(shutdownDone)
		<-ctx.Done()
		shutdownCtx, cancel := context.WithTimeout(context.Background(), *drain)
		defer cancel()
		httpSrv.Shutdown(shutdownCtx)
	}()

	log.Printf("listening on %s (workers=%d, solve-workers=%d, cache=%d, drain=%s)",
		*addr, *workers, *solveWorkers, *cacheSize, *drain)
	if err := httpSrv.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
		log.Fatal(err)
	}
	// Wait for Shutdown to finish draining in-flight handlers before the
	// deferred engine Close tears the pool down under them.
	<-shutdownDone
}

// engineSolveWorkers maps the -solve-workers value (1 serial, 0 auto,
// k>1 pinned) onto engine.Options, where zero is the compat serial
// default and negative selects auto. A negative flag value is rejected
// rather than passed through, where the engine would read it as auto.
func engineSolveWorkers(v int) (int, error) {
	switch {
	case v < 0:
		return 0, fmt.Errorf("-solve-workers must be >= 0, got %d", v)
	case v == 0:
		return -1, nil
	}
	return v, nil
}

// defaultDrainTimeout resolves the graceful-drain default: the
// CHAINSERVE_DRAIN_TIMEOUT environment variable when it parses as a
// positive duration, 10s otherwise. The -drain flag overrides both.
func defaultDrainTimeout(getenv func(string) string) time.Duration {
	if v := getenv("CHAINSERVE_DRAIN_TIMEOUT"); v != "" {
		if d, err := time.ParseDuration(v); err == nil && d > 0 {
			return d
		}
		log.Printf("ignoring invalid CHAINSERVE_DRAIN_TIMEOUT %q", v)
	}
	return 10 * time.Second
}

// server bundles the engine and runtime supervisor with the service's
// observability plane: the registry-backed counters below keep the
// .Add(1) call shape of the atomics they replaced, so every increment
// site reads unchanged while the values land in /metrics through the
// registry.
type server struct {
	eng     *engine.Engine
	sup     *runtime.Supervisor
	jobs    *jobManager
	obs     *obsPlane
	started time.Time
	// recordDir, when set, receives every sealed replay recording as
	// <id>.json in canonical form.
	recordDir string

	planErrors  *obs.Counter
	jobErrors   *obs.Counter
	jobsResumed *obs.Counter
	replans     *obs.Counter
	routeReqs   *obs.CounterVec
	routeLat    *obs.HistogramVec
	reqSeq      atomic.Uint64

	// The ops plane (ops.go): admission gate ahead of the engine pool.
	opsCfg     opsConfig
	opsMetrics *ops.Metrics
	admission  *ops.Controller
}

// newServer builds a server whose job lifecycle is persisted through
// store, with per-job checkpoint directories under storeDir (empty =
// volatile checkpoints), over the observability plane whose engine and
// jobstore metric handles were passed to engine.New and jobstore.Open
// (so all layers share one registry), and with the admission bounds of
// cfg. Call recoverJobs afterwards to replay the store.
func newServer(eng *engine.Engine, store jobstore.Store, storeDir string, plane *obsPlane, cfg opsConfig) *server {
	s := &server{
		eng:     eng,
		sup:     runtime.New(runtime.Options{Engine: eng, Metrics: plane.runtime}),
		jobs:    newJobManager(store, storeDir),
		obs:     plane,
		started: time.Now(),
	}
	s.initObs()
	s.initOps(cfg)
	return s
}

func (s *server) mux() *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/plan", s.instrument("plan", s.admit(ops.Interactive, s.handlePlan)))
	mux.HandleFunc("POST /v1/plan/batch", s.instrument("plan_batch", s.admit(ops.Interactive, s.handleBatch)))
	mux.HandleFunc("POST /v1/replan", s.instrument("replan", s.admit(ops.Interactive, s.handleReplan)))
	mux.HandleFunc("POST /v1/jobs", s.instrument("job_create", s.admit(ops.Batch, s.handleJobCreate)))
	mux.HandleFunc("GET /v1/jobs", s.instrument("job_list", s.handleJobList))
	mux.HandleFunc("GET /v1/jobs/{id}", s.instrument("job_get", s.handleJobGet))
	mux.HandleFunc("GET /v1/jobs/{id}/events", s.instrument("job_events", s.handleJobEvents))
	mux.HandleFunc("GET /v1/jobs/{id}/trace", s.instrument("job_trace", s.handleJobTrace))
	mux.HandleFunc("GET /v1/jobs/{id}/spans", s.instrument("job_spans", s.handleJobSpans))
	mux.HandleFunc("DELETE /v1/jobs/{id}", s.instrument("job_cancel", s.handleJobCancel))
	mux.HandleFunc("GET /v1/platforms", s.instrument("platforms", s.handlePlatforms))
	mux.HandleFunc("GET /healthz", s.instrument("healthz", s.handleHealth))
	mux.HandleFunc("GET /metrics", s.instrument("metrics", s.handleMetrics))
	mux.HandleFunc("GET /debug/traces", s.instrument("traces", s.handleTraceList))
	mux.HandleFunc("GET /debug/traces/{id}", s.instrument("trace_dump", s.handleTraceDump))
	return mux
}

// planRequest is the JSON shape of one planning request.
type planRequest struct {
	// Algorithm is ADV*, ADMV* or ADMV (default ADMV).
	Algorithm string `json:"algorithm,omitempty"`
	// Platform names a Table I platform; PlatformSpec embeds a custom one
	// instead (exactly one must be given).
	Platform     string             `json:"platform,omitempty"`
	PlatformSpec *platform.Platform `json:"platform_spec,omitempty"`
	// Weights gives the chain explicitly; or Pattern/N/Total generate it
	// (pattern uniform, decrease or highlow).
	Weights []float64 `json:"weights,omitempty"`
	Pattern string    `json:"pattern,omitempty"`
	N       int       `json:"n,omitempty"`
	Total   float64   `json:"total,omitempty"`
	// Sizes scales the platform costs per boundary (data volume).
	Sizes []float64 `json:"boundary_sizes,omitempty"`
	// MaxDiskCheckpoints bounds the disk checkpoints (0 = unlimited).
	MaxDiskCheckpoints int `json:"max_disk_checkpoints,omitempty"`
	// Tag is echoed in the response.
	Tag string `json:"tag,omitempty"`
}

// toEngine compiles the wire request into an engine request.
func (pr *planRequest) toEngine() (engine.Request, *chain.Chain, error) {
	var req engine.Request
	alg := core.Algorithm(pr.Algorithm)
	if pr.Algorithm == "" {
		alg = core.AlgADMV
	}

	var plat platform.Platform
	switch {
	case pr.Platform != "" && pr.PlatformSpec != nil:
		return req, nil, fmt.Errorf("give either platform or platform_spec, not both")
	case pr.Platform != "":
		p, err := platform.ByName(pr.Platform)
		if err != nil {
			return req, nil, err
		}
		plat = p
	case pr.PlatformSpec != nil:
		plat = *pr.PlatformSpec
		if err := plat.Validate(); err != nil {
			return req, nil, err
		}
	default:
		return req, nil, fmt.Errorf("missing platform (or platform_spec)")
	}

	var c *chain.Chain
	var err error
	switch {
	case len(pr.Weights) > 0:
		c, err = chain.FromWeights(pr.Weights...)
	case pr.Pattern != "":
		total := pr.Total
		if total == 0 {
			total = workload.PaperTotalWeight
		}
		var pat workload.Pattern
		if pat, err = parsePattern(pr.Pattern); err == nil {
			c, err = workload.Generate(pat, pr.N, total)
		}
	default:
		err = fmt.Errorf("missing chain: give weights or pattern/n/total")
	}
	if err != nil {
		return req, nil, err
	}

	opts := core.Options{MaxDiskCheckpoints: pr.MaxDiskCheckpoints}
	if pr.Sizes != nil {
		costs, err := platform.ScaledCosts(plat, pr.Sizes)
		if err != nil {
			return req, nil, err
		}
		opts.Costs = costs
	}
	return engine.Request{Algorithm: alg, Chain: c, Platform: plat, Opts: opts, Tag: pr.Tag}, c, nil
}

// parsePattern matches a pattern name case-insensitively.
func parsePattern(name string) (workload.Pattern, error) {
	for _, p := range workload.Patterns() {
		if strings.EqualFold(name, string(p)) {
			return p, nil
		}
	}
	return "", fmt.Errorf("unknown pattern %q (want Uniform, Decrease or HighLow)", name)
}

// planResponse is the JSON shape of one plan outcome.
type planResponse struct {
	Tag                string             `json:"tag,omitempty"`
	Algorithm          string             `json:"algorithm,omitempty"`
	ExpectedMakespan   float64            `json:"expected_makespan,omitempty"`
	NormalizedMakespan float64            `json:"normalized_makespan,omitempty"`
	Counts             *schedule.Counts   `json:"counts,omitempty"`
	Schedule           *schedule.Schedule `json:"schedule,omitempty"`
	Cached             bool               `json:"cached,omitempty"`
	Error              string             `json:"error,omitempty"`
}

func (s *server) respond(res *core.Result, c *chain.Chain, cached bool, tag string, err error) planResponse {
	if err != nil {
		s.planErrors.Add(1)
		return planResponse{Tag: tag, Error: err.Error()}
	}
	counts := res.Schedule.Counts()
	return planResponse{
		Tag:                tag,
		Algorithm:          string(res.Algorithm),
		ExpectedMakespan:   res.ExpectedMakespan,
		NormalizedMakespan: res.NormalizedMakespan(c),
		Counts:             &counts,
		Schedule:           res.Schedule,
		Cached:             cached,
	}
}

func (s *server) handlePlan(w http.ResponseWriter, r *http.Request) {
	var pr planRequest
	if err := decodeJSON(r, &pr); err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	req, c, err := pr.toEngine()
	if err != nil {
		s.planErrors.Add(1)
		writeError(w, http.StatusBadRequest, err)
		return
	}
	resp := s.eng.PlanMany(r.Context(), []engine.Request{req})[0]
	out := s.respond(resp.Result, c, resp.Cached, pr.Tag, resp.Err)
	status := http.StatusOK
	if resp.Err != nil {
		status = http.StatusUnprocessableEntity
	}
	writeJSON(w, status, out)
}

type batchRequest struct {
	Requests []planRequest `json:"requests"`
}

type batchResponse struct {
	Responses []planResponse `json:"responses"`
	ElapsedMS float64        `json:"elapsed_ms"`
}

func (s *server) handleBatch(w http.ResponseWriter, r *http.Request) {
	var br batchRequest
	if err := decodeJSON(r, &br); err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	if len(br.Requests) == 0 {
		writeError(w, http.StatusBadRequest, fmt.Errorf("empty batch"))
		return
	}
	start := time.Now()
	reqs := make([]engine.Request, len(br.Requests))
	chains := make([]*chain.Chain, len(br.Requests))
	compileErrs := make([]error, len(br.Requests))
	for i := range br.Requests {
		reqs[i], chains[i], compileErrs[i] = br.Requests[i].toEngine()
	}
	// Plan the compilable subset as one engine batch; broken requests
	// keep their compile error and cost nothing.
	var live []engine.Request
	var liveIdx []int
	for i, err := range compileErrs {
		if err == nil {
			live = append(live, reqs[i])
			liveIdx = append(liveIdx, i)
		}
	}
	resps := make([]engine.Response, len(br.Requests))
	for j, resp := range s.eng.PlanMany(r.Context(), live) {
		resps[liveIdx[j]] = resp
	}
	out := batchResponse{Responses: make([]planResponse, len(br.Requests))}
	for i := range br.Requests {
		err := compileErrs[i]
		if err == nil {
			err = resps[i].Err
		}
		out.Responses[i] = s.respond(resps[i].Result, chains[i], resps[i].Cached, br.Requests[i].Tag, err)
	}
	out.ElapsedMS = float64(time.Since(start).Microseconds()) / 1000
	writeJSON(w, http.StatusOK, out)
}

func (s *server) handlePlatforms(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, platform.All())
}

func (s *server) handleHealth(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

func decodeJSON(r *http.Request, v any) error {
	dec := json.NewDecoder(http.MaxBytesReader(nil, r.Body, 16<<20))
	dec.DisallowUnknownFields()
	return dec.Decode(v)
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}

func writeError(w http.ResponseWriter, status int, err error) {
	writeJSON(w, status, map[string]string{"error": err.Error()})
}
