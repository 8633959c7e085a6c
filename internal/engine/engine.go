// Package engine turns the planners of internal/core into a concurrent
// batch-planning service. An Engine owns one solver kernel, one LRU
// memo of solved instances keyed by their canonical fingerprint
// (Fingerprint), and one pool of worker goroutines: many (chain,
// platform, algorithm) requests are resolved at once, any free worker
// takes the next cache miss, identical in-flight requests are coalesced
// onto one solver run (the memo doubles as the singleflight table), and
// repeated or near-duplicate requests — the normal shape of experiment
// sweeps and service traffic — are served from cache.
//
// Each planning job runs the dynamic program serially by default (core
// Options.SolveWorkers = 1 unless the request or Options.SolveWorkers
// says otherwise): with many instances in flight, instance-level
// parallelism keeps every core busy without intra-solve dispatch, which
// is what makes a sweep through the engine beat the loop-over-core.Plan
// seed path (see BenchmarkEngineSweep). For mega-chain traffic the
// balance flips — one huge solve dominates wall clock — and
// Options.SolveWorkers hands those solves the kernel's worker team.
//
// The Engine also exposes Run, a generic bounded fan-out over the same
// pool, so batch pipelines that interleave planning with evaluation or
// Monte-Carlo simulation (internal/experiments) share one parallelism
// budget instead of stacking pools.
package engine

import (
	"container/list"
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"chainckpt/internal/chain"
	"chainckpt/internal/core"
	"chainckpt/internal/obs"
	"chainckpt/internal/platform"
)

// ErrClosed is returned by every planning method after Close.
var ErrClosed = errors.New("engine: closed")

// Options configures an Engine.
type Options struct {
	// Workers is the size of the worker pool (default GOMAXPROCS).
	Workers int
	// CacheSize is the maximum number of memoized plans (default 1024),
	// an exact LRU bound; negative disables the cache entirely,
	// including in-flight request coalescing.
	CacheSize int
	// Metrics, when non-nil, wires the engine into an obs registry:
	// queue-wait and solve-latency histograms (see NewMetrics). Nil
	// means uninstrumented — every site degrades to a nil check.
	Metrics *Metrics
	// SolveWorkers is the per-solve DP parallelism applied to requests
	// that do not pin their own (Request.Opts.SolveWorkers == 0). Zero
	// keeps every solve serial — the engine's default, since its worker
	// pool already provides instance-level parallelism. A positive value
	// gives each cache-miss solve a worker team of that width (size
	// Workers × SolveWorkers to the core count, not each to it). A
	// negative value selects the solver's GOMAXPROCS-aware auto mode,
	// which engages only above the crossover window length — the right
	// setting when occasional mega-chains share the engine with small
	// interactive traffic.
	SolveWorkers int
}

func (o Options) normalized() Options {
	if o.Workers <= 0 {
		o.Workers = runtime.GOMAXPROCS(0)
	}
	if o.CacheSize == 0 {
		o.CacheSize = 1024
	}
	return o
}

// Request is one planning job.
type Request struct {
	// Algorithm selects the planner (core.AlgADV, AlgADMVStar, AlgADMV).
	Algorithm core.Algorithm
	// Chain is the task graph; it is read, never mutated.
	Chain *chain.Chain
	// Platform carries the error rates and baseline costs.
	Platform platform.Platform
	// Opts are the optional planning inputs (costs, constraints, disk
	// budget, solver parallelism). Opts.SolveWorkers zero defers to the
	// engine's Options.SolveWorkers (itself defaulting to serial
	// solves on the engine's own pool).
	Opts core.Options
	// Tag is an opaque label echoed in the Response.
	Tag string
}

// Response is the outcome of one Request.
type Response struct {
	// Index is the request's position in the submitted batch.
	Index int
	// Tag echoes Request.Tag.
	Tag string
	// Result is the planner outcome; nil when Err is set. Every caller
	// gets its own copy — mutating Result.Schedule cannot poison the
	// cache.
	Result *core.Result
	// Cached reports whether the plan was served from the memo (or
	// coalesced onto an identical in-flight request).
	Cached bool
	// Err is the planning error, if any.
	Err error
}

// Stats is a snapshot of the engine's counters.
type Stats struct {
	// Requests counts planning requests accepted.
	Requests uint64
	// CacheHits counts requests resolved from the memo, including
	// coalesced in-flight duplicates.
	CacheHits uint64
	// CacheMisses counts requests that ran a solver.
	CacheMisses uint64
	// Evictions counts memo entries dropped by the LRU policy.
	Evictions uint64
	// Errors counts requests that finished with an error.
	Errors uint64
	// Entries is the current number of memo entries.
	Entries int
	// Algorithms counts requests per algorithm name, so operators can
	// see which planners their traffic actually uses. Unknown algorithm
	// strings (requests the solver will reject) are lumped under
	// "other", keeping the map bounded against hostile input.
	Algorithms map[string]uint64
	// Kernel reports the solver kernel's scratch-pool counters.
	Kernel core.KernelStats
	// Shards is a one-entry slice holding a copy of the counters above;
	// its only reader is ledgerbench's traced replay (trace.go), which
	// sizes its solve-latency children by it.
	Shards []Stats
}

// HitRatio returns the fraction of requests served from the memo, 0
// before any request.
func (s Stats) HitRatio() float64 {
	if s.Requests == 0 {
		return 0
	}
	return float64(s.CacheHits) / float64(s.Requests)
}

// entry is one memo slot. done is closed once res/err are final; an
// entry in the map before done closes represents an in-flight solve that
// later identical requests wait on instead of re-solving — the
// singleflight table is the memo itself.
type entry struct {
	key  string
	done chan struct{}
	res  *core.Result
	err  error
}

// Engine is a concurrent batch planner. All methods are safe for
// concurrent use.
type Engine struct {
	opts   Options
	kernel *core.Kernel
	// solveWorkers is stamped on requests whose Opts.SolveWorkers is
	// unset: 1 keeps solves serial (the engine default), 0 selects the
	// solver's crossover-gated auto mode, larger values pin a team.
	solveWorkers int

	jobs    chan func()
	workers sync.WaitGroup // pool goroutines
	pending sync.WaitGroup // submitted, not yet finished jobs

	mu     sync.Mutex
	closed bool
	cache  map[string]*list.Element // key -> element holding *entry
	order  *list.List               // front = most recently used

	requests, hits, misses, evictions, errors atomic.Uint64
	// Accepted requests per algorithm: plain atomics, so counting stays
	// off the memo mutex on the hit-dominated hot path.
	algADV, algADMVStar, algADMV, algOther atomic.Uint64

	// Metric instruments resolved once at construction (nil when the
	// engine is uninstrumented — every use is nil-safe).
	queueWait, solveLat *obs.Histogram
}

// New starts an engine with opts.Workers pool goroutines. Callers must
// Close it to release them.
func New(opts Options) *Engine {
	opts = opts.normalized()
	e := &Engine{
		opts:   opts,
		kernel: core.NewKernel(),
		jobs:   make(chan func()),
		cache:  make(map[string]*list.Element),
		order:  list.New(),
	}
	// Map the engine-level solve parallelism to the core option stamped
	// on requests that left it unset: 0 (engine default) pins the serial
	// path, negative selects the solver's auto mode (core's zero value).
	e.solveWorkers = 1
	if opts.SolveWorkers > 0 {
		e.solveWorkers = opts.SolveWorkers
	} else if opts.SolveWorkers < 0 {
		e.solveWorkers = 0
	}
	e.queueWait, e.solveLat = opts.Metrics.instruments()
	for w := 0; w < opts.Workers; w++ {
		e.workers.Add(1)
		go func() {
			defer e.workers.Done()
			for job := range e.jobs {
				job()
				e.pending.Done()
			}
		}()
	}
	return e
}

// Close waits for in-flight jobs and stops the pool. Further planning
// calls return ErrClosed; Close is idempotent.
func (e *Engine) Close() {
	e.mu.Lock()
	if e.closed {
		e.mu.Unlock()
		return
	}
	e.closed = true
	e.mu.Unlock()
	e.pending.Wait()
	close(e.jobs)
	e.workers.Wait()
}

// submit schedules job on the pool. It reports ErrClosed on a closed
// engine and the context error if ctx is cancelled while waiting for a
// pool slot — a saturated pool must not keep queueing work for callers
// that already gave up.
func (e *Engine) submit(ctx context.Context, job func()) error {
	e.mu.Lock()
	if e.closed {
		e.mu.Unlock()
		return ErrClosed
	}
	e.pending.Add(1)
	e.mu.Unlock()
	if e.queueWait != nil {
		// Queue wait = submit to pool-slot pickup. Wrapped only when
		// instrumented so the unmetered path keeps its zero-closure
		// submit.
		inner := job
		enqueued := time.Now()
		job = func() {
			e.queueWait.ObserveSince(enqueued)
			inner()
		}
	}
	select {
	case e.jobs <- job:
		return nil
	case <-ctx.Done():
		e.pending.Done()
		return ctx.Err()
	}
}

// Run executes fn(0..n-1) over the pool and waits for all of them,
// returning the first error (after every task has finished). A context
// cancellation skips tasks that have not started yet.
//
// Run occupies up to one pool slot per worker with a pump that drains a
// shared task queue, so any free worker takes the next task and one
// long task never strands the work behind it. The pumps are ordinary
// pool jobs, so Run shares the engine's parallelism budget with
// planning traffic.
func (e *Engine) Run(ctx context.Context, n int, fn func(i int) error) error {
	if n <= 0 {
		return ctx.Err()
	}
	var mu sync.Mutex
	var first error
	setErr := func(err error) {
		mu.Lock()
		if first == nil {
			first = err
		}
		mu.Unlock()
	}
	tasks := make(chan int)
	abort := make(chan struct{}) // closed only if no pump ever started
	// Feed concurrently with pump submission: the first pump to start
	// begins draining immediately, so a worker busy with a long solve
	// delays only its own pump, never the tasks.
	go func() {
		defer close(tasks)
		for i := 0; i < n; i++ {
			select {
			case tasks <- i:
			case <-abort:
				return
			}
		}
	}()
	var pumps sync.WaitGroup
	started := 0
	for ; started < e.opts.Workers && started < n; started++ {
		pumps.Add(1)
		err := e.submit(ctx, func() {
			defer pumps.Done()
			for i := range tasks {
				if ctx.Err() != nil {
					continue // drain without running
				}
				if err := fn(i); err != nil {
					setErr(err)
				}
			}
		})
		if err != nil {
			pumps.Done()
			// A cancellation-driven submit failure must not mask the
			// task error that triggered the cancel; the ctx.Err
			// fallback below covers externally cancelled runs.
			if errors.Is(err, ErrClosed) {
				setErr(err)
			}
			break
		}
	}
	if started == 0 {
		close(abort) // release the feeder; nothing will drain tasks
	}
	pumps.Wait()
	if first == nil {
		first = ctx.Err()
	}
	return first
}

// Plan resolves one request through the cache and pool. It blocks until
// the plan is available, the context is cancelled, or the engine closes.
func (e *Engine) Plan(ctx context.Context, req Request) (*core.Result, error) {
	resp := e.planOne(ctx, 0, req)
	return resp.Result, resp.Err
}

// PlanMany resolves a batch of requests concurrently and returns the
// responses in request order. It never returns an error; per-request
// failures are carried in each Response.
func (e *Engine) PlanMany(ctx context.Context, reqs []Request) []Response {
	out := make([]Response, len(reqs))
	var wg sync.WaitGroup
	for i := range reqs {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			out[i] = e.planOne(ctx, i, reqs[i])
		}()
	}
	wg.Wait()
	return out
}

// Stream resolves a batch of requests and delivers each Response as soon
// as it is ready, in completion order; Response.Index maps it back to
// its request. The channel is closed after the last response.
func (e *Engine) Stream(ctx context.Context, reqs []Request) <-chan Response {
	ch := make(chan Response, len(reqs))
	var wg sync.WaitGroup
	for i := range reqs {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			ch <- e.planOne(ctx, i, reqs[i])
		}()
	}
	go func() {
		wg.Wait()
		close(ch)
	}()
	return ch
}

// PlanAsync resolves one request in the background; the returned channel
// delivers exactly one Response and is then closed.
func (e *Engine) PlanAsync(ctx context.Context, req Request) <-chan Response {
	return e.Stream(ctx, []Request{req})
}

// planOne is the single-request path shared by every public method:
// count the algorithm, fingerprint the instance, and resolve it under
// an engine.plan span.
func (e *Engine) planOne(ctx context.Context, index int, req Request) Response {
	switch req.Algorithm {
	case core.AlgADV:
		e.algADV.Add(1)
	case core.AlgADMVStar:
		e.algADMVStar.Add(1)
	case core.AlgADMV:
		e.algADMV.Add(1)
	default:
		e.algOther.Add(1)
	}

	key, kerr := Fingerprint(req)
	sp := obs.SpanFrom(ctx).Child("engine.plan")
	// Carry the plan span down so the kernel.solve child nests under it
	// (ContextWithSpan is a no-op on a nil span).
	resp := e.resolve(obs.ContextWithSpan(ctx, sp), index, req, key, kerr)
	if sp != nil {
		sp.SetAttr("algorithm", string(req.Algorithm))
		if resp.Cached {
			sp.SetAttr("cached", "true")
		}
		sp.End()
	}
	return resp
}

// resolve answers one request from the memo or the pool. key is the
// request's fingerprint; kerr non-nil marks a request that could not be
// fingerprinted (it skips the memo and solves on the caller's
// goroutine, so the solver reports the precise validation error).
func (e *Engine) resolve(ctx context.Context, index int, req Request, key string, kerr error) Response {
	e.requests.Add(1)
	resp := Response{Index: index, Tag: req.Tag}

	// Honor the ErrClosed contract even for requests the memo could
	// serve; a closed engine answers nothing.
	e.mu.Lock()
	closed := e.closed
	e.mu.Unlock()
	if closed {
		e.errors.Add(1)
		resp.Err = ErrClosed
		return resp
	}

	if kerr != nil {
		e.misses.Add(1)
		resp.Result, resp.Err = e.solve(ctx, req)
		if resp.Err != nil {
			e.errors.Add(1)
		}
		return resp
	}

	if e.opts.CacheSize < 0 {
		e.misses.Add(1)
		resp.Result, resp.Err = e.solveOnPool(ctx, req)
		if resp.Err != nil {
			e.errors.Add(1)
		}
		return resp
	}

	e.mu.Lock()
	if el, ok := e.cache[key]; ok {
		e.order.MoveToFront(el)
		ent := el.Value.(*entry)
		e.mu.Unlock()
		e.hits.Add(1)
		resp.Cached = true
		select {
		case <-ent.done:
			resp.Result, resp.Err = cloneResult(ent.res), ent.err
		case <-ctx.Done():
			resp.Err = ctx.Err()
		}
		if resp.Err != nil {
			e.errors.Add(1)
		}
		return resp
	}
	ent := &entry{key: key, done: make(chan struct{})}
	e.cache[key] = e.order.PushFront(ent)
	for e.order.Len() > e.opts.CacheSize {
		oldest := e.order.Back()
		e.order.Remove(oldest)
		delete(e.cache, oldest.Value.(*entry).key)
		e.evictions.Add(1)
	}
	e.mu.Unlock()
	e.misses.Add(1)

	err := e.submit(ctx, func() {
		ent.res, ent.err = e.solve(ctx, req)
		if ent.err != nil {
			// Failed solves are not worth a memo slot: keeping them would
			// let a stream of cheap invalid requests evict valid plans.
			e.dropEntry(ent)
		}
		close(ent.done)
	})
	if err != nil {
		// Engine closed, or this caller cancelled before a pool slot
		// freed: drop the entry and finalize it so any coalesced waiter
		// is released too (a later identical request re-solves).
		e.dropEntry(ent)
		ent.err = err
		close(ent.done)
	}

	select {
	case <-ent.done:
		resp.Result, resp.Err = cloneResult(ent.res), ent.err
	case <-ctx.Done():
		resp.Err = ctx.Err()
	}
	if resp.Err != nil {
		e.errors.Add(1)
	}
	return resp
}

// dropEntry removes ent from the memo if it still owns its slot (it may
// have been evicted by the LRU policy in the meantime).
func (e *Engine) dropEntry(ent *entry) {
	e.mu.Lock()
	if el, ok := e.cache[ent.key]; ok && el.Value.(*entry) == ent {
		e.order.Remove(el)
		delete(e.cache, ent.key)
	}
	e.mu.Unlock()
}

// solveOnPool runs solve as a pool job and waits for it (the uncached
// path).
func (e *Engine) solveOnPool(ctx context.Context, req Request) (*core.Result, error) {
	var res *core.Result
	var err error
	done := make(chan struct{})
	if serr := e.submit(ctx, func() {
		// Nobody shares an uncached result: skip the solve entirely if
		// the only waiter is already gone.
		if ctx.Err() == nil {
			res, err = e.solve(ctx, req)
		} else {
			err = ctx.Err()
		}
		close(done)
	}); serr != nil {
		return nil, serr
	}
	select {
	case <-done:
		return res, err
	case <-ctx.Done():
		return nil, ctx.Err()
	}
}

// solve runs the dynamic program for one request through the engine's
// kernel. Requests that do not pin their own solver parallelism inherit
// the engine's SolveWorkers policy; the engine default keeps solves
// serial, because the pool already provides instance-level parallelism.
func (e *Engine) solve(ctx context.Context, req Request) (*core.Result, error) {
	opts := req.Opts
	if opts.SolveWorkers == 0 {
		opts.SolveWorkers = e.solveWorkers
	}
	span := obs.SpanFrom(ctx).Child("kernel.solve")
	span.SetAttr("algorithm", string(req.Algorithm))
	span.SetAttrInt("workers", int64(opts.SolveWorkers))
	var start time.Time
	if e.solveLat != nil {
		start = time.Now()
	}
	res, err := e.kernel.PlanOpts(req.Algorithm, req.Chain, req.Platform, opts)
	if e.solveLat != nil {
		e.solveLat.ObserveSince(start)
	}
	if err != nil {
		span.SetAttr("error", err.Error())
	}
	span.End()
	if err != nil {
		return nil, fmt.Errorf("engine: %w", err)
	}
	return res, nil
}

// Kernel returns the engine's solver kernel, which co-located
// components share for their own direct solves (the execution
// supervisor's suffix re-plans, a DAG linearization search).
func (e *Engine) Kernel() *core.Kernel { return e.kernel }

// Stats returns a snapshot of the engine's counters.
func (e *Engine) Stats() Stats {
	e.mu.Lock()
	entries := e.order.Len()
	e.mu.Unlock()
	st := Stats{
		Requests:    e.requests.Load(),
		CacheHits:   e.hits.Load(),
		CacheMisses: e.misses.Load(),
		Evictions:   e.evictions.Load(),
		Errors:      e.errors.Load(),
		Entries:     entries,
		Kernel:      e.kernel.Stats(),
		Algorithms:  make(map[string]uint64, 4),
	}
	for alg, v := range map[string]uint64{
		string(core.AlgADV):      e.algADV.Load(),
		string(core.AlgADMVStar): e.algADMVStar.Load(),
		string(core.AlgADMV):     e.algADMV.Load(),
		"other":                  e.algOther.Load(),
	} {
		if v > 0 {
			st.Algorithms[alg] = v
		}
	}
	st.Shards = []Stats{st}
	return st
}

// cloneResult gives each caller an independent copy of a memoized plan.
func cloneResult(r *core.Result) *core.Result {
	if r == nil {
		return nil
	}
	out := *r
	if r.Schedule != nil {
		out.Schedule = r.Schedule.Clone()
	}
	return &out
}

var (
	defaultMu  sync.Mutex
	defaultEng *Engine
)

// Default returns the shared process-wide engine, creating it with
// default options (GOMAXPROCS workers) on first use. It is what the
// experiment harness and the command-line tools plan through, so a
// whole process shares one memo and one parallelism budget.
func Default() *Engine {
	defaultMu.Lock()
	defer defaultMu.Unlock()
	if defaultEng == nil {
		defaultEng = New(Options{})
	}
	return defaultEng
}

// SetDefault replaces the shared engine (command-line flags use it to
// size the pool before any planning happens). The previous default, if
// any, keeps running; callers that captured it are unaffected.
func SetDefault(e *Engine) {
	defaultMu.Lock()
	defaultEng = e
	defaultMu.Unlock()
}
