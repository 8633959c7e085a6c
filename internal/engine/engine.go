// Package engine turns the planners of internal/core into a concurrent
// batch-planning service. An Engine owns a set of independent shards —
// each with its own solver kernel, LRU memo of solved instances, and
// worker pool — and routes every request to a shard by the canonical
// fingerprint of its instance (Fingerprint): many (chain, platform,
// algorithm) requests are resolved at once, identical in-flight
// requests meet in the same shard and are coalesced onto one solver
// run, and repeated or near-duplicate requests — the normal shape of
// experiment sweeps and service traffic — are served from cache.
//
// Sharding is what lets the memo serve heavy concurrent traffic: with
// one shard, every cache hit serializes on a single mutex to touch the
// LRU list, and that mutex is the whole engine's contention point. With
// N shards the same traffic spreads over N independent mutexes, N
// memos and N kernels, while the fingerprint routing keeps the memo
// semantics exactly those of the unsharded engine: an instance always
// hashes to the same shard, so dedup, coalescing and LRU behavior are
// unchanged per instance, and results are byte-identical to Shards: 1
// (the cross-validation suite enforces this). BenchmarkEngineContention
// measures the difference under parallel PlanMany load.
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
// The Engine also exposes Run, a generic bounded fan-out over the shard
// pools, so batch pipelines that interleave planning with evaluation or
// Monte-Carlo simulation (internal/experiments) share one parallelism
// budget instead of stacking pools.
package engine

import (
	"context"
	"errors"
	"math/bits"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"

	"chainckpt/internal/chain"
	"chainckpt/internal/core"
	"chainckpt/internal/obs"
	"chainckpt/internal/platform"
)

// ErrClosed is returned by every planning method after Close.
var ErrClosed = errors.New("engine: closed")

// Options configures an Engine.
type Options struct {
	// Workers is the total size of the worker pool (default GOMAXPROCS),
	// spread across the shards. Every shard keeps at least one worker,
	// so an explicit Shards larger than Workers raises the total to one
	// per shard; the default shard count never exceeds Workers, keeping
	// Workers an effective concurrency bound.
	Workers int
	// CacheSize is the maximum number of memoized plans across all
	// shards (default 1024), split evenly per shard (at least one entry
	// each); negative disables the cache entirely, including in-flight
	// request coalescing.
	CacheSize int
	// Shards is the number of engine shards. Each shard owns its own
	// solver kernel, LRU memo, singleflight table and worker slice;
	// requests are routed by instance fingerprint. An explicit value is
	// rounded up to a power of two; the default is min(GOMAXPROCS,
	// Workers) rounded down to one, so the default configuration keeps
	// both the core count and the Workers budget honest. Shards: 1
	// reproduces the unsharded engine exactly.
	Shards int
	// Kernel, when non-nil, is shared by every shard instead of the
	// per-shard kernels (default: one private kernel per shard, so a
	// shard's scratch pools are never contended by another shard's
	// workers). One kernel serving many workers is still correct: its
	// size-bucketed arena pools hand each concurrent solve its own
	// scratch (see Stats.Kernel).
	Kernel *core.Kernel
	// Metrics, when non-nil, wires the engine into an obs registry:
	// per-shard queue-wait and solve-latency histograms plus Run
	// work-stealing counters (see NewMetrics). Nil means uninstrumented
	// — every site degrades to a nil check.
	Metrics *Metrics
	// SolveWorkers is the per-solve DP parallelism applied to requests
	// that do not pin their own (Request.Opts.SolveWorkers == 0). Zero
	// keeps every solve serial — the engine's default, since its worker
	// pool already provides instance-level parallelism. A positive value
	// gives each cache-miss solve a worker team of that width (the
	// shards share one budget: each shard's kernel team is drawn from
	// the same machine, so size Workers × SolveWorkers to the core
	// count, not each to it). A negative value selects the solver's
	// GOMAXPROCS-aware auto mode, which engages only above the
	// crossover window length — the right setting when occasional
	// mega-chains share the engine with small interactive traffic.
	SolveWorkers int
}

func (o Options) normalized() Options {
	if o.Workers <= 0 {
		o.Workers = runtime.GOMAXPROCS(0)
	}
	if o.CacheSize == 0 {
		o.CacheSize = 1024
	}
	if o.Shards <= 0 {
		// Default: as many shards as cores, but never more shards than
		// workers — each shard keeps at least one worker, so more shards
		// than Workers would silently exceed the configured budget.
		def := min(o.Workers, runtime.GOMAXPROCS(0))
		o.Shards = 1 << (bits.Len(uint(max(def, 1))) - 1) // round down to a power of two
	} else if o.Shards > 1 {
		o.Shards = 1 << bits.Len(uint(o.Shards-1)) // round up to a power of two
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

// Stats is a snapshot of the engine's counters, aggregated across
// shards; Shards carries the per-shard breakdown.
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
	// Entries is the current number of memo entries across all shards.
	Entries int
	// Algorithms counts requests per algorithm name, so operators can
	// see which planners their traffic actually uses. Unknown algorithm
	// strings (requests the solver will reject) are lumped under
	// "other", keeping the map bounded against hostile input.
	Algorithms map[string]uint64
	// Kernel reports the solver kernels' scratch-pool counters — the
	// per-shard kernels merged (buckets summed by capacity), or the one
	// shared kernel when Options.Kernel was injected.
	Kernel core.KernelStats
	// Shards is the per-shard breakdown; its counters sum to the
	// aggregates above.
	Shards []ShardStats
}

// ShardStats is one shard's slice of the engine counters.
type ShardStats struct {
	// Shard is the shard index (the fingerprint-hash bucket).
	Shard int `json:"shard"`
	// Requests counts planning requests routed to this shard.
	Requests uint64 `json:"requests"`
	// CacheHits and CacheMisses split the shard's requests into plans
	// served from its memo and plans that ran a solver.
	CacheHits   uint64 `json:"cache_hits"`
	CacheMisses uint64 `json:"cache_misses"`
	// Evictions counts memo entries dropped by this shard's LRU policy.
	Evictions uint64 `json:"evictions"`
	// Errors counts requests that finished with an error.
	Errors uint64 `json:"errors"`
	// Entries is the shard's current memo depth.
	Entries int `json:"entries"`
	// Kernel is the shard's private kernel snapshot; the zero value when
	// the engine was built with an injected shared kernel (whose
	// counters cannot be attributed to one shard). A value type cannot
	// carry omitempty, so the shared-kernel case serializes explicit
	// zeros — read them as "not attributable", signalled by the
	// engine-level Stats.Kernel being non-zero.
	Kernel core.KernelStats `json:"kernel"`
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
	shards []*shard
	mask   uint64
	shared *core.Kernel // non-nil when Options.Kernel was injected

	mu     sync.Mutex
	closed bool

	// Accepted requests per algorithm. Plain atomics, not a
	// mutex-guarded map: these sit on the hit-dominated hot path, and a
	// single engine-wide mutex there would re-create exactly the
	// serialization sharding removes.
	algADV, algADMVStar, algADMV, algOther atomic.Uint64
}

// New starts an engine with opts.Shards shards sharing opts.Workers
// pool goroutines. Callers must Close it to release them.
func New(opts Options) *Engine {
	opts = opts.normalized()
	e := &Engine{
		opts:   opts,
		shared: opts.Kernel,
		mask:   uint64(opts.Shards - 1),
	}
	perCache := opts.CacheSize
	if perCache > 0 {
		perCache = (opts.CacheSize + opts.Shards - 1) / opts.Shards
	}
	// Map the engine-level solve parallelism to the core option each
	// shard stamps on requests that left it unset: 0 (engine default)
	// pins the serial path, negative selects the solver's auto mode
	// (core's zero value).
	solveWorkers := 1
	if opts.SolveWorkers > 0 {
		solveWorkers = opts.SolveWorkers
	} else if opts.SolveWorkers < 0 {
		solveWorkers = 0
	}
	for i := 0; i < opts.Shards; i++ {
		kern := opts.Kernel
		if kern == nil {
			kern = core.NewKernel()
		}
		workers := opts.Workers / opts.Shards
		if i < opts.Workers%opts.Shards {
			workers++
		}
		if workers < 1 {
			workers = 1
		}
		e.shards = append(e.shards, newShard(i, kern, perCache, workers, solveWorkers, opts.Metrics))
	}
	return e
}

// shardFor maps a fingerprint to its shard: the leading fingerprint
// bytes (SHA-256 output, uniformly distributed) masked to the
// power-of-two shard count.
func (e *Engine) shardFor(key string) *shard {
	var v uint64
	for i := 0; i < 8 && i < len(key); i++ {
		v = v<<8 | uint64(key[i])
	}
	return e.shards[v&e.mask]
}

// Close waits for in-flight jobs and stops every shard pool. Further
// planning calls return ErrClosed; Close is idempotent.
func (e *Engine) Close() {
	e.mu.Lock()
	if e.closed {
		e.mu.Unlock()
		return
	}
	e.closed = true
	e.mu.Unlock()
	// Seal every shard first so no shard can accept new work while its
	// siblings drain, then drain them.
	for _, s := range e.shards {
		s.mu.Lock()
		s.closed = true
		s.mu.Unlock()
	}
	for _, s := range e.shards {
		s.pending.Wait()
		close(s.jobs)
		s.workers.Wait()
	}
}

// Run executes fn(0..n-1) over the shard pools and waits for all of
// them, returning the first error (after every task has finished). A
// context cancellation skips tasks that have not started yet.
//
// Tasks are never pre-assigned to a shard: Run occupies up to one pool
// slot per engine worker with a pump that drains a shared task queue,
// so any free worker anywhere takes the next task — the work-stealing
// the pre-shard single pool had, preserved across the split. (Dealing
// tasks round-robin would let one long task strand the work behind it
// while other shards idle.) The pumps are ordinary pool jobs, so Run
// still shares the engine's parallelism budget with planning traffic.
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
	// begins draining immediately, so a shard whose worker is busy with
	// a long solve delays only its own pump, never the tasks.
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
starting:
	for _, s := range e.shards {
		for w := 0; w < s.nworkers && started < n; w++ {
			pumps.Add(1)
			steals := s.steals
			err := s.submit(ctx, func() {
				defer pumps.Done()
				for i := range tasks {
					if ctx.Err() != nil {
						continue // drain without running
					}
					steals.Inc()
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
				break starting
			}
			started++
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
// count the algorithm, fingerprint the instance, and hand the request
// to its shard. Requests that cannot be fingerprinted (the solver will
// reject them with a precise error) run on shard 0, outside any memo.
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
	sh := e.shards[0]
	if kerr == nil {
		sh = e.shardFor(key)
	}
	sp := obs.SpanFrom(ctx).Child("engine.plan")
	// Carry the plan span down so the shard's kernel.solve child nests
	// under it (ContextWithSpan is a no-op on a nil span).
	resp := sh.planOne(obs.ContextWithSpan(ctx, sp), index, req, key, kerr)
	if sp != nil {
		sp.SetAttr("algorithm", string(req.Algorithm))
		sp.SetAttrInt("shard", int64(sh.id))
		if resp.Cached {
			sp.SetAttr("cached", "true")
		}
		sp.End()
	}
	return resp
}

// Kernel returns the solver kernel co-located components share for
// their own direct solves (the execution supervisor's suffix re-plans,
// a DAG linearization search): the injected Options.Kernel when one was
// given, shard 0's kernel otherwise.
func (e *Engine) Kernel() *core.Kernel {
	if e.shared != nil {
		return e.shared
	}
	return e.shards[0].kernel
}

// Stats returns a snapshot of the engine's counters: the cross-shard
// aggregates plus the per-shard breakdown.
func (e *Engine) Stats() Stats {
	st := Stats{Shards: make([]ShardStats, len(e.shards))}
	kstats := make([]core.KernelStats, 0, len(e.shards))
	for i, s := range e.shards {
		ss := s.stats()
		if e.shared == nil {
			ss.Kernel = s.kernel.Stats()
			kstats = append(kstats, ss.Kernel)
		}
		st.Shards[i] = ss
		st.Requests += ss.Requests
		st.CacheHits += ss.CacheHits
		st.CacheMisses += ss.CacheMisses
		st.Evictions += ss.Evictions
		st.Errors += ss.Errors
		st.Entries += ss.Entries
	}
	if e.shared != nil {
		st.Kernel = e.shared.Stats()
	} else {
		st.Kernel = mergeKernelStats(kstats)
	}
	st.Algorithms = make(map[string]uint64, 4)
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
	return st
}

// mergeKernelStats sums per-shard kernel snapshots into one engine-wide
// view: counters add, buckets merge by capacity.
func mergeKernelStats(sts []core.KernelStats) core.KernelStats {
	if len(sts) == 1 {
		return sts[0]
	}
	out := core.KernelStats{}
	buckets := make(map[int]core.KernelBucketStats)
	for _, st := range sts {
		out.Solves += st.Solves
		out.ScratchReuses += st.ScratchReuses
		out.ScratchFresh += st.ScratchFresh
		out.Parallel.Solves += st.Parallel.Solves
		out.Parallel.Tiles += st.Parallel.Tiles
		out.Parallel.LocalTiles += st.Parallel.LocalTiles
		out.Parallel.Steals += st.Parallel.Steals
		out.Parallel.BusySeconds += st.Parallel.BusySeconds
		out.Parallel.CrossoverSkips += st.Parallel.CrossoverSkips
		out.Parallel.Workers += st.Parallel.Workers
		for _, b := range st.Buckets {
			m := buckets[b.Cap]
			m.Cap = b.Cap
			m.Reuses += b.Reuses
			m.Fresh += b.Fresh
			buckets[b.Cap] = m
		}
	}
	for _, b := range buckets {
		out.Buckets = append(out.Buckets, b)
	}
	sort.Slice(out.Buckets, func(i, j int) bool { return out.Buckets[i].Cap < out.Buckets[j].Cap })
	return out
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
// default options (GOMAXPROCS shards) on first use. It is what the
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
