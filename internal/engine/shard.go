package engine

import (
	"container/list"
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"chainckpt/internal/core"
	"chainckpt/internal/obs"
)

// shard is one independent slice of the engine: its own solver kernel,
// LRU memo, singleflight table (the in-flight entries of the memo) and
// worker goroutines. Requests are routed to a shard by their canonical
// instance fingerprint, so identical instances always meet in the same
// shard — dedup and coalescing need no cross-shard coordination, and
// the memo mutex of one shard is never touched by traffic hashed to
// another.
type shard struct {
	id        int
	kernel    *core.Kernel
	cacheSize int // per-shard memo capacity; negative disables caching
	nworkers  int // pool goroutines this shard owns
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

	// Metric children resolved once at construction (nil when the
	// engine is uninstrumented — every use is nil-safe).
	queueWait *obs.Histogram
	solveLat  *obs.Histogram
	steals    *obs.Counter
}

// newShard starts one shard with its own worker goroutines.
func newShard(id int, kernel *core.Kernel, cacheSize, workers, solveWorkers int, m *Metrics) *shard {
	s := &shard{
		id:           id,
		kernel:       kernel,
		cacheSize:    cacheSize,
		nworkers:     workers,
		solveWorkers: solveWorkers,
		jobs:         make(chan func()),
		cache:        make(map[string]*list.Element),
		order:        list.New(),
	}
	s.queueWait, s.solveLat, s.steals = m.shardChildren(id)
	for w := 0; w < workers; w++ {
		s.workers.Add(1)
		go func() {
			defer s.workers.Done()
			for job := range s.jobs {
				job()
				s.pending.Done()
			}
		}()
	}
	return s
}

// submit schedules job on the shard's pool. It reports ErrClosed on a
// closed engine and the context error if ctx is cancelled while waiting
// for a pool slot — a saturated pool must not keep queueing work for
// callers that already gave up.
func (s *shard) submit(ctx context.Context, job func()) error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return ErrClosed
	}
	s.pending.Add(1)
	s.mu.Unlock()
	if s.queueWait != nil {
		// Queue wait = submit to pool-slot pickup. Wrapped only when
		// instrumented so the unmetered path keeps its zero-closure
		// submit.
		inner := job
		enqueued := time.Now()
		job = func() {
			s.queueWait.ObserveSince(enqueued)
			inner()
		}
	}
	select {
	case s.jobs <- job:
		return nil
	case <-ctx.Done():
		s.pending.Done()
		return ctx.Err()
	}
}

// planOne resolves one request against this shard's memo and pool. key
// is the request's fingerprint; kerr non-nil marks a request that could
// not be fingerprinted (it skips the cache, and the solver reports the
// precise validation error).
func (s *shard) planOne(ctx context.Context, index int, req Request, key string, kerr error) Response {
	s.requests.Add(1)
	resp := Response{Index: index, Tag: req.Tag}

	// Honor the ErrClosed contract even for requests the memo could
	// serve; a closed engine answers nothing.
	s.mu.Lock()
	closed := s.closed
	s.mu.Unlock()
	if closed {
		s.errors.Add(1)
		resp.Err = ErrClosed
		return resp
	}

	if kerr != nil {
		s.misses.Add(1)
		resp.Result, resp.Err = s.solve(ctx, req)
		if resp.Err != nil {
			s.errors.Add(1)
		}
		return resp
	}

	if s.cacheSize < 0 {
		s.misses.Add(1)
		resp.Result, resp.Err = s.solveOnPool(ctx, req)
		if resp.Err != nil {
			s.errors.Add(1)
		}
		return resp
	}

	s.mu.Lock()
	if el, ok := s.cache[key]; ok {
		s.order.MoveToFront(el)
		ent := el.Value.(*entry)
		s.mu.Unlock()
		s.hits.Add(1)
		resp.Cached = true
		select {
		case <-ent.done:
			resp.Result, resp.Err = cloneResult(ent.res), ent.err
		case <-ctx.Done():
			resp.Err = ctx.Err()
		}
		if resp.Err != nil {
			s.errors.Add(1)
		}
		return resp
	}
	ent := &entry{key: key, done: make(chan struct{})}
	s.cache[key] = s.order.PushFront(ent)
	for s.order.Len() > s.cacheSize {
		oldest := s.order.Back()
		s.order.Remove(oldest)
		delete(s.cache, oldest.Value.(*entry).key)
		s.evictions.Add(1)
	}
	s.mu.Unlock()
	s.misses.Add(1)

	err := s.submit(ctx, func() {
		ent.res, ent.err = s.solve(ctx, req)
		if ent.err != nil {
			// Failed solves are not worth a memo slot: keeping them would
			// let a stream of cheap invalid requests evict valid plans.
			s.dropEntry(ent)
		}
		close(ent.done)
	})
	if err != nil {
		// Engine closed, or this caller cancelled before a pool slot
		// freed: drop the entry and finalize it so any coalesced waiter
		// is released too (a later identical request re-solves).
		s.dropEntry(ent)
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
		s.errors.Add(1)
	}
	return resp
}

// dropEntry removes ent from the memo if it still owns its slot (it may
// have been evicted by the LRU policy in the meantime).
func (s *shard) dropEntry(ent *entry) {
	s.mu.Lock()
	if el, ok := s.cache[ent.key]; ok && el.Value.(*entry) == ent {
		s.order.Remove(el)
		delete(s.cache, ent.key)
	}
	s.mu.Unlock()
}

// solveOnPool runs solve as a pool job and waits for it (the uncached
// path).
func (s *shard) solveOnPool(ctx context.Context, req Request) (*core.Result, error) {
	var res *core.Result
	var err error
	done := make(chan struct{})
	if serr := s.submit(ctx, func() {
		// Nobody shares an uncached result: skip the solve entirely if
		// the only waiter is already gone.
		if ctx.Err() == nil {
			res, err = s.solve(ctx, req)
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

// solve runs the dynamic program for one request through the shard's
// kernel. Requests that do not pin their own solver parallelism inherit
// the engine's SolveWorkers policy; the engine default keeps solves
// serial, because the pool already provides instance-level parallelism.
func (s *shard) solve(ctx context.Context, req Request) (*core.Result, error) {
	opts := req.Opts
	if opts.SolveWorkers == 0 {
		opts.SolveWorkers = s.solveWorkers
	}
	span := obs.SpanFrom(ctx).Child("kernel.solve")
	span.SetAttr("algorithm", string(req.Algorithm))
	span.SetAttrInt("workers", int64(opts.SolveWorkers))
	var start time.Time
	if s.solveLat != nil {
		start = time.Now()
	}
	res, err := s.kernel.PlanOpts(req.Algorithm, req.Chain, req.Platform, opts)
	if s.solveLat != nil {
		s.solveLat.ObserveSince(start)
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

// stats snapshots the shard's counters (kernel stats are filled in by
// the engine, which knows whether kernels are per-shard or shared).
func (s *shard) stats() ShardStats {
	s.mu.Lock()
	entries := s.order.Len()
	s.mu.Unlock()
	return ShardStats{
		Shard:       s.id,
		Requests:    s.requests.Load(),
		CacheHits:   s.hits.Load(),
		CacheMisses: s.misses.Load(),
		Evictions:   s.evictions.Load(),
		Errors:      s.errors.Load(),
		Entries:     entries,
	}
}
