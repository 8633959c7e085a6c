package engine

import (
	"context"
	"math"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"chainckpt/internal/core"
)

func TestShardCountRoundedToPowerOfTwo(t *testing.T) {
	for _, tc := range []struct{ in, want int }{
		{1, 1}, {2, 2}, {3, 4}, {4, 4}, {5, 8}, {9, 16}, {16, 16},
	} {
		eng := New(Options{Workers: 1, Shards: tc.in})
		if got := len(eng.shards); got != tc.want {
			t.Errorf("Shards: %d built %d shards, want %d", tc.in, got, tc.want)
		}
		eng.Close()
	}
}

func TestShardedMatchesSingleShard(t *testing.T) {
	// The sharded engine must be routing, not semantics: every plan is
	// byte-identical to the one-shard engine's (the facade-level
	// cross-validation suite extends this over randomized instances).
	reqs := testRequests(t, 16)
	sharded := New(Options{Workers: 4, Shards: 8})
	defer sharded.Close()
	single := New(Options{Workers: 4, Shards: 1})
	defer single.Close()
	a := sharded.PlanMany(context.Background(), reqs)
	b := single.PlanMany(context.Background(), reqs)
	for i := range reqs {
		if a[i].Err != nil || b[i].Err != nil {
			t.Fatalf("request %d: sharded err=%v single err=%v", i, a[i].Err, b[i].Err)
		}
		if math.Float64bits(a[i].Result.ExpectedMakespan) != math.Float64bits(b[i].Result.ExpectedMakespan) ||
			!a[i].Result.Schedule.Equal(b[i].Result.Schedule) {
			t.Errorf("request %d: sharded plan differs from single-shard plan", i)
		}
	}
}

func TestShardedStatsSumAcrossShards(t *testing.T) {
	eng := New(Options{Workers: 4, CacheSize: 256, Shards: 8})
	defer eng.Close()
	reqs := testRequests(t, 12) // 12 distinct instances (the helper's period)
	ctx := context.Background()
	for round := 0; round < 2; round++ {
		for _, resp := range eng.PlanMany(ctx, reqs) {
			if resp.Err != nil {
				t.Fatal(resp.Err)
			}
		}
	}
	st := eng.Stats()
	if len(st.Shards) != 8 {
		t.Fatalf("Shards breakdown has %d entries, want 8", len(st.Shards))
	}
	var req, hits, misses, evs, errs uint64
	var entries int
	touched := 0
	for i, ss := range st.Shards {
		if ss.Shard != i {
			t.Errorf("shard %d reports index %d", i, ss.Shard)
		}
		if ss.Requests != ss.CacheHits+ss.CacheMisses {
			t.Errorf("shard %d: %d requests != %d hits + %d misses", i, ss.Requests, ss.CacheHits, ss.CacheMisses)
		}
		req += ss.Requests
		hits += ss.CacheHits
		misses += ss.CacheMisses
		evs += ss.Evictions
		errs += ss.Errors
		entries += ss.Entries
		if ss.Requests > 0 {
			touched++
		}
	}
	if req != st.Requests || hits != st.CacheHits || misses != st.CacheMisses ||
		evs != st.Evictions || errs != st.Errors || entries != st.Entries {
		t.Errorf("per-shard sums (%d %d %d %d %d %d) disagree with aggregates %+v",
			req, hits, misses, evs, errs, entries, st)
	}
	if st.Requests != 24 || st.CacheMisses != 12 || st.CacheHits != 12 {
		t.Errorf("second pass should hit every shard memo: %+v", st)
	}
	if touched < 2 {
		t.Errorf("12 fingerprints landed on %d shard(s); routing looks degenerate", touched)
	}
	// Per-shard kernels: merged kernel stats must agree with the solve
	// count, and every shard's kernel only saw its own misses.
	if st.Kernel.Solves != 12 {
		t.Errorf("merged kernel solves = %d, want 12", st.Kernel.Solves)
	}
	for _, ss := range st.Shards {
		if ss.Kernel.Solves != ss.CacheMisses {
			t.Errorf("shard %d kernel solves %d != misses %d", ss.Shard, ss.Kernel.Solves, ss.CacheMisses)
		}
	}
}

// TestShardedStressAccountingAndSingleflight is the race-mode stress
// property: 32 goroutines hammer one sharded engine with overlapping
// fingerprints, and afterwards (a) the memo-hit accounting sums exactly
// across shards — every request is a hit or a miss, and each distinct
// instance missed exactly once engine-wide — and (b) the singleflight
// table leaked nothing: every memo entry is finalized and owned by the
// shard its fingerprint routes to.
func TestShardedStressAccountingAndSingleflight(t *testing.T) {
	const (
		goroutines = 32
		rounds     = 20
		distinct   = 8
	)
	eng := New(Options{Workers: 4, CacheSize: 256, Shards: 8})
	defer eng.Close()
	reqs := testRequests(t, distinct)

	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				req := reqs[(g+r)%distinct]
				if _, err := eng.Plan(context.Background(), req); err != nil {
					t.Errorf("goroutine %d round %d: %v", g, r, err)
					return
				}
			}
		}(g)
	}
	wg.Wait()

	st := eng.Stats()
	if st.Requests != goroutines*rounds {
		t.Fatalf("requests = %d, want %d", st.Requests, goroutines*rounds)
	}
	if st.CacheHits+st.CacheMisses != st.Requests {
		t.Errorf("hits %d + misses %d != requests %d", st.CacheHits, st.CacheMisses, st.Requests)
	}
	// Each distinct fingerprint enters its shard's memo once and is never
	// evicted (per-shard capacity 32 >> 8 keys), so engine-wide misses
	// equal the distinct instance count no matter how the 640 plans
	// interleaved — coalesced duplicates count as hits.
	if st.CacheMisses != distinct {
		t.Errorf("misses = %d, want %d (one per distinct instance)", st.CacheMisses, distinct)
	}
	if st.Evictions != 0 || st.Errors != 0 {
		t.Errorf("stress run evicted %d / errored %d, want 0/0", st.Evictions, st.Errors)
	}
	var sum ShardStats
	for _, ss := range st.Shards {
		sum.Requests += ss.Requests
		sum.CacheHits += ss.CacheHits
		sum.CacheMisses += ss.CacheMisses
		sum.Entries += ss.Entries
	}
	if sum.Requests != st.Requests || sum.CacheHits != st.CacheHits ||
		sum.CacheMisses != st.CacheMisses || sum.Entries != st.Entries {
		t.Errorf("shard sums %+v disagree with aggregates %+v", sum, st)
	}

	// Singleflight-leak check (white box): every cached entry must be
	// finalized (done closed, result present), the map and LRU list must
	// agree, and the entry must live on the shard its key hashes to.
	entries := 0
	for _, sh := range eng.shards {
		sh.mu.Lock()
		if len(sh.cache) != sh.order.Len() {
			t.Errorf("shard %d: map has %d entries, LRU list %d", sh.id, len(sh.cache), sh.order.Len())
		}
		for key, el := range sh.cache {
			ent := el.Value.(*entry)
			select {
			case <-ent.done:
			default:
				t.Errorf("shard %d: entry still in flight after all callers returned", sh.id)
			}
			if ent.res == nil || ent.err != nil {
				t.Errorf("shard %d: finalized entry has res=%v err=%v", sh.id, ent.res, ent.err)
			}
			if eng.shardFor(key) != sh {
				t.Errorf("shard %d holds an entry routed to shard %d", sh.id, eng.shardFor(key).id)
			}
			entries++
		}
		sh.mu.Unlock()
	}
	if entries != distinct {
		t.Errorf("memo holds %d entries, want %d", entries, distinct)
	}
}

// TestEngineSharedKernelCountsEachSolveOnce: an injected kernel is
// adopted by every shard, and its solves are reported once engine-wide,
// never per shard.
func TestEngineSharedKernelCountsEachSolveOnce(t *testing.T) {
	kern := core.NewKernel()
	eng := New(Options{Workers: 2, CacheSize: -1, Shards: 4, Kernel: kern})
	defer eng.Close()
	if eng.Kernel() != kern {
		t.Fatal("injected kernel not adopted by the sharded engine")
	}
	reqs := testRequests(t, 8)
	for _, resp := range eng.PlanMany(context.Background(), reqs) {
		if resp.Err != nil {
			t.Fatal(resp.Err)
		}
	}
	st := eng.Stats()
	if st.Kernel.Solves != 8 {
		t.Errorf("shared kernel counted %d solves across shards, want 8 (no double counting)", st.Kernel.Solves)
	}
	for _, ss := range st.Shards {
		if ss.Kernel.Solves != 0 {
			t.Errorf("shard %d reports kernel stats despite a shared kernel", ss.Shard)
		}
	}
}

// TestRunStealsAcrossShards: Run must not pre-assign tasks to shards.
// With 2 shards of one worker each, task 0 parks its worker until the
// final task has run; if tasks were dealt round-robin with a blocking
// submit loop, the final task would never be submitted and Run would
// deadlock. The shared-queue feeders let the free shard absorb all
// remaining tasks.
func TestRunStealsAcrossShards(t *testing.T) {
	eng := New(Options{Workers: 2, Shards: 2})
	defer eng.Close()
	release := make(chan struct{})
	const n = 12
	var ran atomic.Int32
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	err := eng.Run(ctx, n, func(i int) error {
		if i == 0 {
			<-release // parks one shard's only worker
			return nil
		}
		if ran.Add(1) == n-1 {
			close(release) // the last other task frees task 0
		}
		return nil
	})
	if err != nil {
		t.Fatalf("Run: %v (a round-robin Run deadlocks here until the ctx timeout)", err)
	}
	if got := ran.Load(); got != n-1 {
		t.Errorf("ran %d of %d non-blocking tasks", got, n-1)
	}
}

// TestDefaultShardsRespectWorkersBudget: the default shard count must
// not exceed Workers — every shard keeps a worker, so more shards than
// Workers would silently raise the concurrency past the configured
// budget. Explicit Shards deliberately overrides the budget.
func TestDefaultShardsRespectWorkersBudget(t *testing.T) {
	eng := New(Options{Workers: 2})
	defer eng.Close()
	if got := len(eng.shards); got > 2 {
		t.Errorf("Workers: 2 built %d shards (at least one worker each) — budget exceeded", got)
	}
	expl := New(Options{Workers: 2, Shards: 8})
	defer expl.Close()
	if got := len(expl.shards); got != 8 {
		t.Errorf("explicit Shards: 8 built %d shards", got)
	}
}
