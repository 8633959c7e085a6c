package engine

import (
	"context"
	"errors"
	"fmt"
	"math"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"chainckpt/internal/core"
	"chainckpt/internal/obs"
	"chainckpt/internal/platform"
	"chainckpt/internal/workload"
)

func testRequests(t testing.TB, count int) []Request {
	t.Helper()
	var reqs []Request
	plats := platform.All()
	for i := 0; i < count; i++ {
		n := 3 + i%12
		c, err := workload.Uniform(n, 1000+50*float64(n))
		if err != nil {
			t.Fatal(err)
		}
		reqs = append(reqs, Request{
			Algorithm: core.Algorithms()[i%3],
			Chain:     c,
			Platform:  plats[i%len(plats)],
			Tag:       fmt.Sprintf("req-%d", i),
		})
	}
	return reqs
}

func TestPlanManyMatchesSequentialPlan(t *testing.T) {
	eng := New(Options{Workers: 8})
	defer eng.Close()
	reqs := testRequests(t, 24)

	resps := eng.PlanMany(context.Background(), reqs)
	if len(resps) != len(reqs) {
		t.Fatalf("responses: %d, want %d", len(resps), len(reqs))
	}
	for i, resp := range resps {
		if resp.Err != nil {
			t.Fatalf("request %d: %v", i, resp.Err)
		}
		if resp.Index != i || resp.Tag != reqs[i].Tag {
			t.Errorf("response %d misrouted: index %d tag %q", i, resp.Index, resp.Tag)
		}
		want, err := core.Plan(reqs[i].Algorithm, reqs[i].Chain, reqs[i].Platform)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(resp.Result.ExpectedMakespan-want.ExpectedMakespan) > 1e-12*want.ExpectedMakespan {
			t.Errorf("request %d: engine %.9f vs sequential %.9f",
				i, resp.Result.ExpectedMakespan, want.ExpectedMakespan)
		}
		if !resp.Result.Schedule.Equal(want.Schedule) {
			t.Errorf("request %d: schedule mismatch", i)
		}
	}
}

func TestCacheHitMissAccounting(t *testing.T) {
	eng := New(Options{Workers: 2, CacheSize: 64})
	defer eng.Close()
	reqs := testRequests(t, 6)
	ctx := context.Background()

	for _, req := range reqs {
		if _, err := eng.Plan(ctx, req); err != nil {
			t.Fatal(err)
		}
	}
	st := eng.Stats()
	if st.CacheMisses != 6 || st.CacheHits != 0 || st.Entries != 6 {
		t.Fatalf("after distinct requests: %+v", st)
	}

	// Same instances again: all hits, including ones that differ only in
	// labels the fingerprint canonicalizes away.
	for _, req := range reqs {
		req.Tag = "relabeled"
		res, err := eng.Plan(ctx, req)
		if err != nil {
			t.Fatal(err)
		}
		if res == nil || res.Schedule == nil {
			t.Fatal("cached plan is empty")
		}
	}
	st = eng.Stats()
	if st.CacheMisses != 6 || st.CacheHits != 6 {
		t.Fatalf("after repeats: %+v", st)
	}
	if st.Requests != 12 || st.Errors != 0 {
		t.Fatalf("counters: %+v", st)
	}
}

func TestCacheReturnsIndependentCopies(t *testing.T) {
	eng := New(Options{Workers: 2})
	defer eng.Close()
	req := testRequests(t, 1)[0]
	ctx := context.Background()

	first, err := eng.Plan(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	// Corrupting the caller's copy must not poison the memo.
	first.Schedule.Set(1, 0)
	first.ExpectedMakespan = -1

	second, err := eng.Plan(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	want, err := core.Plan(req.Algorithm, req.Chain, req.Platform)
	if err != nil {
		t.Fatal(err)
	}
	if !second.Schedule.Equal(want.Schedule) || second.ExpectedMakespan != want.ExpectedMakespan {
		t.Error("cached result was corrupted by a caller mutation")
	}
}

func TestLRUEviction(t *testing.T) {
	eng := New(Options{Workers: 2, CacheSize: 4})
	defer eng.Close()
	reqs := testRequests(t, 8)
	ctx := context.Background()
	for _, req := range reqs {
		if _, err := eng.Plan(ctx, req); err != nil {
			t.Fatal(err)
		}
	}
	st := eng.Stats()
	if st.Entries != 4 || st.Evictions != 4 {
		t.Fatalf("eviction accounting: %+v", st)
	}
	// The oldest entry was evicted, so replanning it is a miss.
	if _, err := eng.Plan(ctx, reqs[0]); err != nil {
		t.Fatal(err)
	}
	if st = eng.Stats(); st.CacheMisses != 9 {
		t.Fatalf("evicted entry should miss: %+v", st)
	}
}

func TestDeterministicUnderConcurrency(t *testing.T) {
	// Many goroutines planning overlapping instances against one engine:
	// every response must equal the serial answer regardless of
	// interleaving (run with -race).
	eng := New(Options{Workers: 4, CacheSize: 8})
	defer eng.Close()
	reqs := testRequests(t, 12)
	want := make([]*core.Result, len(reqs))
	for i, req := range reqs {
		res, err := core.Plan(req.Algorithm, req.Chain, req.Platform)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = res
	}

	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for round := 0; round < 3; round++ {
				resps := eng.PlanMany(context.Background(), reqs)
				for i, resp := range resps {
					if resp.Err != nil {
						t.Errorf("goroutine %d round %d req %d: %v", g, round, i, resp.Err)
						return
					}
					if resp.Result.ExpectedMakespan != want[i].ExpectedMakespan ||
						!resp.Result.Schedule.Equal(want[i].Schedule) {
						t.Errorf("goroutine %d round %d req %d: nondeterministic result", g, round, i)
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
}

func TestStreamDeliversAllResponses(t *testing.T) {
	eng := New(Options{Workers: 4})
	defer eng.Close()
	reqs := testRequests(t, 10)
	seen := make(map[int]bool)
	for resp := range eng.Stream(context.Background(), reqs) {
		if resp.Err != nil {
			t.Fatalf("request %d: %v", resp.Index, resp.Err)
		}
		if seen[resp.Index] {
			t.Fatalf("request %d delivered twice", resp.Index)
		}
		seen[resp.Index] = true
	}
	if len(seen) != len(reqs) {
		t.Fatalf("delivered %d of %d responses", len(seen), len(reqs))
	}
}

func TestErrorsAndInvalidRequests(t *testing.T) {
	eng := New(Options{Workers: 2})
	defer eng.Close()
	ctx := context.Background()

	if _, err := eng.Plan(ctx, Request{Algorithm: core.AlgADMV}); err == nil {
		t.Error("nil chain should fail")
	}
	req := testRequests(t, 1)[0]
	req.Algorithm = "bogus"
	if _, err := eng.Plan(ctx, req); err == nil {
		t.Error("unknown algorithm should fail")
	}
	// A constraints table sized for another chain must come back as an
	// error, not a panic in the fingerprint (it is not fingerprintable).
	small, err := core.NewConstraints(2)
	if err != nil {
		t.Fatal(err)
	}
	big := testRequests(t, 4)[3] // n >= 3
	big.Opts.Constraints = small
	if _, err := eng.Plan(ctx, big); err == nil {
		t.Error("mismatched constraints should fail")
	}
	if st := eng.Stats(); st.Errors != 3 {
		t.Errorf("error accounting: %+v", st)
	}
	// Failed solves must not linger in the memo (they would let invalid
	// traffic evict valid plans).
	if st := eng.Stats(); st.Entries != 0 {
		t.Errorf("error entries cached: %+v", st)
	}
}

func TestContextCancellation(t *testing.T) {
	eng := New(Options{Workers: 1})
	defer eng.Close()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	// A pre-cancelled context must not hang even when the pool is busy.
	resps := eng.PlanMany(ctx, testRequests(t, 4))
	for _, resp := range resps {
		if resp.Err == nil {
			continue // the job may have finished before the cancel was seen
		}
		if !errors.Is(resp.Err, context.Canceled) {
			t.Errorf("unexpected error: %v", resp.Err)
		}
	}
}

func TestCloseRejectsFurtherWork(t *testing.T) {
	eng := New(Options{Workers: 2})
	req := testRequests(t, 1)[0]
	if _, err := eng.Plan(context.Background(), req); err != nil {
		t.Fatal(err)
	}
	eng.Close()
	eng.Close() // idempotent
	// Even a request the memo could serve must see ErrClosed.
	if _, err := eng.Plan(context.Background(), req); !errors.Is(err, ErrClosed) {
		t.Errorf("cached plan after close: %v, want ErrClosed", err)
	}
	req2 := testRequests(t, 2)[1]
	if _, err := eng.Plan(context.Background(), req2); !errors.Is(err, ErrClosed) {
		t.Errorf("plan after close: %v, want ErrClosed", err)
	}
	if err := eng.Run(context.Background(), 1, func(int) error { return nil }); !errors.Is(err, ErrClosed) {
		t.Errorf("run after close: %v, want ErrClosed", err)
	}
}

func TestRunFanOut(t *testing.T) {
	eng := New(Options{Workers: 4})
	defer eng.Close()
	hits := make([]int, 100)
	err := eng.Run(context.Background(), len(hits), func(i int) error {
		hits[i]++
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, h := range hits {
		if h != 1 {
			t.Fatalf("task %d ran %d times", i, h)
		}
	}
	boom := errors.New("boom")
	err = eng.Run(context.Background(), 10, func(i int) error {
		if i == 7 {
			return boom
		}
		return nil
	})
	if !errors.Is(err, boom) {
		t.Errorf("run error: %v, want boom", err)
	}
}

func TestFingerprintCanonicalization(t *testing.T) {
	reqs := testRequests(t, 2)
	a, err := Fingerprint(reqs[0])
	if err != nil {
		t.Fatal(err)
	}
	b, err := Fingerprint(reqs[1])
	if err != nil {
		t.Fatal(err)
	}
	if a == b {
		t.Error("distinct instances share a fingerprint")
	}
	relabeled := reqs[0]
	relabeled.Tag = "other"
	relabeled.Opts.SolveWorkers = 7 // tuning knobs must not split the memo
	c, err := Fingerprint(relabeled)
	if err != nil {
		t.Fatal(err)
	}
	if a != c {
		t.Error("labels or tuning knobs changed the fingerprint")
	}
	budget := reqs[0]
	budget.Opts.MaxDiskCheckpoints = 2
	d, err := Fingerprint(budget)
	if err != nil {
		t.Fatal(err)
	}
	if a == d {
		t.Error("a disk budget must change the fingerprint")
	}
	if _, err := Fingerprint(Request{}); err == nil {
		t.Error("empty request should not fingerprint")
	}
}

func TestCacheDisabled(t *testing.T) {
	eng := New(Options{Workers: 2, CacheSize: -1})
	defer eng.Close()
	req := testRequests(t, 1)[0]
	ctx := context.Background()
	for i := 0; i < 3; i++ {
		if _, err := eng.Plan(ctx, req); err != nil {
			t.Fatal(err)
		}
	}
	st := eng.Stats()
	if st.CacheHits != 0 || st.CacheMisses != 3 || st.Entries != 0 {
		t.Fatalf("disabled cache stats: %+v", st)
	}
}

func TestStatsPerAlgorithmCountersAndHitRatio(t *testing.T) {
	eng := New(Options{Workers: 2, CacheSize: 64})
	defer eng.Close()
	ctx := context.Background()
	c, err := workload.Uniform(6, 6000)
	if err != nil {
		t.Fatal(err)
	}
	p := platform.Hera()
	plan := func(alg core.Algorithm) {
		t.Helper()
		if _, err := eng.Plan(ctx, Request{Algorithm: alg, Chain: c, Platform: p}); err != nil {
			t.Fatal(err)
		}
	}
	plan(core.AlgADV)
	plan(core.AlgADV) // memo hit, still counted per algorithm
	plan(core.AlgADMVStar)
	plan(core.AlgADMV)

	st := eng.Stats()
	want := map[string]uint64{"ADV*": 2, "ADMV*": 1, "ADMV": 1}
	for alg, n := range want {
		if st.Algorithms[alg] != n {
			t.Errorf("Algorithms[%q] = %d, want %d (all: %v)", alg, st.Algorithms[alg], n, st.Algorithms)
		}
	}
	if st.CacheHits*4 != st.Requests {
		t.Errorf("hits %d of %d requests, want a quarter (stats %+v)", st.CacheHits, st.Requests, st)
	}
}

func TestStatsUnknownAlgorithmsLumpedAsOther(t *testing.T) {
	eng := New(Options{Workers: 1, CacheSize: 8})
	defer eng.Close()
	c, err := workload.Uniform(3, 300)
	if err != nil {
		t.Fatal(err)
	}
	for _, alg := range []string{"NOPE", "zzz", "NOPE"} {
		if _, err := eng.Plan(context.Background(), Request{
			Algorithm: core.Algorithm(alg), Chain: c, Platform: platform.Hera(),
		}); err == nil {
			t.Fatalf("algorithm %q should fail", alg)
		}
	}
	st := eng.Stats()
	if st.Algorithms["other"] != 3 || len(st.Algorithms) != 1 {
		t.Fatalf("Algorithms = %v, want {other: 3}", st.Algorithms)
	}
}

// TestStatsKernelPooling: the engine's workers solve through one shared
// kernel, so a batch of distinct requests must show arena recycling in
// Stats, and Stats must report the kernel Kernel returns.
func TestStatsKernelPooling(t *testing.T) {
	e := New(Options{Workers: 2, CacheSize: -1})
	defer e.Close()
	reqs := testRequests(t, 24)
	for _, r := range e.PlanMany(context.Background(), reqs) {
		if r.Err != nil {
			t.Fatal(r.Err)
		}
	}
	st := e.Stats()
	if st.Kernel.Solves != 24 {
		t.Errorf("kernel solves = %d, want 24 (cache disabled)", st.Kernel.Solves)
	}
	if ks := e.Kernel().Stats(); ks.Solves != st.Kernel.Solves || ks.ScratchReuses != st.Kernel.ScratchReuses {
		t.Errorf("Stats.Kernel %+v disagrees with Kernel().Stats() %+v", st.Kernel, ks)
	}
	if st.Kernel.ScratchReuses == 0 {
		t.Errorf("no arena reuse across 24 solves: %+v", st.Kernel)
	}
	if len(st.Kernel.Buckets) == 0 {
		t.Error("no kernel buckets reported")
	}
	var total uint64
	for _, b := range st.Kernel.Buckets {
		total += b.Reuses + b.Fresh
	}
	if total != st.Kernel.ScratchFresh+st.Kernel.ScratchReuses {
		t.Errorf("bucket totals %d disagree with counters %+v", total, st.Kernel)
	}
}

// TestShardedStressAccountingAndSingleflight is the race-mode stress
// property on the one memo: 32 goroutines hammer one engine with
// overlapping fingerprints, and afterwards (a) the memo-hit accounting
// is exact — every request is a hit or a miss, and each distinct
// instance missed exactly once — and (b) the singleflight table leaked
// nothing: every memo entry is finalized and the map and LRU list
// agree.
func TestShardedStressAccountingAndSingleflight(t *testing.T) {
	const (
		goroutines = 32
		rounds     = 20
		distinct   = 8
	)
	eng := New(Options{Workers: 4, CacheSize: 256})
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
	// Each distinct fingerprint enters the memo once and is never
	// evicted (capacity 256 >> 8 keys), so misses equal the distinct
	// instance count no matter how the 640 plans interleaved —
	// coalesced duplicates count as hits.
	if st.CacheMisses != distinct {
		t.Errorf("misses = %d, want %d (one per distinct instance)", st.CacheMisses, distinct)
	}
	if st.Evictions != 0 || st.Errors != 0 {
		t.Errorf("stress run evicted %d / errored %d, want 0/0", st.Evictions, st.Errors)
	}

	// Singleflight-leak check (white box): every cached entry must be
	// finalized (done closed, result present), and the map and LRU list
	// must agree.
	eng.mu.Lock()
	defer eng.mu.Unlock()
	if len(eng.cache) != eng.order.Len() || len(eng.cache) != distinct {
		t.Errorf("memo map has %d entries, LRU list %d, want %d", len(eng.cache), eng.order.Len(), distinct)
	}
	for _, el := range eng.cache {
		ent := el.Value.(*entry)
		select {
		case <-ent.done:
		default:
			t.Error("entry still in flight after all callers returned")
		}
		if ent.res == nil || ent.err != nil {
			t.Errorf("finalized entry has res=%v err=%v", ent.res, ent.err)
		}
	}
}

// TestPlanManyNotBlockedByBusyWorker: any free worker takes the next
// miss. With one of two workers held by a blocking pool job, a batch of
// 8 distinct misses must finish on the other worker; routing misses to
// per-worker queues would leave some waiting behind the held worker.
func TestPlanManyNotBlockedByBusyWorker(t *testing.T) {
	eng := New(Options{Workers: 2})
	defer eng.Close()
	release := make(chan struct{})
	defer close(release)
	// submit returns once a worker has taken the job, so that worker is
	// held from here until release closes.
	if err := eng.submit(context.Background(), func() { <-release }); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	for i, resp := range eng.PlanMany(ctx, testRequests(t, 8)) {
		if resp.Err != nil {
			t.Fatalf("request %d: %v (stuck behind the held worker)", i, resp.Err)
		}
		if resp.Cached {
			t.Errorf("request %d was served from the memo; want 8 distinct misses", i)
		}
	}
}

// TestRunPumpsDrainSharedQueue: Run must not pre-assign tasks to
// workers. With two workers, task 0 parks its worker until the final
// task has run; if tasks were dealt round-robin with a blocking submit
// loop, the final task would never be submitted and Run would deadlock.
// The shared task queue lets the free worker's pump absorb every
// remaining task.
func TestRunPumpsDrainSharedQueue(t *testing.T) {
	eng := New(Options{Workers: 2})
	defer eng.Close()
	release := make(chan struct{})
	const n = 12
	var ran atomic.Int32
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	err := eng.Run(ctx, n, func(i int) error {
		if i == 0 {
			<-release // parks one worker
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

// TestMetricsCollectorsReadBoundEngine: NewMetrics registers the engine
// and kernel counter families, which render nothing until New binds an
// engine, and then read its counters at scrape time — safely while
// planners run (the race detector covers the concurrent reads).
func TestMetricsCollectorsReadBoundEngine(t *testing.T) {
	reg := obs.NewRegistry()
	m := NewMetrics(reg)
	scrape := func() string {
		var sb strings.Builder
		if err := reg.WritePrometheus(&sb); err != nil {
			t.Error(err)
		}
		return sb.String()
	}
	if out := scrape(); strings.Contains(out, "chainckpt_engine_requests_total") {
		t.Fatalf("counter families render before an engine is bound:\n%s", out)
	}

	eng := New(Options{Workers: 2, Metrics: m})
	defer eng.Close()
	reqs := testRequests(t, 6)
	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-done:
				return
			default:
				scrape()
			}
		}
	}()
	for _, resp := range eng.PlanMany(context.Background(), reqs) {
		if resp.Err != nil {
			t.Fatal(resp.Err)
		}
	}
	close(done)
	wg.Wait()

	out := scrape()
	if probs := obs.Lint(strings.NewReader(out)); len(probs) > 0 {
		t.Fatalf("exposition fails lint: %v", probs)
	}
	for _, want := range []string{
		"chainckpt_engine_requests_total 6",
		"chainckpt_engine_cache_misses_total 6",
		"chainckpt_engine_cache_entries 6",
		`chainckpt_engine_plans_total{algorithm="ADMV"} 2`,
		"chainckpt_kernel_solves_total 6",
		"chainckpt_kernel_parallel_solves_total 0",
	} {
		if !strings.Contains(out, want+"\n") {
			t.Errorf("scrape missing %q:\n%s", want, out)
		}
	}
}
