package core

import (
	"fmt"
	"math/rand"
	"runtime"
	"testing"
	"time"

	"chainckpt/internal/chain"
	"chainckpt/internal/platform"
	"chainckpt/internal/schedule"
)

// hotPlatform returns Hera with rates scaled up so small chains place
// interior mechanisms.
func hotPlatform() platform.Platform {
	p := platform.Hera()
	p.LambdaF *= 50
	p.LambdaS *= 50
	return p
}

// mustEqualResults fails unless the two results are bit-identical:
// same expectation, same schedule actions.
func mustEqualResults(t *testing.T, label string, a, b *Result) {
	t.Helper()
	if a.ExpectedMakespan != b.ExpectedMakespan {
		t.Fatalf("%s: expected makespan %v vs %v", label, a.ExpectedMakespan, b.ExpectedMakespan)
	}
	if a.Schedule.String() != b.Schedule.String() {
		t.Fatalf("%s: schedule %s vs %s", label, a.Schedule, b.Schedule)
	}
}

// TestKernelPooledSolveMatchesFresh interleaves many instances through
// one kernel — so every solve after the first reuses a dirty arena — and
// checks each against a solve on a brand-new kernel (all-fresh arenas).
func TestKernelPooledSolveMatchesFresh(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	shared := NewKernel()
	p := hotPlatform()
	for trial := 0; trial < 8; trial++ {
		n := 3 + rng.Intn(12)
		weights := make([]float64, n)
		for i := range weights {
			weights[i] = 100 + 900*rng.Float64()
		}
		c, err := chain.FromWeights(weights...)
		if err != nil {
			t.Fatal(err)
		}
		for _, alg := range Algorithms() {
			pooled, err := shared.Plan(alg, c, p)
			if err != nil {
				t.Fatalf("trial %d %s pooled: %v", trial, alg, err)
			}
			fresh, err := NewKernel().Plan(alg, c, p)
			if err != nil {
				t.Fatalf("trial %d %s fresh: %v", trial, alg, err)
			}
			mustEqualResults(t, fmt.Sprintf("trial %d %s", trial, alg), pooled, fresh)
		}
	}
	st := shared.Stats()
	if st.Solves == 0 || st.ScratchReuses == 0 {
		t.Fatalf("shared kernel never reused an arena: %+v", st)
	}
}

// TestKernelReplanSuffixMatchesStandalone checks the incremental
// suffix re-solve against the explicit route: build the suffix as its
// own chain, slice the cost and constraint tables, solve from scratch.
// Both must be bit-identical for every split point.
func TestKernelReplanSuffixMatchesStandalone(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	k := NewKernel()
	p := hotPlatform()
	const n = 9
	weights := make([]float64, n)
	for i := range weights {
		weights[i] = 200 + 800*rng.Float64()
	}
	c, err := chain.FromWeights(weights...)
	if err != nil {
		t.Fatal(err)
	}
	sizes := make([]float64, n)
	for i := range sizes {
		sizes[i] = 0.5 + rng.Float64()
	}
	costs, err := platform.ScaledCosts(p, sizes)
	if err != nil {
		t.Fatal(err)
	}
	cons, err := NewConstraints(n)
	if err != nil {
		t.Fatal(err)
	}
	cons.Forbid(2, schedule.Disk)
	cons.Forbid(4, schedule.Memory)
	cons.Forbid(6, schedule.Partial)

	// Re-plan under drifted rates, as the supervisor would.
	updated := p
	updated.LambdaF *= 3
	updated.LambdaS /= 2

	for _, alg := range Algorithms() {
		for from := 0; from < n; from++ {
			opts := Options{Costs: costs, Constraints: cons, MaxDiskCheckpoints: 3}
			if opts.MaxDiskCheckpoints > n-from {
				opts.MaxDiskCheckpoints = n - from
			}
			inc, err := k.ReplanSuffix(alg, c, updated, from, opts)
			if err != nil {
				t.Fatalf("%s from=%d incremental: %v", alg, from, err)
			}

			suffix, err := chain.FromWeights(weights[from:]...)
			if err != nil {
				t.Fatal(err)
			}
			sOpts := Options{MaxDiskCheckpoints: opts.MaxDiskCheckpoints}
			if from == 0 {
				sOpts.Costs, sOpts.Constraints = costs, cons
			} else {
				if sOpts.Costs, err = costs.Suffix(from); err != nil {
					t.Fatal(err)
				}
				if sOpts.Constraints, err = cons.Suffix(from); err != nil {
					t.Fatal(err)
				}
			}
			standalone, err := NewKernel().PlanOpts(alg, suffix, updated, sOpts)
			if err != nil {
				t.Fatalf("%s from=%d standalone: %v", alg, from, err)
			}
			mustEqualResults(t, fmt.Sprintf("%s from=%d", alg, from), inc, standalone)
			if inc.Schedule.Len() != n-from {
				t.Fatalf("%s from=%d: suffix schedule has %d boundaries, want %d",
					alg, from, inc.Schedule.Len(), n-from)
			}
		}
	}
}

// TestKernelWorkersIdentical checks that the solver's internal
// parallelism never changes the pooled result.
func TestKernelWorkersIdentical(t *testing.T) {
	k := NewKernel()
	p := hotPlatform()
	c, err := chain.FromWeights(300, 700, 150, 900, 420, 610, 80, 530)
	if err != nil {
		t.Fatal(err)
	}
	for _, alg := range Algorithms() {
		serial, err := k.PlanOpts(alg, c, p, Options{SolveWorkers: 1})
		if err != nil {
			t.Fatal(err)
		}
		parallel, err := k.PlanOpts(alg, c, p, Options{SolveWorkers: 4})
		if err != nil {
			t.Fatal(err)
		}
		mustEqualResults(t, string(alg), serial, parallel)
	}
}

// TestKernelTeamLeavesNoGoroutines checks that a parallel solve starts
// its participants per phase and waits for them: once PlanOpts returns,
// the goroutine count must settle back to where it was before the solve
// (briefly polled, since a participant exits just after it signals
// done), rather than leaving helpers parked on the kernel.
func TestKernelTeamLeavesNoGoroutines(t *testing.T) {
	k := NewKernel()
	p := hotPlatform()
	c := randChain(t, rand.New(rand.NewSource(7)), 64)
	before := runtime.NumGoroutine()
	if _, err := k.PlanOpts(AlgADMVStar, c, p, Options{SolveWorkers: 4}); err != nil {
		t.Fatal(err)
	}
	if st := k.Stats().Parallel; st.Solves != 1 || st.Tiles == 0 {
		t.Fatalf("solve never engaged the team: %+v", st)
	}
	after := runtime.NumGoroutine()
	for deadline := time.Now().Add(2 * time.Second); after > before && time.Now().Before(deadline); {
		time.Sleep(time.Millisecond)
		after = runtime.NumGoroutine()
	}
	if after > before {
		t.Fatalf("%d goroutines outlived the solve (%d before, %d after)", after-before, before, after)
	}
}

// TestKernelStatsBuckets checks the pool accounting: first solve of a
// size class allocates, repeats recycle, distinct classes get distinct
// buckets.
func TestKernelStatsBuckets(t *testing.T) {
	k := NewKernel()
	p := hotPlatform()
	small, _ := chain.FromWeights(100, 200, 300)
	large, err := chain.FromWeights(func() []float64 {
		w := make([]float64, 40)
		for i := range w {
			w[i] = 100
		}
		return w
	}()...)
	if err != nil {
		t.Fatal(err)
	}
	// Enough rounds that at least one recycle survives sync.Pool's
	// race-mode behavior (Put randomly drops ~25% of items under -race).
	const rounds = 8
	for i := 0; i < rounds; i++ {
		if _, err := k.Plan(AlgADMVStar, small, p); err != nil {
			t.Fatal(err)
		}
		if _, err := k.Plan(AlgADMVStar, large, p); err != nil {
			t.Fatal(err)
		}
	}
	st := k.Stats()
	if st.Solves != 2*rounds {
		t.Fatalf("solves = %d, want %d", st.Solves, 2*rounds)
	}
	if len(st.Buckets) != 2 {
		t.Fatalf("buckets = %+v, want two size classes", st.Buckets)
	}
	// sync.Pool may in principle drop an arena under GC pressure, so the
	// assertions are one-sided: every class must have allocated at least
	// once and recycled at least once, and every acquire is accounted.
	for _, b := range st.Buckets {
		if b.Fresh < 1 || b.Reuses < 1 {
			t.Errorf("bucket cap %d: fresh %d reuses %d, want >=1 each", b.Cap, b.Fresh, b.Reuses)
		}
	}
	if st.ScratchFresh+st.ScratchReuses != 2*rounds {
		t.Errorf("fresh %d + reuses %d != %d solves", st.ScratchFresh, st.ScratchReuses, 2*rounds)
	}
	// The 3-task chain lands in the cap-8 bucket, the 40-task one in
	// cap-64.
	if st.Buckets[0].Cap != 8 || st.Buckets[1].Cap != 64 {
		t.Errorf("bucket caps %d, %d, want 8, 64", st.Buckets[0].Cap, st.Buckets[1].Cap)
	}
}

// TestKernelRejectsBadWindows covers the argument validation of the
// incremental API.
func TestKernelRejectsBadWindows(t *testing.T) {
	k := NewKernel()
	p := hotPlatform()
	c, _ := chain.FromWeights(100, 200, 300)
	if _, err := k.ReplanSuffix(AlgADMV, c, p, -1, Options{}); err == nil {
		t.Error("negative suffix start accepted")
	}
	if _, err := k.ReplanSuffix(AlgADMV, c, p, 3, Options{}); err == nil {
		t.Error("suffix start at chain end accepted")
	}
	if _, err := k.ReplanSuffix("bogus", c, p, 1, Options{}); err == nil {
		t.Error("unknown algorithm accepted")
	}
	if _, err := k.ReplanSuffix(AlgADMV, nil, p, 0, Options{}); err == nil {
		t.Error("nil chain accepted")
	}
}
