package core

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"chainckpt/internal/chain"
	"chainckpt/internal/platform"
	"chainckpt/internal/schedule"
)

// Cross-validation of the parallel in-kernel solve: for randomized
// instances across every algorithm, a solve tiled over a worker team
// must be byte-identical to the serial solve — same float bits in the
// expectation, same schedule. The team only partitions index space
// (memLevel calls across disk positions, k-wavefronts of the disk
// level, rows of the segment tables); every slot is written by exactly
// one tile and every min-reduction scans ascending inside its tile, so
// arrival order can never leak into the result.

// mustMatchBits is the strict form of mustEqualResults: the expected
// makespan is compared on raw IEEE-754 bits, not ==, so even a
// sign-of-zero or NaN-payload divergence would fail.
func mustMatchBits(t *testing.T, label string, serial, other *Result) {
	t.Helper()
	sb, ob := math.Float64bits(serial.ExpectedMakespan), math.Float64bits(other.ExpectedMakespan)
	if sb != ob {
		t.Fatalf("%s: makespan bits %016x (%v) vs %016x (%v)",
			label, sb, serial.ExpectedMakespan, ob, other.ExpectedMakespan)
	}
	if serial.Schedule.String() != other.Schedule.String() {
		t.Fatalf("%s: schedule %s vs %s", label, serial.Schedule, other.Schedule)
	}
}

// randChain builds an n-task chain with weights in [100, 1000).
func randChain(t *testing.T, rng *rand.Rand, n int) *chain.Chain {
	t.Helper()
	weights := make([]float64, n)
	for i := range weights {
		weights[i] = 100 + 900*rng.Float64()
	}
	c, err := chain.FromWeights(weights...)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// randOptions draws a random planning configuration: scattered
// placement constraints (final boundary always left intact), sometimes
// per-boundary costs, sometimes a disk-checkpoint budget.
func randOptions(t *testing.T, rng *rand.Rand, p platform.Platform, n int) Options {
	t.Helper()
	var opts Options
	if rng.Intn(2) == 0 {
		cons, err := NewConstraints(n)
		if err != nil {
			t.Fatal(err)
		}
		mechanisms := []schedule.Action{
			schedule.Disk, schedule.Memory, schedule.Guaranteed, schedule.Partial,
		}
		for i := 1; i < n; i++ {
			if rng.Intn(4) == 0 {
				cons.Forbid(i, mechanisms[rng.Intn(len(mechanisms))])
			}
		}
		opts.Constraints = cons
	}
	if rng.Intn(2) == 0 {
		sizes := make([]float64, n)
		for i := range sizes {
			sizes[i] = 0.5 + rng.Float64()
		}
		costs, err := platform.ScaledCosts(p, sizes)
		if err != nil {
			t.Fatal(err)
		}
		opts.Costs = costs
	}
	if rng.Intn(3) == 0 {
		opts.MaxDiskCheckpoints = 2 + rng.Intn(4)
	}
	return opts
}

// crossValWidths are the team widths validated against the serial path;
// 0 exercises the auto crossover mode.
var crossValWidths = []int{2, 4, 8, 0}

// TestCrossValParallelMatchesSerial runs the randomized suite: every
// algorithm at sizes up to its complexity budget, random constraints,
// costs and budgets, each solved serially once and then re-solved
// through worker teams of every width on the same (dirty-arena) kernel.
func TestCrossValParallelMatchesSerial(t *testing.T) {
	cases := []struct {
		alg    Algorithm
		ns     []int
		trials int
	}{
		// ADV* is O(n^3): medium chains stay cheap enough to randomize.
		{AlgADV, []int{17, 64, 257}, 2},
		// ADMV* pair-evaluates partial positions (~n^4/24).
		{AlgADMVStar, []int{23, 81}, 2},
		// ADMV enumerates partial subsets; keep n small.
		{AlgADMV, []int{13, 29}, 2},
	}
	if !raceEnabled {
		cases[0].ns = append(cases[0].ns, 400)
		cases[1].ns = append(cases[1].ns, 120)
		cases[2].ns = append(cases[2].ns, 40)
	}
	rng := rand.New(rand.NewSource(20160523))
	k := NewKernel()
	p := hotPlatform()
	for _, tc := range cases {
		for _, n := range tc.ns {
			for trial := 0; trial < tc.trials; trial++ {
				c := randChain(t, rng, n)
				opts := randOptions(t, rng, p, n)
				opts.SolveWorkers = 1
				serial, err := k.PlanOpts(tc.alg, c, p, opts)
				if err != nil {
					t.Fatalf("%s n=%d trial=%d serial: %v", tc.alg, n, trial, err)
				}
				for _, w := range crossValWidths {
					opts.SolveWorkers = w
					par, err := k.PlanOpts(tc.alg, c, p, opts)
					if err != nil {
						t.Fatalf("%s n=%d trial=%d w=%d: %v", tc.alg, n, trial, w, err)
					}
					mustMatchBits(t, fmt.Sprintf("%s n=%d trial=%d w=%d", tc.alg, n, trial, w), serial, par)
				}
			}
		}
	}
	st := k.Stats()
	if st.Parallel.Solves == 0 || st.Parallel.Tiles == 0 {
		t.Fatalf("suite never engaged a worker team: %+v", st.Parallel)
	}
}

// TestCrossValImbalance solves a deliberately imbalanced shape: an
// unconstrained ADV chain's memory levels shrink quadratically with d1,
// so one participant holding a wide level while the others race through
// the narrow tail is the common case. Byte-identity must hold however
// the shared cursor hands the tiles out, and the team must actually
// have run.
func TestCrossValImbalance(t *testing.T) {
	n := 600
	if raceEnabled {
		n = 300
	}
	rng := rand.New(rand.NewSource(42))
	k := NewKernel()
	p := hotPlatform()
	c := randChain(t, rng, n)
	opts := Options{MaxDiskCheckpoints: 8, SolveWorkers: 1}
	serial, err := k.PlanOpts(AlgADV, c, p, opts)
	if err != nil {
		t.Fatal(err)
	}
	for trial := 0; trial < 3; trial++ {
		for _, w := range []int{2, 4, 8} {
			opts.SolveWorkers = w
			par, err := k.PlanOpts(AlgADV, c, p, opts)
			if err != nil {
				t.Fatalf("w=%d: %v", w, err)
			}
			mustMatchBits(t, fmt.Sprintf("imbalance trial=%d w=%d", trial, w), serial, par)
		}
	}
	if st := k.Stats().Parallel; st.Solves == 0 || st.Tiles == 0 {
		t.Fatalf("imbalanced solves never engaged a worker team: %+v", st)
	}
}

// TestCrossValMegaChainSparseDisk is the mega-chain shape the team is
// built for: n=1000 with disk checkpoints only every 8th boundary and a
// tight disk budget, so the memory level between allowed positions —
// the tiled phase — carries the work. Run serially once, then through
// every width. Under -race the chain shrinks (still above the auto
// crossover) to keep the wall clock in budget.
func TestCrossValMegaChainSparseDisk(t *testing.T) {
	n := 1000
	if raceEnabled {
		n = 400
	}
	rng := rand.New(rand.NewSource(8))
	k := NewKernel()
	p := hotPlatform()
	c := randChain(t, rng, n)
	cons, err := NewConstraints(n)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < n; i++ {
		if i%8 != 0 {
			cons.Forbid(i, schedule.Disk)
		}
	}
	opts := Options{Constraints: cons, MaxDiskCheckpoints: 32, SolveWorkers: 1}
	serial, err := k.PlanOpts(AlgADV, c, p, opts)
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range crossValWidths {
		opts.SolveWorkers = w
		par, err := k.PlanOpts(AlgADV, c, p, opts)
		if err != nil {
			t.Fatalf("w=%d: %v", w, err)
		}
		mustMatchBits(t, fmt.Sprintf("mega-chain w=%d", w), serial, par)
	}
}

// TestCrossValReplanSuffixParallel covers the incremental entry point:
// suffix re-plans through a worker team must match their serial runs at
// every width, for random split points.
func TestCrossValReplanSuffixParallel(t *testing.T) {
	n := 120
	if raceEnabled {
		n = 60
	}
	rng := rand.New(rand.NewSource(11))
	k := NewKernel()
	p := hotPlatform()
	c := randChain(t, rng, n)
	opts := randOptions(t, rng, p, n)
	updated := p
	updated.LambdaF *= 3
	updated.LambdaS /= 2
	for trial := 0; trial < 4; trial++ {
		from := rng.Intn(n - 1)
		if opts.MaxDiskCheckpoints > n-from {
			opts.MaxDiskCheckpoints = n - from
		}
		opts.SolveWorkers = 1
		serial, err := k.ReplanSuffix(AlgADMVStar, c, updated, from, opts)
		if err != nil {
			t.Fatalf("from=%d serial: %v", from, err)
		}
		for _, w := range crossValWidths {
			opts.SolveWorkers = w
			par, err := k.ReplanSuffix(AlgADMVStar, c, updated, from, opts)
			if err != nil {
				t.Fatalf("from=%d w=%d: %v", from, w, err)
			}
			mustMatchBits(t, fmt.Sprintf("replan from=%d w=%d", from, w), serial, par)
		}
	}
}

// TestSolveWorkersValidation: negative widths are rejected, oversized
// widths are capped, auto mode below the crossover stays serial and is
// counted.
func TestSolveWorkersValidation(t *testing.T) {
	k := NewKernel()
	p := hotPlatform()
	c, err := chain.FromWeights(300, 700, 150)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := k.PlanOpts(AlgADV, c, p, Options{SolveWorkers: -1}); err == nil {
		t.Error("negative SolveWorkers accepted")
	}
	before := k.Stats().Parallel.CrossoverSkips
	if _, err := k.PlanOpts(AlgADV, c, p, Options{SolveWorkers: 0}); err != nil {
		t.Fatal(err)
	}
	// n=3 is far below the crossover: auto must decline and count it.
	if after := k.Stats().Parallel.CrossoverSkips; after != before+1 {
		t.Errorf("crossover skips %d -> %d, want one more", before, after)
	}
	// A team far wider than the machine is capped, not an error.
	if _, err := k.PlanOpts(AlgADV, c, p, Options{SolveWorkers: 10000}); err != nil {
		t.Errorf("oversized SolveWorkers rejected: %v", err)
	}
}
