package chainckpt

// The always-green cross-validation suite: on randomized small chains
// the dynamic program must match an exhaustive search over its own
// schedule space, and the four independent expectation routes — DP
// optimum, closed-form evaluator, Markov-renewal oracle, Monte-Carlo
// simulator — must agree on the chosen schedule. This is the test-suite
// form of the X1 validation experiment (in the spirit of Aupy et al.,
// "On the Combination of Silent Error Detection and Checkpointing").

import (
	"math"
	"math/rand"
	"testing"

	"chainckpt/internal/bruteforce"
	"chainckpt/internal/core"
)

// randomPlatform jitters Hera's parameters so the property is exercised
// away from the paper's exact constants: error rates scale by up to 8x
// either way (small chains need hotter rates for mechanisms to matter),
// costs by up to 2x, recall in [0.5, 0.95].
func randomPlatform(rng *rand.Rand) Platform {
	p := Hera()
	jitter := func(v float64, lo, hi float64) float64 {
		return v * math.Exp((lo+rng.Float64()*(hi-lo))*math.Ln2)
	}
	p.LambdaF = jitter(p.LambdaF*50, -3, 3)
	p.LambdaS = jitter(p.LambdaS*50, -3, 3)
	p.CD = jitter(p.CD, -1, 1)
	p.CM = jitter(p.CM, -1, 1)
	p.RD = p.CD
	p.RM = p.CM
	p.VStar = p.CM
	p.V = p.VStar / 100
	p.Recall = 0.5 + 0.45*rng.Float64()
	return p
}

func TestCrossValidationRandomSmallChains(t *testing.T) {
	rng := rand.New(rand.NewSource(20160516))
	const trials = 12
	for trial := 0; trial < trials; trial++ {
		n := 2 + rng.Intn(7) // n in [2, 8]
		c, err := RandomChain(rng, n, 2000+3000*rng.Float64())
		if err != nil {
			t.Fatal(err)
		}
		p := randomPlatform(rng)

		for _, alg := range []Algorithm{ADV, ADMVStar, ADMV} {
			res, err := Plan(alg, c, p)
			if err != nil {
				t.Fatalf("trial %d %s: %v", trial, alg, err)
			}

			// The DP optimum must equal the brute-force optimum over the
			// algorithm's admissible action set under the same closed
			// forms.
			bf, err := bruteforce.Optimal(alg, c, p, core.Evaluate)
			if err != nil {
				t.Fatalf("trial %d %s: %v", trial, alg, err)
			}
			if rel := math.Abs(res.ExpectedMakespan-bf.Value) / bf.Value; rel > 1e-9 {
				t.Errorf("trial %d %s (n=%d): DP %.9f vs brute force %.9f (rel %.2e over %d schedules)",
					trial, alg, n, res.ExpectedMakespan, bf.Value, rel, bf.Enumerated)
			}

			// The closed-form evaluator must reproduce the DP's own value
			// for the DP's own schedule.
			closed, err := Evaluate(c, p, res.Schedule)
			if err != nil {
				t.Fatalf("trial %d %s: %v", trial, alg, err)
			}
			if rel := math.Abs(res.ExpectedMakespan-closed) / closed; rel > 1e-9 {
				t.Errorf("trial %d %s: DP %.9f vs closed form %.9f", trial, alg, res.ExpectedMakespan, closed)
			}

			// The independent Markov-renewal oracle agrees exactly for the
			// two-level algorithms; ADMV carries the paper's Section III-B
			// accounting residual (see internal/bruteforce), so allow a
			// small relative tolerance there.
			oracle, err := ExactMakespan(c, p, res.Schedule)
			if err != nil {
				t.Fatalf("trial %d %s: %v", trial, alg, err)
			}
			tol := 1e-9
			if alg == ADMV {
				tol = 2e-2
			}
			if rel := math.Abs(closed-oracle) / oracle; rel > tol {
				t.Errorf("trial %d %s (n=%d): closed form %.9f vs oracle %.9f (rel %.2e)",
					trial, alg, n, closed, oracle, rel)
			}
		}
	}
}

func TestCrossValidationSimulatorAgrees(t *testing.T) {
	if testing.Short() {
		t.Skip("Monte-Carlo cross-validation skipped in -short mode")
	}
	rng := rand.New(rand.NewSource(77))
	for trial := 0; trial < 3; trial++ {
		n := 4 + rng.Intn(5) // n in [4, 8]
		c, err := RandomChain(rng, n, 4000)
		if err != nil {
			t.Fatal(err)
		}
		p := randomPlatform(rng)
		res, err := PlanADMV(c, p)
		if err != nil {
			t.Fatal(err)
		}
		oracle, err := ExactMakespan(c, p, res.Schedule)
		if err != nil {
			t.Fatal(err)
		}
		sres, err := Simulate(c, p, res.Schedule, SimOptions{
			Replications: 60000,
			Seed:         uint64(1000 + trial),
			Workers:      2, // fixed for cross-machine reproducibility
		})
		if err != nil {
			t.Fatal(err)
		}
		// Five standard errors: loose enough to be always-green, tight
		// enough that a model/simulator divergence cannot hide.
		if !sres.MeanWithin(oracle, 5) {
			t.Errorf("trial %d (n=%d): simulated %.2f±%.2f vs oracle %.2f (%.1f sigma)",
				trial, n, sres.Mean(), sres.HalfWidth95(), oracle,
				math.Abs(sres.Mean()-oracle)/sres.Makespan.StdErr())
		}
	}
}

func TestCrossValidationEngineMatchesPlan(t *testing.T) {
	// The engine facade must be a pure accelerator: batched plans equal
	// the sequential planner on every instance.
	rng := rand.New(rand.NewSource(9))
	eng := NewEngine(EngineOptions{Workers: 4})
	defer eng.Close()

	var reqs []PlanRequest
	for i := 0; i < 10; i++ {
		n := 2 + rng.Intn(7)
		c, err := RandomChain(rng, n, 3000)
		if err != nil {
			t.Fatal(err)
		}
		reqs = append(reqs, PlanRequest{
			Algorithm: []Algorithm{ADV, ADMVStar, ADMV}[i%3],
			Chain:     c,
			Platform:  randomPlatform(rng),
		})
	}
	for _, resp := range eng.PlanMany(t.Context(), reqs) {
		if resp.Err != nil {
			t.Fatalf("request %d: %v", resp.Index, resp.Err)
		}
		req := reqs[resp.Index]
		want, err := Plan(req.Algorithm, req.Chain, req.Platform)
		if err != nil {
			t.Fatal(err)
		}
		if resp.Result.ExpectedMakespan != want.ExpectedMakespan ||
			!resp.Result.Schedule.Equal(want.Schedule) {
			t.Errorf("request %d: engine and sequential planner disagree", resp.Index)
		}
	}
}

// TestCrossValidationKernelEquivalence is the pooled/incremental solver
// property: a kernel that recycles dirty scratch arenas, and its
// incremental suffix re-solves, must be byte-identical — same expected
// makespan bits, same schedule actions — to fresh full solves of the
// same instances, across randomized chains, platforms, per-boundary
// costs, placement constraints and suffix split points.
func TestCrossValidationKernelEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(20260730))
	shared := NewKernel() // deliberately reused so every solve after the first sees dirty arenas
	const trials = 10
	for trial := 0; trial < trials; trial++ {
		n := 2 + rng.Intn(9)
		c, err := RandomChain(rng, n, 2000+3000*rng.Float64())
		if err != nil {
			t.Fatal(err)
		}
		p := randomPlatform(rng)

		var opts PlanOptions
		if rng.Intn(2) == 0 {
			sizes := make([]float64, n)
			for i := range sizes {
				sizes[i] = 0.25 + 1.5*rng.Float64()
			}
			if opts.Costs, err = ScaledCosts(p, sizes); err != nil {
				t.Fatal(err)
			}
		}
		if rng.Intn(2) == 0 {
			cons, err := NewConstraints(n)
			if err != nil {
				t.Fatal(err)
			}
			for i := 1; i < n; i++ { // the final boundary must stay fully allowed
				switch rng.Intn(5) {
				case 0:
					cons.Forbid(i, Partial)
				case 1:
					cons.Forbid(i, Memory)
				case 2:
					cons.Forbid(i, Disk)
				case 3:
					cons.Forbid(i, Guaranteed)
				}
			}
			opts.Constraints = cons
		}

		for _, alg := range []Algorithm{ADV, ADMVStar, ADMV} {
			// Pooled full solve vs a fresh kernel's full solve.
			pooled, err := shared.PlanOpts(alg, c, p, opts)
			if err != nil {
				t.Fatalf("trial %d %s pooled: %v", trial, alg, err)
			}
			fresh, err := NewKernel().PlanOpts(alg, c, p, opts)
			if err != nil {
				t.Fatalf("trial %d %s fresh: %v", trial, alg, err)
			}
			if pooled.ExpectedMakespan != fresh.ExpectedMakespan || !pooled.Schedule.Equal(fresh.Schedule) {
				t.Errorf("trial %d %s: pooled solve differs from fresh solve (%.12g vs %.12g)",
					trial, alg, pooled.ExpectedMakespan, fresh.ExpectedMakespan)
			}

			// Incremental suffix re-solve under drifted rates vs planning
			// the suffix as a standalone chain with sliced tables.
			from := rng.Intn(n)
			m := n - from
			drifted := p
			drifted.LambdaF *= math.Exp((rng.Float64()*4 - 2) * math.Ln2)
			drifted.LambdaS *= math.Exp((rng.Float64()*4 - 2) * math.Ln2)
			sOpts := PlanOptions{MaxDiskCheckpoints: 1 + rng.Intn(m)}
			full := PlanOptions{Costs: opts.Costs, Constraints: opts.Constraints,
				MaxDiskCheckpoints: sOpts.MaxDiskCheckpoints}
			inc, err := shared.ReplanSuffix(alg, c, drifted, from, full)
			if err != nil {
				t.Fatalf("trial %d %s from=%d incremental: %v", trial, alg, from, err)
			}
			suffix, err := ChainFromWeights(c.Weights()[from:]...)
			if err != nil {
				t.Fatal(err)
			}
			if from == 0 {
				sOpts.Costs, sOpts.Constraints = opts.Costs, opts.Constraints
			} else {
				if opts.Costs != nil {
					if sOpts.Costs, err = opts.Costs.Suffix(from); err != nil {
						t.Fatal(err)
					}
				}
				if opts.Constraints != nil {
					if sOpts.Constraints, err = opts.Constraints.Suffix(from); err != nil {
						t.Fatal(err)
					}
				}
			}
			standalone, err := NewKernel().PlanOpts(alg, suffix, drifted, sOpts)
			if err != nil {
				t.Fatalf("trial %d %s from=%d standalone: %v", trial, alg, from, err)
			}
			if inc.ExpectedMakespan != standalone.ExpectedMakespan || !inc.Schedule.Equal(standalone.Schedule) {
				t.Errorf("trial %d %s from=%d: incremental re-solve differs from standalone suffix solve (%.12g vs %.12g)",
					trial, alg, from, inc.ExpectedMakespan, standalone.ExpectedMakespan)
			}
		}
	}
	if st := shared.Stats(); st.ScratchReuses == 0 {
		t.Errorf("property suite never exercised a dirty arena: %+v", st)
	}
}

// TestCrossValidationShardedEngineByteIdentical is the engine property:
// the pool, the pooled kernel arenas and the memo must be invisible in
// the results — every engine plan is byte-identical (same
// expected-makespan bits, same schedule actions) to a direct
// PlanWithOptions, across randomized chains, platforms, per-boundary
// costs, constraints and budgets, on both cold solves and memo-served
// repeats.
func TestCrossValidationShardedEngineByteIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(20260730))
	eng := NewEngine(EngineOptions{Workers: 8})
	defer eng.Close()

	var reqs []PlanRequest
	for i := 0; i < 24; i++ {
		n := 2 + rng.Intn(9)
		c, err := RandomChain(rng, n, 2000+3000*rng.Float64())
		if err != nil {
			t.Fatal(err)
		}
		p := randomPlatform(rng)
		var opts PlanOptions
		if rng.Intn(2) == 0 {
			sizes := make([]float64, n)
			for k := range sizes {
				sizes[k] = 0.25 + 1.5*rng.Float64()
			}
			if opts.Costs, err = ScaledCosts(p, sizes); err != nil {
				t.Fatal(err)
			}
		}
		if rng.Intn(2) == 0 {
			cons, err := NewConstraints(n)
			if err != nil {
				t.Fatal(err)
			}
			for b := 1; b < n; b++ {
				if rng.Intn(3) == 0 {
					cons.Forbid(b, Memory)
				}
			}
			opts.Constraints = cons
		}
		if rng.Intn(3) == 0 {
			opts.MaxDiskCheckpoints = 1 + rng.Intn(n)
		}
		reqs = append(reqs, PlanRequest{
			Algorithm: []Algorithm{ADV, ADMVStar, ADMV}[i%3],
			Chain:     c,
			Platform:  p,
			Opts:      opts,
		})
	}

	want := make([]*PlanResult, len(reqs))
	for i, r := range reqs {
		var err error
		if want[i], err = PlanWithOptions(r.Algorithm, r.Chain, r.Platform, r.Opts); err != nil {
			t.Fatalf("request %d: direct plan: %v", i, err)
		}
	}
	for pass := 0; pass < 2; pass++ { // pass 1 re-plans through the memo
		got := eng.PlanMany(t.Context(), reqs)
		for i := range reqs {
			if got[i].Err != nil {
				t.Fatalf("pass %d request %d: %v", pass, i, got[i].Err)
			}
			if got[i].Cached != (pass == 1) {
				t.Errorf("pass %d request %d: cached=%v", pass, i, got[i].Cached)
			}
			if math.Float64bits(got[i].Result.ExpectedMakespan) != math.Float64bits(want[i].ExpectedMakespan) {
				t.Errorf("pass %d request %d: engine %.17g vs direct %.17g",
					pass, i, got[i].Result.ExpectedMakespan, want[i].ExpectedMakespan)
			}
			if !got[i].Result.Schedule.Equal(want[i].Schedule) {
				t.Errorf("pass %d request %d: schedule differs from the direct plan", pass, i)
			}
		}
	}
}

// TestCrossValidationOpsPlaneDeterminism is the determinism bar for
// the performance actuator that remains: the per-request solve width.
// Plans produced at mixed widths, over pooled arenas recycled across
// passes and widths, must be byte-identical (same expected-makespan
// bits, same schedule actions) to plans from an untouched serial
// engine. The mixed-width engine runs without a memo so every pass
// re-solves, and defaults to auto so a request leaving
// Opts.SolveWorkers at 0 takes the solver's crossover-gated path.
func TestCrossValidationOpsPlaneDeterminism(t *testing.T) {
	rng := rand.New(rand.NewSource(20260807))
	mixed := NewEngine(EngineOptions{Workers: 4, CacheSize: -1, SolveWorkers: -1})
	defer mixed.Close()
	baseline := NewEngine(EngineOptions{Workers: 4})
	defer baseline.Close()

	var reqs, wide []PlanRequest
	for i := 0; i < 12; i++ {
		n := 4 + rng.Intn(8)
		c, err := RandomChain(rng, n, 2000+3000*rng.Float64())
		if err != nil {
			t.Fatal(err)
		}
		req := PlanRequest{
			Algorithm: []Algorithm{ADV, ADMVStar, ADMV}[i%3],
			Chain:     c,
			Platform:  randomPlatform(rng),
		}
		reqs = append(reqs, req)
		// Widths cycle serial, engine auto, and two pinned teams.
		req.Opts.SolveWorkers = []int{1, 0, 2, 4}[i%4]
		wide = append(wide, req)
	}
	want := baseline.PlanMany(t.Context(), reqs)

	for pass := 0; pass < 4; pass++ {
		got := mixed.PlanMany(t.Context(), wide)
		for i := range reqs {
			if got[i].Err != nil || want[i].Err != nil {
				t.Fatalf("pass %d request %d: mixed err=%v baseline err=%v",
					pass, i, got[i].Err, want[i].Err)
			}
			if math.Float64bits(got[i].Result.ExpectedMakespan) != math.Float64bits(want[i].Result.ExpectedMakespan) {
				t.Errorf("pass %d request %d: mixed %.17g vs baseline %.17g",
					pass, i, got[i].Result.ExpectedMakespan, want[i].Result.ExpectedMakespan)
			}
			if !got[i].Result.Schedule.Equal(want[i].Result.Schedule) {
				t.Errorf("pass %d request %d: schedule drifted at width %d", pass, i, wide[i].Opts.SolveWorkers)
			}
		}
	}
}
