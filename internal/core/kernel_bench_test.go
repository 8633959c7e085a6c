package core

import (
	"fmt"
	"testing"

	"chainckpt/internal/chain"
	"chainckpt/internal/platform"
	"chainckpt/internal/schedule"
	"chainckpt/internal/workload"
)

// benchChain returns the paper-scale uniform chain used by the kernel
// benchmarks.
func benchChain(b *testing.B, n int) *chain.Chain {
	b.Helper()
	c, err := workload.Uniform(n, workload.PaperTotalWeight)
	if err != nil {
		b.Fatal(err)
	}
	return c
}

// BenchmarkKernelPlan measures repeated planning through one long-lived
// kernel (the engine-worker shape): every solve after the first runs the
// dynamic program in recycled arenas, so allocs/op collapses to the
// Result and its Schedule.
func BenchmarkKernelPlan(b *testing.B) {
	p := platform.Hera()
	for _, bc := range []struct {
		name string
		alg  Algorithm
		n    int
	}{
		{"ADMVStar-50", AlgADMVStar, 50},
		{"ADMV-20", AlgADMV, 20},
		// The largest shapes of the ledger's plan-cold workload.
		{"ADV-160", AlgADV, 160},
		{"ADMVStar-70", AlgADMVStar, 70},
	} {
		c := benchChain(b, bc.n)
		b.Run(bc.name, func(b *testing.B) {
			k := NewKernel()
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := k.PlanOpts(bc.alg, c, p, Options{SolveWorkers: 1}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkKernelPlanCold is the allocation baseline for the same
// instances: a brand-new kernel per solve has empty pools, so every
// iteration pays the full arena construction the seed solver paid on
// every call. Comparing allocs/op against BenchmarkKernelPlan is the
// pooled-vs-unpooled headline.
func BenchmarkKernelPlanCold(b *testing.B) {
	p := platform.Hera()
	for _, bc := range []struct {
		name string
		alg  Algorithm
		n    int
	}{
		{"ADMVStar-50", AlgADMVStar, 50},
		{"ADMV-20", AlgADMV, 20},
	} {
		c := benchChain(b, bc.n)
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := NewKernel().PlanOpts(bc.alg, c, p, Options{SolveWorkers: 1}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkReplanSuffix measures the adaptive supervisor's hot path: a
// mid-run rate drift forces the second half of a 50-task chain to be
// re-planned. The incremental route re-solves the window in place with
// pooled scratch.
func BenchmarkReplanSuffix(b *testing.B) {
	p := platform.Hera()
	drifted := p
	drifted.LambdaF *= 4
	drifted.LambdaS *= 4
	c := benchChain(b, 50)
	const from = 25
	k := NewKernel()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := k.ReplanSuffix(AlgADMVStar, c, drifted, from, Options{SolveWorkers: 1}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkReplanSuffixViaFreshChain is the pre-kernel route the
// supervisor used to take: materialize the suffix as a new chain, then
// run a full solve with cold arenas.
func BenchmarkReplanSuffixViaFreshChain(b *testing.B) {
	p := platform.Hera()
	drifted := p
	drifted.LambdaF *= 4
	drifted.LambdaS *= 4
	c := benchChain(b, 50)
	const from = 25
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		suffix, err := chain.FromWeights(c.Weights()[from:]...)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := NewKernel().PlanOpts(AlgADMVStar, suffix, drifted, Options{SolveWorkers: 1}); err != nil {
			b.Fatal(err)
		}
	}
}

// warmKernel returns a new kernel after one untimed solve, so the timed
// loop runs in a pooled arena. A timed cold solve would also pay for
// allocating and first touching the arena (about 1.3 GB at n=4000), and
// that cost lands unevenly: on a 2-vCPU host the first cold n=4000
// solve of whichever width was benched second spent 0.65-0.95 s more
// in the arena allocation alone, because it was the first to reuse the
// heap a freed kernel left behind. That flattened w1/w2 or w1/w4
// depending on the order the widths ran in.
func warmKernel(b *testing.B, alg Algorithm, c *chain.Chain, p platform.Platform, opts Options) *Kernel {
	b.Helper()
	k := NewKernel()
	if _, err := k.PlanOpts(alg, c, p, opts); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	return k
}

// BenchmarkKernelParallelSolve is the speedup curve of the in-kernel
// worker team, on two shapes. The n*/w* curve is the mega-chain shape
// the team exists for: ADV* with disk checkpoints restricted to sparse
// boundaries and a 32-checkpoint budget, so the memory level between
// allowed positions — the phase the team tiles across disk positions —
// carries the DP work instead of the serial-friendly unconstrained disk
// level. The allowed-boundary spacing scales as n/25 (floor 8) so a
// single iteration at n=4000 stays in whole seconds instead of half a
// minute while still exposing ~25 heavily imbalanced memory levels for
// the team to tile; at that size the segment-table build (also tiled
// across the team) carries a comparable share of the runtime. The
// skew/* pair is an UNCONSTRAINED ADV chain whose memory level at disk
// position d1 costs O((n-d1)²): the most uneven tile costs any phase
// has, which the widest-first order and the shared cursor must even out.
// cmd/benchjson gates the w1/w4 ratio at the largest n and on the skew
// pair (a 2-vCPU host records about 1.8-2x; a 1-core builder records a
// flat curve, so the gate needs at least 2 CPUs), plus the w1 lanes'
// allocs/op.
func BenchmarkKernelParallelSolve(b *testing.B) {
	p := platform.Hera()
	solve := func(name string, c *chain.Chain, opts Options) {
		b.Run(name, func(b *testing.B) {
			k := warmKernel(b, AlgADV, c, p, opts)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := k.PlanOpts(AlgADV, c, p, opts); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
	for _, n := range []int{200, 1000, 4000} {
		c := benchChain(b, n)
		cons, err := NewConstraints(n)
		if err != nil {
			b.Fatal(err)
		}
		spacing := n / 25
		if spacing < 8 {
			spacing = 8
		}
		for i := 1; i < n; i++ {
			if i%spacing != 0 {
				cons.Forbid(i, schedule.Disk)
			}
		}
		for _, w := range []int{1, 2, 4} {
			solve(fmt.Sprintf("n%d/w%d", n, w), c,
				Options{Constraints: cons, MaxDiskCheckpoints: 32, SolveWorkers: w})
		}
	}
	cSkew := benchChain(b, 1000)
	for _, w := range []int{1, 4} {
		solve(fmt.Sprintf("skew/w%d", w), cSkew, Options{MaxDiskCheckpoints: 8, SolveWorkers: w})
	}
}
