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

// BenchmarkKernelParallelSolve is the speedup curve of the in-kernel
// worker team on the mega-chain shape it exists for: ADV* with disk
// checkpoints restricted to sparse boundaries and a 32-checkpoint
// budget, so the memory level between allowed positions — the phase the
// team tiles across disk positions — carries the DP work instead of the
// serial-friendly unconstrained disk level. The allowed-boundary
// spacing scales as n/25 (floor 8) so a single iteration at n=4000
// stays in whole seconds instead of half a minute while still exposing
// ~25 heavily imbalanced memory levels for the team to tile; at that
// size the segment-table build (also tiled across the team) carries a
// comparable share of the runtime.
// Sub-benchmarks sweep n × team width; the w1/w4 ratio at the largest
// n is the speedup gate cmd/benchjson tracks (on a multi-core runner
// it must show >= 2x separation; a 1-core builder records a flat
// curve).
func BenchmarkKernelParallelSolve(b *testing.B) {
	p := platform.Hera()
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
			b.Run(fmt.Sprintf("n%d/w%d", n, w), func(b *testing.B) {
				k := NewKernel()
				opts := Options{Constraints: cons, MaxDiskCheckpoints: 32, SolveWorkers: w}
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					if _, err := k.PlanOpts(AlgADV, c, p, opts); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// BenchmarkKernelStealSolve exercises the steal lane of the team
// scheduler two ways. The n*/w* curve is the sparse-disk mega-chain
// shape (as BenchmarkKernelParallelSolve, smaller sizes) under the
// owner-computes span scheduler; its w1/w4 ratio at the largest n is
// the steal-lane speedup gate cmd/benchjson tracks. The skew/* pair is
// the adversarial shape the stealing exists for: an UNCONSTRAINED ADV
// chain whose memory level at disk position d1 costs O((n-d1)^2), so
// contiguous uniform spans hand one owner quadratically more work than
// another and only stealing rebalances it — size-sorted scheduling
// front-loads the wide levels, the narrow-tail owners go idle first and
// steal the remainder.
func BenchmarkKernelStealSolve(b *testing.B) {
	p := platform.Hera()
	for _, n := range []int{500, 2000} {
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
			b.Run(fmt.Sprintf("n%d/w%d", n, w), func(b *testing.B) {
				k := NewKernel()
				opts := Options{Constraints: cons, MaxDiskCheckpoints: 32, SolveWorkers: w}
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					if _, err := k.PlanOpts(AlgADV, c, p, opts); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
	cSkew := benchChain(b, 1000)
	for _, w := range []int{1, 4} {
		b.Run(fmt.Sprintf("skew/w%d", w), func(b *testing.B) {
			k := NewKernel()
			opts := Options{MaxDiskCheckpoints: 8, SolveWorkers: w}
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := k.PlanOpts(AlgADV, cSkew, p, opts); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
