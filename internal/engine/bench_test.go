package engine

import (
	"context"
	"fmt"
	"testing"

	"chainckpt/internal/core"
	"chainckpt/internal/platform"
	"chainckpt/internal/workload"
)

// sweepRequests models the request stream of a figure-regeneration run
// (cmd/chainexp): a sweep of instances across the Table I platforms,
// with every instance planned `passes` times — exactly what happens when
// fig5, the fig6 strips and the HTML report each re-plan the same
// figures. 4 platforms x len(ns) sizes x passes requests in total.
func sweepRequests(b *testing.B, ns []int, passes int) []Request {
	b.Helper()
	var reqs []Request
	for pass := 0; pass < passes; pass++ {
		for _, plat := range platform.All() {
			for _, n := range ns {
				c, err := workload.Uniform(n, workload.PaperTotalWeight)
				if err != nil {
					b.Fatal(err)
				}
				reqs = append(reqs, Request{
					Algorithm: core.AlgADMV,
					Chain:     c,
					Platform:  plat,
					Tag:       fmt.Sprintf("pass%d-%s-n%d", pass, plat.Name, n),
				})
			}
		}
	}
	return reqs
}

// BenchmarkEngineSweep compares a 64-instance sweep (16 distinct
// instances, each requested 4 times, as in a chainexp figure run)
// through the batch engine against the seed's serial loop over
// core.Plan. The engine wins on two axes: instances solve concurrently
// on the pool, and repeated instances are served from the memo instead
// of re-running the dynamic program.
func BenchmarkEngineSweep(b *testing.B) {
	reqs := sweepRequests(b, []int{8, 12, 16, 20}, 4)
	if len(reqs) != 64 {
		b.Fatalf("sweep has %d requests, want 64", len(reqs))
	}

	b.Run("serial", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			for _, req := range reqs {
				if _, err := core.Plan(req.Algorithm, req.Chain, req.Platform); err != nil {
					b.Fatal(err)
				}
			}
		}
	})

	b.Run("engine", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			eng := New(Options{})
			for _, resp := range eng.PlanMany(context.Background(), reqs) {
				if resp.Err != nil {
					b.Fatal(resp.Err)
				}
			}
			eng.Close()
		}
	})
}

// BenchmarkEngineSweepDistinct isolates the pool's instance-level
// parallelism: 64 distinct instances, no memo reuse (the cache is
// disabled), against the same serial seed loop.
func BenchmarkEngineSweepDistinct(b *testing.B) {
	var reqs []Request
	for _, plat := range platform.All() {
		for n := 2; n <= 17; n++ {
			c, err := workload.Uniform(n, workload.PaperTotalWeight)
			if err != nil {
				b.Fatal(err)
			}
			reqs = append(reqs, Request{Algorithm: core.AlgADMV, Chain: c, Platform: plat})
		}
	}
	if len(reqs) != 64 {
		b.Fatalf("sweep has %d requests, want 64", len(reqs))
	}

	b.Run("serial", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			for _, req := range reqs {
				if _, err := core.Plan(req.Algorithm, req.Chain, req.Platform); err != nil {
					b.Fatal(err)
				}
			}
		}
	})

	b.Run("engine", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			eng := New(Options{CacheSize: -1})
			for _, resp := range eng.PlanMany(context.Background(), reqs) {
				if resp.Err != nil {
					b.Fatal(resp.Err)
				}
			}
			eng.Close()
		}
	})
}
