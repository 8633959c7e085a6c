package obs

import (
	"math"
	"testing"
)

func approxEq(a, b float64) bool {
	if math.IsNaN(a) || math.IsNaN(b) {
		return math.IsNaN(a) && math.IsNaN(b)
	}
	return math.Abs(a-b) <= 1e-9*math.Max(1, math.Max(math.Abs(a), math.Abs(b)))
}

// TestQuantilePinnedDistributions pins the interpolating quantile
// estimator against distributions whose estimates can be computed by
// hand. A regression to "return the bucket upper bound" breaks every case
// where the expected value is strictly inside a bucket.
func TestQuantilePinnedDistributions(t *testing.T) {
	buckets := []float64{1, 2, 3, 4}

	cases := []struct {
		name string
		obs  []float64 // value repeated count times
		reps []int
		q    float64
		want float64
	}{
		// 100 observations uniformly attributed to bucket (1,2]:
		// rank r maps to 1 + r/100.
		{"uniform-p50", []float64{1.5}, []int{100}, 0.50, 1.5},
		{"uniform-p99", []float64{1.5}, []int{100}, 0.99, 1.99},
		{"uniform-p25", []float64{1.5}, []int{100}, 0.25, 1.25},
		// 50/50 bimodal in (0,1] and (2,3]: p50 is the top of the
		// first mode, p75 halfway through the second mode's bucket
		// (rank 75 is the 25th of 50 obs in (2,3]), p10 inside the
		// first.
		{"bimodal-p50", []float64{0.5, 2.5}, []int{50, 50}, 0.50, 1.0},
		{"bimodal-p75", []float64{0.5, 2.5}, []int{50, 50}, 0.75, 2.5},
		{"bimodal-p10", []float64{0.5, 2.5}, []int{50, 50}, 0.10, 0.2},
		// Single observation: any quantile interpolates inside its
		// bucket (rank q*1 of 1 observation in (2,3]).
		{"point-p50", []float64{2.5}, []int{1}, 0.50, 2.5},
		{"point-p99", []float64{2.5}, []int{1}, 0.99, 2.99},
		// Everything in the +Inf overflow bucket: best effort is the
		// last finite bound.
		{"overflow-p99", []float64{100}, []int{10}, 0.99, 4},
	}

	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			r := NewRegistry()
			h := r.NewHistogram("q_test_seconds", "", buckets)
			for i, v := range tc.obs {
				for j := 0; j < tc.reps[i]; j++ {
					h.Observe(v)
				}
			}
			if got := h.Quantile(tc.q); !approxEq(got, tc.want) {
				t.Errorf("Quantile(%v) = %v, want %v", tc.q, got, tc.want)
			}
		})
	}
}

func TestQuantileEmpty(t *testing.T) {
	r := NewRegistry()
	h := r.NewHistogram("q_empty_seconds", "", []float64{1, 2})
	if got := h.Quantile(0.5); !math.IsNaN(got) {
		t.Errorf("empty Quantile = %v, want NaN", got)
	}
	var nilH *Histogram
	if got := nilH.Quantile(0.5); !math.IsNaN(got) {
		t.Errorf("nil Quantile = %v, want NaN", got)
	}
}
