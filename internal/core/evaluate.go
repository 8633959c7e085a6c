package core

import (
	"fmt"

	"chainckpt/internal/chain"
	"chainckpt/internal/platform"
	"chainckpt/internal/schedule"
)

// Evaluate returns the model-expected makespan of a fixed schedule under
// the paper's analytic formulas (Equations (2)-(4) and their Section
// III-B extensions), without any optimization. The schedule must be
// complete (final boundary disk-checkpointed) and sized for the chain.
//
// Evaluate is the reference used to verify the dynamic programs: the
// expected makespan returned by Plan must equal Evaluate of the
// reconstructed schedule, and for small instances the brute-force minimum
// of Evaluate over all schedules must equal the DP optimum. Evaluate is
// itself validated against the independent Markov-chain oracle in
// internal/evaluate and the Monte-Carlo simulator in internal/sim.
func Evaluate(c *chain.Chain, p platform.Platform, sched *schedule.Schedule) (float64, error) {
	return EvaluateWithCosts(c, p, nil, sched)
}

// EvaluateWithCosts is Evaluate with per-boundary costs (nil for the
// platform constants).
func EvaluateWithCosts(c *chain.Chain, p platform.Platform, costs *platform.Costs, sched *schedule.Schedule) (float64, error) {
	e, err := NewEvaluator(c, p, costs)
	if err != nil {
		return 0, err
	}
	return e.Evaluate(sched)
}

// Evaluator evaluates fixed schedules for one (chain, platform, costs)
// triple, amortizing the O(n^2) exponential tables across calls. Search
// procedures that score many candidate schedules (greedy insertion,
// periodic scans, brute force) should build one Evaluator and reuse it.
// It is safe for concurrent use.
type Evaluator struct {
	s *solver
}

// NewEvaluator precomputes the model tables for the instance.
func NewEvaluator(c *chain.Chain, p platform.Platform, costs *platform.Costs) (*Evaluator, error) {
	s, err := newSolverWithCosts(c, p, AlgADMV, costs)
	if err != nil {
		return nil, err
	}
	return &Evaluator{s: s}, nil
}

// Evaluate returns the model-expected makespan of the fixed schedule.
func (e *Evaluator) Evaluate(sched *schedule.Schedule) (float64, error) {
	s := e.s
	if sched == nil {
		return 0, fmt.Errorf("core: nil schedule")
	}
	if sched.Len() != s.n {
		return 0, fmt.Errorf("core: schedule for %d tasks but chain has %d", sched.Len(), s.n)
	}
	if err := sched.ValidateComplete(); err != nil {
		return 0, fmt.Errorf("core: %w", err)
	}

	total := 0.0     // accumulated E_disk terms of committed disk segments
	ememVal := 0.0   // E_mem(d1, m1) of the open disk segment
	everifVal := 0.0 // E_verif(d1, m1, v1) of the open memory segment
	d1, m1, v1 := 0, 0, 0
	var partials []int

	for i := 1; i <= s.n; i++ {
		a := sched.At(i)
		switch {
		case a.Has(schedule.Guaranteed):
			var seg float64
			if len(partials) == 0 {
				seg = s.eSegment(v1, i, s.rd(d1)+ememVal, s.rm(m1), everifVal)
			} else {
				seg = s.epartialFixed(d1, m1, v1, i, partials, ememVal, everifVal)
				partials = partials[:0]
			}
			everifVal += seg
			v1 = i
			if a.Has(schedule.Memory) {
				ememVal += everifVal + s.cmAt(i)
				m1, everifVal = i, 0
				if a.Has(schedule.Disk) {
					total += ememVal + s.cdAt(i)
					d1, ememVal = i, 0
				}
			}
		case a.Has(schedule.Partial):
			partials = append(partials, i)
		}
	}
	return total, nil
}

// epartialFixed evaluates the Section III-B expectation of a verified
// segment (v1, v2] whose interior partial verification positions are
// given rather than optimized. It mirrors epartial exactly: Eright is
// chained right-to-left over the fixed positions, each sub-interval's E^-
// is re-executed e^{(lf+ls)W_{p2,v2}} times, and the closing guaranteed
// verification contributes the (V*-V) correction.
func (s *solver) epartialFixed(d1, m1, v1, v2 int, partials []int, ememVal, everifV1 float64) float64 {
	// points: v1 = q_0 < q_1 < ... < q_{k-1} < q_k = v2
	k := len(partials) + 1
	point := func(j int) int {
		switch {
		case j == 0:
			return v1
		case j == k:
			return v2
		default:
			return partials[j-1]
		}
	}

	// Eright at each point, right to left.
	rdE := s.rd(d1) + ememVal
	gRm := (1 - s.g) * s.rm(m1)
	er := make([]float64, k+1)
	er[k] = s.rm(m1)
	for j := k - 1; j >= 1; j-- {
		er[j] = s.eRightStep(point(j), point(j+1), rdE, gRm, er[j+1])
	}

	// Accumulate the E^- terms with their re-execution multipliers.
	total := 0.0
	for j := 0; j < k; j++ {
		pj, pj1 := point(j), point(j+1)
		em := s.eMinus(pj, pj1, rdE, gRm, everifV1, er[j+1])
		if pj1 == v2 {
			total += em + (s.sM1[s.idx(pj, v2)]+1)*(s.vstarAt(v2)-s.vAt(v2))
		} else {
			total += em * (s.fsM1[s.idx(pj1, v2)] + 1)
		}
	}
	return total
}
