// Package core implements the paper's contribution: exact dynamic
// programming algorithms that place disk checkpoints, in-memory
// checkpoints, guaranteed verifications and partial verifications on a
// linear task graph so as to minimize the expected execution time under
// both fail-stop and silent errors.
//
// Three planners are provided, named after the paper's Section IV:
//
//   - ADV*  — single-level: disk checkpoints (with their co-located
//     memory checkpoint) and guaranteed verifications only. O(n^3).
//   - ADMV* — two-level: adds intermediate in-memory checkpoints
//     (Section III-A). O(n^4).
//   - ADMV  — complete: adds partial verifications between guaranteed
//     ones (Section III-B). O(n^6).
//
// The package also exposes Evaluate, an analytic evaluator that computes
// the model-expected makespan of a fixed schedule with the same closed
// forms; it is the reference the DPs are verified against (and is itself
// cross-checked against an independent Markov-chain oracle in
// internal/evaluate and a Monte-Carlo simulator in internal/sim).
package core

import (
	"chainckpt/internal/chain"
	"chainckpt/internal/platform"
	"chainckpt/internal/schedule"
)

// Algorithm identifies one of the paper's planners.
type Algorithm string

// The three algorithms compared in Section IV.
const (
	AlgADV      Algorithm = "ADV*"
	AlgADMVStar Algorithm = "ADMV*"
	AlgADMV     Algorithm = "ADMV"
)

// Algorithms returns the planners in the paper's presentation order.
func Algorithms() []Algorithm {
	return []Algorithm{AlgADV, AlgADMVStar, AlgADMV}
}

// Result is the outcome of a planning run.
type Result struct {
	// Algorithm is the planner that produced this result.
	Algorithm Algorithm `json:"algorithm"`
	// ExpectedMakespan is the model-expected execution time in seconds,
	// including all resilience costs, recoveries and re-executions.
	ExpectedMakespan float64 `json:"expected_makespan"`
	// Schedule holds the optimal placement of all mechanisms.
	Schedule *schedule.Schedule `json:"schedule"`
}

// NormalizedMakespan returns the expected makespan divided by the
// error-free execution time (the chain's total weight), the metric
// plotted throughout the paper's Figures 5, 7 and 8.
func (r *Result) NormalizedMakespan(c *chain.Chain) float64 {
	return r.ExpectedMakespan / c.TotalWeight()
}

// Plan runs the named algorithm on the chain under the platform. Like
// every package-level planning function it is a thin wrapper over the
// process-wide Kernel, so repeated planning recycles scratch arenas.
func Plan(alg Algorithm, c *chain.Chain, p platform.Platform) (*Result, error) {
	return PlanOpts(alg, c, p, Options{})
}

// PlanADMVStar runs the two-level algorithm of Section III-A (disk and
// memory checkpoints, guaranteed verifications).
func PlanADMVStar(c *chain.Chain, p platform.Platform) (*Result, error) {
	return Plan(AlgADMVStar, c, p)
}

// PlanADMV runs the complete algorithm of Section III-B (disk and memory
// checkpoints, guaranteed and partial verifications).
func PlanADMV(c *chain.Chain, p platform.Platform) (*Result, error) {
	return Plan(AlgADMV, c, p)
}
