// POST /v1/replan: per-request suffix re-planning for external
// executors. A client running a chain under its own supervisor sends
// the instance, its current schedule, the boundary of its last
// committed disk checkpoint and the error rates it has observed; the
// service re-solves the dynamic program for the remaining window
// through the solver kernel (pooled scratch sized to the suffix,
// ~hundreds of microseconds at n=50) and returns the full schedule with
// the new suffix spliced in — the service-side twin of the supervisor's
// internal adaptive re-planning.
package main

import (
	"fmt"
	"net/http"

	"chainckpt/internal/runtime"
	"chainckpt/internal/schedule"
)

// replanRequest is the JSON shape of one suffix re-planning request:
// the instance (as in /v1/plan), the schedule currently executing, the
// committed boundary, and the observed rates.
type replanRequest struct {
	planRequest
	// Schedule is the complete schedule currently executing.
	Schedule *schedule.Schedule `json:"schedule"`
	// From is the boundary of the last committed disk checkpoint; the
	// suffix strictly after it is re-planned.
	From int `json:"from"`
	// ObservedLambdaF and ObservedLambdaS replace the platform's modeled
	// rates for the re-plan (0 keeps the modeled rate).
	ObservedLambdaF float64 `json:"observed_lambda_f,omitempty"`
	ObservedLambdaS float64 `json:"observed_lambda_s,omitempty"`
}

// replanResponse carries the spliced schedule back.
type replanResponse struct {
	Algorithm string `json:"algorithm"`
	From      int    `json:"from"`
	// SuffixExpectedMakespan is the model expectation of the re-planned
	// window alone (from the committed checkpoint to the end).
	SuffixExpectedMakespan float64 `json:"suffix_expected_makespan"`
	// Changed reports whether the splice differs from the incoming
	// schedule's suffix.
	Changed  bool               `json:"changed"`
	Counts   *schedule.Counts   `json:"counts,omitempty"`
	Schedule *schedule.Schedule `json:"schedule"`
}

func (s *server) handleReplan(w http.ResponseWriter, r *http.Request) {
	var rr replanRequest
	if err := decodeJSON(r, &rr); err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	req, c, err := rr.toEngine()
	if err != nil {
		s.planErrors.Add(1)
		writeError(w, http.StatusBadRequest, err)
		return
	}
	if rr.Schedule == nil {
		writeError(w, http.StatusBadRequest, fmt.Errorf("missing schedule"))
		return
	}
	if rr.Schedule.Len() != c.Len() {
		writeError(w, http.StatusBadRequest,
			fmt.Errorf("schedule for %d tasks but chain has %d", rr.Schedule.Len(), c.Len()))
		return
	}
	if err := rr.Schedule.ValidateComplete(); err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	if rr.From < 0 || rr.From >= c.Len() {
		writeError(w, http.StatusBadRequest,
			fmt.Errorf("from %d out of range [0, %d)", rr.From, c.Len()))
		return
	}
	if rr.From > 0 && !rr.Schedule.At(rr.From).Has(schedule.Disk) {
		// The re-plan models boundary From as a stored state to recover
		// to; without a disk checkpoint there the spliced schedule would
		// have no recovery point at its seam.
		writeError(w, http.StatusBadRequest,
			fmt.Errorf("boundary %d carries no disk checkpoint; the suffix must start from a stored state", rr.From))
		return
	}
	if rr.ObservedLambdaF < 0 || rr.ObservedLambdaS < 0 {
		writeError(w, http.StatusBadRequest, fmt.Errorf("observed rates must be non-negative"))
		return
	}

	p := req.Platform
	if rr.ObservedLambdaF > 0 {
		p.LambdaF = rr.ObservedLambdaF
	}
	if rr.ObservedLambdaS > 0 {
		p.LambdaS = rr.ObservedLambdaS
	}
	res, err := runtime.ReplanSuffix(r.Context(), s.eng.Kernel(), req.Algorithm, c, p, rr.Schedule, rr.From, req.Opts)
	if err != nil {
		s.planErrors.Add(1)
		writeError(w, http.StatusUnprocessableEntity, err)
		return
	}
	s.replans.Add(1)

	spliced := rr.Schedule.Clone()
	changed := spliced.SpliceSuffix(rr.From, res.Schedule)
	counts := spliced.Counts()
	writeJSON(w, http.StatusOK, replanResponse{
		Algorithm:              string(res.Algorithm),
		From:                   rr.From,
		SuffixExpectedMakespan: res.ExpectedMakespan,
		Changed:                changed,
		Counts:                 &counts,
		Schedule:               spliced,
	})
}
