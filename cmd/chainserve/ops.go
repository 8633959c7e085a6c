// The service's ops plane: admission control gates the write routes
// ahead of the engine pool with bounded queues, two priority classes
// and per-request deadlines honoring X-Deadline-Ms. A full queue
// answers 429 with a Retry-After hint.
package main

import (
	"context"
	"errors"
	"fmt"
	"math"
	"net/http"
	"strconv"
	"time"

	"chainckpt/internal/ops"
)

// opsConfig carries the admission flags into server construction.
// defaultOpsConfig is generous enough that a test server never sheds
// unless it asks to.
type opsConfig struct {
	// AdmitConcurrent / AdmitQueue bound the admission controller.
	AdmitConcurrent int
	AdmitQueue      int
	// RetryAfter is the backoff hint on 429 responses.
	RetryAfter time.Duration
}

func defaultOpsConfig() opsConfig {
	return opsConfig{
		AdmitConcurrent: 64,
		AdmitQueue:      256,
		RetryAfter:      time.Second,
	}
}

// initOps builds the admission controller over the server's registry.
func (s *server) initOps(cfg opsConfig) {
	s.opsCfg = cfg
	s.opsMetrics = ops.NewMetrics(s.obs.reg)
	s.admission = ops.NewController(ops.ControllerConfig{
		MaxConcurrent: cfg.AdmitConcurrent,
		MaxQueue:      cfg.AdmitQueue,
		RetryAfter:    cfg.RetryAfter,
	}, s.opsMetrics)
}

// maxDeadlineMs is the largest X-Deadline-Ms whose budget fits in a
// time.Duration (~292 years).
const maxDeadlineMs = math.MaxInt64 / int64(time.Millisecond)

// admit gates one route through the admission controller in the given
// class. The X-Deadline-Ms header becomes a context deadline covering
// both the queue wait and the handler itself, so a request that waited
// out its budget is failed instead of run for a client that left. A
// header that is not an integer, or whose budget does not fit in a
// time.Duration, is rejected with 400; a non-positive one sets no
// deadline.
func (s *server) admit(class ops.Class, h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		ctx := r.Context()
		if ms := r.Header.Get("X-Deadline-Ms"); ms != "" {
			d, err := strconv.ParseInt(ms, 10, 64)
			if err != nil || d > maxDeadlineMs {
				writeError(w, http.StatusBadRequest,
					fmt.Errorf("X-Deadline-Ms %q: want an integer millisecond count up to %d", ms, maxDeadlineMs))
				return
			}
			if d > 0 {
				var cancel context.CancelFunc
				ctx, cancel = context.WithTimeout(ctx, time.Duration(d)*time.Millisecond)
				defer cancel()
				r = r.WithContext(ctx)
			}
		}
		release, err := s.admission.Admit(ctx, class)
		if err != nil {
			writeAdmissionError(w, err)
			return
		}
		defer release()
		h(w, r)
	}
}

// writeAdmissionError maps admission outcomes onto HTTP: sheds are 429
// with a Retry-After hint (back off, the queue is full),
// deadline/cancel/closed are 503 (the request was accepted but could
// not be served).
func writeAdmissionError(w http.ResponseWriter, err error) {
	var shed *ops.ShedError
	if errors.As(err, &shed) {
		writeTooManyRequests(w, shed.RetryAfter, err)
		return
	}
	writeError(w, http.StatusServiceUnavailable, err)
}

// writeTooManyRequests answers 429 with a Retry-After header of the
// backoff rounded up to whole seconds (at least 1).
func writeTooManyRequests(w http.ResponseWriter, retryAfter time.Duration, err error) {
	secs := int(math.Ceil(retryAfter.Seconds()))
	if secs < 1 {
		secs = 1
	}
	w.Header().Set("Retry-After", strconv.Itoa(secs))
	writeError(w, http.StatusTooManyRequests, err)
}
