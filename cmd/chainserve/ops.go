// The service's ops plane: the actuation layer over the observability
// plane. Admission control gates the write routes ahead of the engine
// pool (bounded queues, two priority classes, per-request deadlines
// honoring X-Deadline-Ms), the SLO tracker computes multi-window burn
// rates from the same route histograms /metrics exports, burn-coupled
// load-shedding drops batch work first when the fast window burns hot.
// Admin view: GET /v1/admin/slo.
package main

import (
	"context"
	"errors"
	"fmt"
	"math"
	"net/http"
	"strconv"
	"time"

	"chainckpt/internal/obs"
	"chainckpt/internal/ops"
)

// opsConfig carries the ops-plane flags into server construction.
// defaultOpsConfig is generous enough that a test server never sheds
// unless it asks to.
type opsConfig struct {
	// AdmitConcurrent / AdmitQueue bound the admission controller.
	AdmitConcurrent int
	AdmitQueue      int
	// RetryAfter is the backoff hint on 429 responses.
	RetryAfter time.Duration
	// SLOThreshold (seconds) and SLOObjective parameterize the
	// interactive latency SLO over the plan routes.
	SLOThreshold float64
	SLOObjective float64
	// BurnShed is the fast-window burn rate beyond which batch work is
	// shed (0 disables the coupling).
	BurnShed float64
	// SampleInterval is the SLO sampling/coupling cadence.
	SampleInterval time.Duration
}

func defaultOpsConfig() opsConfig {
	return opsConfig{
		AdmitConcurrent: 64,
		AdmitQueue:      256,
		RetryAfter:      time.Second,
		SLOThreshold:    1.0,
		SLOObjective:    0.99,
		BurnShed:        10,
		SampleInterval:  10 * time.Second,
	}
}

// interactiveRoutes are the routes the interactive SLO spans — the
// synchronous planning paths a caller is actively waiting on.
var interactiveRoutes = []string{"plan", "plan_batch", "replan"}

// initOps builds the admission controller and SLO tracker over the
// server's registry. Called after initObs (the route histograms must
// exist). The sampler cadence starts in startOps.
func (s *server) initOps(cfg opsConfig) {
	s.opsCfg = cfg
	reg := s.obs.reg
	s.opsMetrics = ops.NewMetrics(reg)
	s.admission = ops.NewController(ops.ControllerConfig{
		MaxConcurrent: cfg.AdmitConcurrent,
		MaxQueue:      cfg.AdmitQueue,
		RetryAfter:    cfg.RetryAfter,
	}, s.opsMetrics)

	// The interactive SLO reads the same per-route histograms /metrics
	// exports; merging keeps one budget across the three plan routes.
	src := func() obs.HistogramSnapshot {
		snaps := make([]obs.HistogramSnapshot, 0, len(interactiveRoutes))
		for _, route := range interactiveRoutes {
			snaps = append(snaps, s.routeLat.With(route).Snapshot())
		}
		return ops.MergeSnapshots(snaps...)
	}
	s.tracker = ops.NewTracker(ops.TrackerConfig{
		SampleInterval: cfg.SampleInterval,
	}, s.opsMetrics, ops.SLO{
		Name:      "interactive_latency",
		Threshold: cfg.SLOThreshold,
		Objective: cfg.SLOObjective,
		Source:    src,
	})

	// Scrape-fresh burn gauges: /metrics triggers the same tick the
	// sampler cadence runs, so a scrape never shows stale burn rates.
	// Closely spaced samples coalesce in the tracker ring.
	reg.OnScrape(s.opsTick)
}

// opsTick is one observation/actuation step: sample the SLO sources,
// refresh the burn gauges, and couple the fast-window burn to batch
// shedding when the coupling is enabled.
func (s *server) opsTick() {
	s.tracker.Sample()
	if s.opsCfg.BurnShed > 0 {
		s.admission.SetShedding(s.tracker.MaxFastBurn() >= s.opsCfg.BurnShed)
	}
}

// startOps launches the SLO sampler cadence. stopOps ends it; both are
// idempotent enough for tests to call freely.
func (s *server) startOps() {
	if s.opsStop != nil {
		return
	}
	stop := make(chan struct{})
	s.opsStop = stop
	go func() {
		t := time.NewTicker(s.opsCfg.SampleInterval)
		defer t.Stop()
		for {
			select {
			case <-t.C:
				s.opsTick()
			case <-stop:
				return
			}
		}
	}()
}

func (s *server) stopOps() {
	if s.opsStop != nil {
		close(s.opsStop)
		s.opsStop = nil
	}
	s.admission.Close()
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
// with a Retry-After hint (back off, the service is protecting its
// SLO), deadline/cancel/closed are 503 (the request was accepted but
// could not be served).
func writeAdmissionError(w http.ResponseWriter, err error) {
	var shed *ops.ShedError
	if errors.As(err, &shed) {
		secs := int(math.Ceil(shed.RetryAfter.Seconds()))
		if secs < 1 {
			secs = 1
		}
		w.Header().Set("Retry-After", strconv.Itoa(secs))
		writeError(w, http.StatusTooManyRequests, err)
		return
	}
	writeError(w, http.StatusServiceUnavailable, err)
}

// handleSLO serves the SLO tracker's current view: per-objective fast
// and slow windows with bad fractions, burn rates and quantiles, plus
// whether batch shedding is currently engaged.
func (s *server) handleSLO(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{
		"slos":     s.tracker.Report(),
		"shedding": s.admission.Shedding(),
	})
}
