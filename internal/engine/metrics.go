package engine

import "chainckpt/internal/obs"

// Metrics is the engine's slice of the observability plane: the pool's
// queue-wait and solve-latency histograms, resolved once at
// construction so the hot paths never touch a label map. A nil
// *Metrics (the default) costs one nil check per instrumented site —
// benchmarks and library callers that do not wire a registry pay
// nothing.
type Metrics struct {
	// QueueWait measures how long a planning job waited for a pool
	// slot — the engine's admission signal.
	QueueWait *obs.Histogram
	// SolveLatency measures dynamic-program solve time, cache misses
	// only (hits never reach the kernel). Its one child is labelled
	// shard="0" for ledgerbench's traced replay (trace.go), which
	// resolves it by that label.
	SolveLatency *obs.HistogramVec
}

// NewMetrics registers the engine families on reg. A nil registry
// returns nil metrics, which every instrumented site tolerates.
func NewMetrics(reg *obs.Registry) *Metrics {
	if reg == nil {
		return nil
	}
	return &Metrics{
		QueueWait: reg.NewHistogram("chainckpt_engine_queue_wait_seconds",
			"Time a planning job waited for an engine pool slot.", nil),
		SolveLatency: reg.NewHistogramVec("chainckpt_engine_solve_seconds",
			"Dynamic-program solve latency (cache misses only).", nil, "shard"),
	}
}

// instruments resolves the histograms the engine observes; both nil
// when m is nil.
func (m *Metrics) instruments() (queueWait, solveLat *obs.Histogram) {
	if m == nil {
		return nil, nil
	}
	return m.QueueWait, m.SolveLatency.With("0")
}
