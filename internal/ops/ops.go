// Package ops is the admission gate ahead of the engine pool.
// Controller (admission.go) bounds the write routes: a fixed number of
// execution slots, one bounded wait queue per priority class with
// interactive work granted first, per-request deadlines, and an
// immediate shed (429 + Retry-After at the HTTP layer) when a class's
// queue is full.
//
// Determinism bar: nothing in this package may change plan bytes.
// Admission only decides when/whether work runs — proven by the
// cross-validation suite.
package ops

import (
	"chainckpt/internal/obs"
)

// Class labels the two admission priorities. Interactive work (plan
// requests a caller is waiting on) is granted slots before batch work
// (sweeps, background jobs).
type Class int

const (
	Interactive Class = iota
	Batch
	numClasses
)

// String returns the metric label for the class.
func (c Class) String() string {
	if c == Batch {
		return "batch"
	}
	return "interactive"
}

// Metrics bundles the admission instrument families. Construct with
// NewMetrics; the zero value (or nil) disables recording — every use
// inside the package is nil-safe, mirroring engine.Metrics.
type Metrics struct {
	Admitted   *obs.CounterVec   // chainckpt_admission_admitted_total{class}
	Shed       *obs.CounterVec   // chainckpt_admission_shed_total{class}
	Deadline   *obs.CounterVec   // chainckpt_admission_deadline_total{class}
	Canceled   *obs.CounterVec   // chainckpt_admission_canceled_total{class}
	QueueWait  *obs.HistogramVec // chainckpt_admission_queue_wait_seconds{class}
	QueueDepth *obs.GaugeVec     // chainckpt_admission_queue_depth{class}
	InFlight   *obs.Gauge        // chainckpt_admission_in_flight
}

// NewMetrics registers the admission families on reg and returns the
// bundle. Nil reg returns nil (uninstrumented gate).
func NewMetrics(reg *obs.Registry) *Metrics {
	if reg == nil {
		return nil
	}
	return &Metrics{
		Admitted: reg.NewCounterVec("chainckpt_admission_admitted_total",
			"Requests granted an execution slot, by class.",
			"class"),
		Shed: reg.NewCounterVec("chainckpt_admission_shed_total",
			"Requests rejected because their class's admission queue was full, by class.",
			"class"),
		Deadline: reg.NewCounterVec("chainckpt_admission_deadline_total",
			"Requests whose deadline expired before a slot was granted, by class.",
			"class"),
		Canceled: reg.NewCounterVec("chainckpt_admission_canceled_total",
			"Requests canceled by the client while queued, by class.",
			"class"),
		QueueWait: reg.NewHistogramVec("chainckpt_admission_queue_wait_seconds",
			"Time admitted requests spent queued before their slot was granted.",
			nil, "class"),
		QueueDepth: reg.NewGaugeVec("chainckpt_admission_queue_depth",
			"Requests currently waiting in the admission queue, by class.",
			"class"),
		InFlight: reg.NewGauge("chainckpt_admission_in_flight",
			"Requests currently holding an admission slot."),
	}
}
