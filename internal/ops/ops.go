// Package ops is the actuation half of the observability plane: it
// consumes the signals internal/obs collects and drives the knobs the
// rest of the stack already exposes. Two coupled pieces close the
// loop:
//
//   - Tracker (slo.go) keeps per-route latency objectives and computes
//     multi-window burn rates (fast/slow) from deltas of histogram
//     snapshots, in the Google-SRE sense: burn = badFraction/(1-objective),
//     where 1.0 means the error budget is being consumed exactly at the
//     rate that exhausts it at the window's end.
//   - Controller (admission.go) is a bounded admission gate ahead of
//     the engine pool: two priority classes, per-request deadlines, and
//     burn-rate-coupled load-shedding that drops batch work first.
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
// (sweeps, background jobs) and is the last to be shed.
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

// Metrics bundles the ops-plane instrument families. Construct with
// NewMetrics; the zero value (or nil) disables recording — every use
// inside the package is nil-safe, mirroring engine.Metrics.
type Metrics struct {
	// SLO families.
	BurnRate  *obs.GaugeVec // chainckpt_slo_burn_rate{slo,window}
	Objective *obs.GaugeVec // chainckpt_slo_objective{slo}
	BadFrac   *obs.GaugeVec // chainckpt_slo_bad_fraction{slo,window}
	WindowObs *obs.GaugeVec // chainckpt_slo_window_requests{slo,window}
	Shedding  *obs.Gauge    // chainckpt_slo_shedding

	// Admission families.
	Admitted   *obs.CounterVec   // chainckpt_admission_admitted_total{class}
	Shed       *obs.CounterVec   // chainckpt_admission_shed_total{class,reason}
	Deadline   *obs.CounterVec   // chainckpt_admission_deadline_total{class}
	Canceled   *obs.CounterVec   // chainckpt_admission_canceled_total{class}
	QueueWait  *obs.HistogramVec // chainckpt_admission_queue_wait_seconds{class}
	QueueDepth *obs.GaugeVec     // chainckpt_admission_queue_depth{class}
	InFlight   *obs.Gauge        // chainckpt_admission_in_flight
}

// NewMetrics registers the ops-plane families on reg and returns the
// bundle. Nil reg returns nil (uninstrumented plane).
func NewMetrics(reg *obs.Registry) *Metrics {
	if reg == nil {
		return nil
	}
	return &Metrics{
		BurnRate: reg.NewGaugeVec("chainckpt_slo_burn_rate",
			"Error-budget burn rate per SLO and window (1.0 = budget exhausted exactly at window end).",
			"slo", "window"),
		Objective: reg.NewGaugeVec("chainckpt_slo_objective",
			"Configured objective (fraction of requests that must meet the latency threshold) per SLO.",
			"slo"),
		BadFrac: reg.NewGaugeVec("chainckpt_slo_bad_fraction",
			"Fraction of requests over the latency threshold per SLO and window.",
			"slo", "window"),
		WindowObs: reg.NewGaugeVec("chainckpt_slo_window_requests",
			"Requests observed inside the window per SLO.",
			"slo", "window"),
		Shedding: reg.NewGauge("chainckpt_slo_shedding",
			"1 while burn-rate-coupled load-shedding of batch work is active, else 0."),

		Admitted: reg.NewCounterVec("chainckpt_admission_admitted_total",
			"Requests granted an execution slot, by class.",
			"class"),
		Shed: reg.NewCounterVec("chainckpt_admission_shed_total",
			"Requests rejected by admission control, by class and reason (queue_full, burn).",
			"class", "reason"),
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

// MergeSnapshots sums same-layout histogram snapshots — the way an SLO
// spanning several routes combines their per-route histograms. Any
// snapshot whose layout disagrees with the first non-empty one is
// skipped (never silently misaligned).
func MergeSnapshots(snaps ...obs.HistogramSnapshot) obs.HistogramSnapshot {
	var out obs.HistogramSnapshot
	for _, s := range snaps {
		if len(s.Cum) == 0 {
			continue
		}
		if len(out.Cum) == 0 {
			out = obs.HistogramSnapshot{
				Uppers: s.Uppers,
				Cum:    append([]uint64(nil), s.Cum...),
				Sum:    s.Sum,
			}
			continue
		}
		if len(s.Cum) != len(out.Cum) || len(s.Uppers) != len(out.Uppers) {
			continue
		}
		for i := range s.Cum {
			out.Cum[i] += s.Cum[i]
		}
		out.Sum += s.Sum
	}
	return out
}
