package engine

import (
	"strconv"
	"sync/atomic"

	"chainckpt/internal/core"
	"chainckpt/internal/obs"
)

// Metrics is the engine's slice of the observability plane: the pool's
// queue-wait and solve-latency histograms, resolved once at
// construction so the hot paths never touch a label map, and
// collectors that read the counters of the engine New binds and of its
// kernel at scrape time (the engine owns its kernel, so internal/core
// stays free of obs). A nil *Metrics (the default) costs one nil check
// per instrumented site.
type Metrics struct {
	// QueueWait measures how long a planning job waited for a pool
	// slot — the engine's admission signal.
	QueueWait *obs.Histogram
	// SolveLatency measures dynamic-program solve time, cache misses
	// only (hits never reach the kernel). Its one child is labelled
	// shard="0" for ledgerbench's traced replay (trace.go), which
	// resolves it by that label.
	SolveLatency *obs.HistogramVec

	// eng is the engine the collectors read; New binds it.
	eng atomic.Pointer[Engine]
}

// NewMetrics registers the engine and kernel families on reg. The
// counter families render once New has bound an engine to the
// returned metrics. A nil registry returns nil metrics, which every
// instrumented site tolerates.
func NewMetrics(reg *obs.Registry) *Metrics {
	if reg == nil {
		return nil
	}
	m := &Metrics{
		QueueWait: reg.NewHistogram("chainckpt_engine_queue_wait_seconds",
			"Time a planning job waited for an engine pool slot.", nil),
		SolveLatency: reg.NewHistogramVec("chainckpt_engine_solve_seconds",
			"Dynamic-program solve latency (cache misses only).", nil, "shard"),
	}
	// read adapts a collector over the bound engine; it sets nothing
	// before New has bound one.
	read := func(collect func(e *Engine, set obs.LabelSetter)) func(obs.LabelSetter) {
		return func(set obs.LabelSetter) {
			if e := m.eng.Load(); e != nil {
				collect(e, set)
			}
		}
	}
	counter := func(name, help string, get func(e *Engine) float64) {
		reg.RegisterCounterFunc(name, help, read(func(e *Engine, set obs.LabelSetter) { set.Set(get(e)) }))
	}

	counter("chainckpt_engine_requests_total", "Planning requests accepted by the engine.",
		func(e *Engine) float64 { return float64(e.requests.Load()) })
	counter("chainckpt_engine_cache_hits_total", "Plans served from the memo.",
		func(e *Engine) float64 { return float64(e.hits.Load()) })
	counter("chainckpt_engine_cache_misses_total", "Plans that ran a solver.",
		func(e *Engine) float64 { return float64(e.misses.Load()) })
	counter("chainckpt_engine_cache_evictions_total", "Memo entries evicted.",
		func(e *Engine) float64 { return float64(e.evictions.Load()) })
	reg.RegisterCounterFunc("chainckpt_engine_plans_total", "Planning requests per algorithm.",
		read(func(e *Engine, set obs.LabelSetter) {
			set.Set(float64(e.algADV.Load()), string(core.AlgADV))
			set.Set(float64(e.algADMVStar.Load()), string(core.AlgADMVStar))
			set.Set(float64(e.algADMV.Load()), string(core.AlgADMV))
		}), "algorithm")
	reg.RegisterGaugeFunc("chainckpt_engine_cache_entries", "Current memo entries.",
		read(func(e *Engine, set obs.LabelSetter) {
			e.mu.Lock()
			n := e.order.Len()
			e.mu.Unlock()
			set.Set(float64(n))
		}))

	// The kernel's scratch pools and solve team (core.KernelStats).
	counter("chainckpt_kernel_solves_total", "Dynamic-program solves completed by the solver kernel.",
		func(e *Engine) float64 { return float64(e.kernel.Stats().Solves) })
	reg.RegisterCounterFunc("chainckpt_kernel_scratch_bucket_arenas_total",
		"Arena acquisitions per size class (cap = bucket capacity in tasks).",
		read(func(e *Engine, set obs.LabelSetter) {
			for _, b := range e.kernel.Stats().Buckets {
				set.Set(float64(b.Reuses), strconv.Itoa(b.Cap), "reused")
				set.Set(float64(b.Fresh), strconv.Itoa(b.Cap), "fresh")
			}
		}), "cap", "kind")
	reg.RegisterGaugeFunc("chainckpt_kernel_arena_bytes",
		"Bytes one scratch arena of each active size class pins (cap = arena capacity in tasks).",
		read(func(e *Engine, set obs.LabelSetter) {
			set.Reset()
			for _, b := range e.kernel.Stats().Buckets {
				set.Set(float64(core.ArenaBytes(b.Cap)), strconv.Itoa(b.Cap))
			}
		}), "cap")
	counter("chainckpt_kernel_parallel_solves_total",
		"Solves that engaged a worker team (SolveWorkers > 1, explicit or auto).",
		func(e *Engine) float64 { return float64(e.kernel.Stats().Parallel.Solves) })
	counter("chainckpt_kernel_parallel_tiles_total", "DP tiles dispatched to solver worker teams.",
		func(e *Engine) float64 { return float64(e.kernel.Stats().Parallel.Tiles) })
	counter("chainckpt_kernel_parallel_busy_seconds_total",
		"Cumulative seconds solver team members spent running tiles.",
		func(e *Engine) float64 { return e.kernel.Stats().Parallel.BusySeconds })
	counter("chainckpt_kernel_parallel_crossover_skips_total",
		"Auto-mode solves that stayed serial below the crossover window length.",
		func(e *Engine) float64 { return float64(e.kernel.Stats().Parallel.CrossoverSkips) })
	return m
}

// bind points the collectors at e and resolves the histograms the
// engine observes; both nil when m is nil.
func (m *Metrics) bind(e *Engine) (queueWait, solveLat *obs.Histogram) {
	if m == nil {
		return nil, nil
	}
	m.eng.Store(e)
	return m.QueueWait, m.SolveLatency.With("0")
}
