// Package obs is the repo's dependency-free observability plane: a
// metrics registry (atomic counters, gauges, and fixed-bucket latency
// histograms, with and without label sets) rendered in Prometheus text
// exposition format, plus lightweight request-scoped tracing (spans
// carried via context.Context, collected into a bounded in-process
// ring of recent traces).
//
// Everything here is nil-safe in the style of internal/fault: a nil
// *Registry hands out nil instruments, and every method on a nil
// instrument is a no-op. Production code therefore threads metrics
// through unconditionally and pays nothing when observability is off.
//
// The package is a leaf: it imports only the standard library, and
// internal/core must never import it — the solver's warm path is gated
// at 5 allocs/op and stays instrumentation-free by construction
// (the engine, which owns its kernel, registers collectors over
// KernelStats from the outside).
package obs

import (
	"fmt"
	"math"
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Kind enumerates the metric families the registry can hold.
type Kind int

const (
	KindCounter Kind = iota
	KindGauge
	KindHistogram
)

func (k Kind) String() string {
	switch k {
	case KindCounter:
		return "counter"
	case KindGauge:
		return "gauge"
	case KindHistogram:
		return "histogram"
	default:
		return "untyped"
	}
}

// Counter is a monotonically increasing atomic counter.
type Counter struct {
	v atomic.Uint64
}

// Inc adds one.
func (c *Counter) Inc() { c.Add(1) }

// Add adds n. Negative deltas are ignored: counters only go up.
func (c *Counter) Add(n uint64) {
	if c == nil {
		return
	}
	c.v.Add(n)
}

// Value returns the current count.
func (c *Counter) Value() uint64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is a float64 value that can go up and down.
type Gauge struct {
	bits atomic.Uint64
}

// Set replaces the gauge value.
func (g *Gauge) Set(v float64) {
	if g == nil {
		return
	}
	g.bits.Store(math.Float64bits(v))
}

// Add adjusts the gauge by delta.
func (g *Gauge) Add(delta float64) {
	if g == nil {
		return
	}
	for {
		old := g.bits.Load()
		v := math.Float64frombits(old) + delta
		if g.bits.CompareAndSwap(old, math.Float64bits(v)) {
			return
		}
	}
}

// Value returns the current gauge value.
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return math.Float64frombits(g.bits.Load())
}

// Histogram is a fixed-bucket histogram with atomic counts. Buckets
// are cumulative only at exposition time; Observe touches exactly one
// bucket counter plus the sum/count, so the hot path is two atomic
// adds and one CAS loop.
type Histogram struct {
	uppers  []float64 // ascending upper bounds, +Inf implicit
	counts  []atomic.Uint64
	count   atomic.Uint64
	sumBits atomic.Uint64
}

func newHistogram(uppers []float64) *Histogram {
	h := &Histogram{uppers: uppers}
	h.counts = make([]atomic.Uint64, len(uppers)+1) // last = +Inf
	return h
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	// Linear scan: bucket sets are small (~15) and the scan is
	// branch-predictable; binary search would not pay for itself.
	i := 0
	for i < len(h.uppers) && v > h.uppers[i] {
		i++
	}
	h.counts[i].Add(1)
	h.count.Add(1)
	for {
		old := h.sumBits.Load()
		s := math.Float64frombits(old) + v
		if h.sumBits.CompareAndSwap(old, math.Float64bits(s)) {
			return
		}
	}
}

// ObserveSince records the seconds elapsed since start.
func (h *Histogram) ObserveSince(start time.Time) {
	if h == nil {
		return
	}
	h.Observe(time.Since(start).Seconds())
}

// Count returns the number of observations.
func (h *Histogram) Count() uint64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// Sum returns the sum of all observed values.
func (h *Histogram) Sum() float64 {
	if h == nil {
		return 0
	}
	return math.Float64frombits(h.sumBits.Load())
}

// Quantile estimates the q-quantile (0 <= q <= 1) by linear
// interpolation inside the owning bucket — the usual histogram_quantile
// estimate. Returns NaN when the histogram is empty.
func (h *Histogram) Quantile(q float64) float64 {
	if h == nil {
		return math.NaN()
	}
	cum, _, _ := h.snapshot()
	return quantileFromCum(h.uppers, cum, q)
}

// quantileFromCum is the quantile estimate over cumulative bucket
// counts: find the bucket holding the q-th observation and interpolate
// linearly within it. Returning the bucket upper bound instead would
// systematically overstate latency on coarse bucket grids;
// TestQuantilePinnedDistributions pins the interpolation against known
// distributions.
func quantileFromCum(uppers []float64, cum []uint64, q float64) float64 {
	if len(cum) == 0 {
		return math.NaN()
	}
	total := cum[len(cum)-1]
	if total == 0 {
		return math.NaN()
	}
	rank := q * float64(total)
	lower := 0.0
	var prev uint64
	for i := range cum {
		n := cum[i] - prev
		upper := math.Inf(1)
		if i < len(uppers) {
			upper = uppers[i]
		}
		if n > 0 && float64(cum[i]) >= rank {
			if math.IsInf(upper, 1) {
				return lower // best effort for the overflow bucket
			}
			frac := (rank - float64(prev)) / float64(n)
			return lower + (upper-lower)*frac
		}
		if !math.IsInf(upper, 1) {
			lower = upper
		}
		prev = cum[i]
	}
	return lower
}

// snapshot returns cumulative bucket counts aligned with uppers+Inf.
func (h *Histogram) snapshot() (cum []uint64, count uint64, sum float64) {
	cum = make([]uint64, len(h.counts))
	var c uint64
	for i := range h.counts {
		c += h.counts[i].Load()
		cum[i] = c
	}
	return cum, h.count.Load(), h.Sum()
}

// DefBuckets is the default latency bucket set in seconds, spanning
// 100 µs (a warm memoized solve) to 10 s (a slow disk recovery).
var DefBuckets = []float64{
	1e-4, 2.5e-4, 5e-4, 1e-3, 2.5e-3, 5e-3, 1e-2, 2.5e-2,
	5e-2, 0.1, 0.25, 0.5, 1, 2.5, 5, 10,
}

// ByteBuckets sizes payloads: 256 B journal frames up to 64 MiB
// checkpoints.
var ByteBuckets = []float64{
	256, 1024, 4096, 16384, 65536, 262144, 1048576,
	4194304, 16777216, 67108864,
}

// family is one named metric with all its labeled children.
type family struct {
	name    string
	help    string
	kind    Kind
	labels  []string // label names, empty for single-series families
	buckets []float64

	mu       sync.Mutex
	children map[string]*child // key: joined label values
	order    []string          // insertion order of child keys

	// collect, when set, is invoked at exposition time to refresh or
	// replace the family's children (used for families derived from
	// stats snapshots, e.g. kernel scratch arenas per size class).
	collect func(set LabelSetter)
}

type child struct {
	values []string
	c      *Counter
	g      *Gauge
	h      *Histogram
	// cf ratchets the absolute float value of a collector-driven
	// counter child (stored as Float64bits). Counter atomics are
	// integers, but the exposition format's counters are floats, and
	// collected cumulative-seconds counters (e.g. solver-team busy
	// time) would render a useless floor without sub-integer
	// resolution.
	cf atomicFloatMax
}

// atomicFloatMax is a monotone float64 cell: Store only ever raises the
// value, matching the never-decreases contract of the counter it
// shadows.
type atomicFloatMax struct{ bits atomic.Uint64 }

func (a *atomicFloatMax) Store(v float64) {
	for {
		old := a.bits.Load()
		if math.Float64frombits(old) >= v || a.bits.CompareAndSwap(old, math.Float64bits(v)) {
			return
		}
	}
}

func (a *atomicFloatMax) Load() float64 { return math.Float64frombits(a.bits.Load()) }

// Registry holds metric families and renders them. The zero value is
// not usable; call NewRegistry.
type Registry struct {
	mu       sync.Mutex
	families map[string]*family
	order    []string
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{families: make(map[string]*family)}
}

// register creates a family, or fetches it when a plain instrument
// (counter, gauge, histogram, vec) asks again with the identical
// definition. Everything else panics: a kind, help, label or bucket
// mismatch, and any second registration of a collector-driven family —
// two call sites sharing one name would otherwise silently lose one of
// them.
func (r *Registry) register(name, help string, kind Kind, labels []string, buckets []float64, collect func(LabelSetter)) *family {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if f, ok := r.families[name]; ok {
		switch {
		case f.kind != kind:
			panic(fmt.Sprintf("obs: metric %q re-registered as %v (was %v)", name, kind, f.kind))
		case f.help != help || !slices.Equal(f.labels, labels) || !slices.Equal(f.buckets, buckets):
			panic(fmt.Sprintf("obs: metric %q re-registered with a different help, label set or bucket layout", name))
		case f.collect != nil || collect != nil:
			panic(fmt.Sprintf("obs: collector-driven metric %q registered twice", name))
		}
		return f
	}
	f := &family{
		name: name, help: help, kind: kind,
		labels: labels, buckets: buckets,
		children: make(map[string]*child),
		collect:  collect,
	}
	r.families[name] = f
	r.order = append(r.order, name)
	return f
}

const labelSep = "\x1f"

func (f *family) childFor(values []string) *child {
	if f == nil {
		return nil
	}
	if len(values) != len(f.labels) {
		panic(fmt.Sprintf("obs: metric %q wants %d label values, got %d", f.name, len(f.labels), len(values)))
	}
	key := strings.Join(values, labelSep)
	f.mu.Lock()
	defer f.mu.Unlock()
	if ch, ok := f.children[key]; ok {
		return ch
	}
	ch := &child{values: append([]string(nil), values...)}
	switch f.kind {
	case KindCounter:
		ch.c = new(Counter)
	case KindGauge:
		ch.g = new(Gauge)
	case KindHistogram:
		ch.h = newHistogram(f.buckets)
	}
	f.children[key] = ch
	f.order = append(f.order, key)
	return ch
}

// NewCounter registers (or fetches) a single-series counter.
func (r *Registry) NewCounter(name, help string) *Counter {
	f := r.register(name, help, KindCounter, nil, nil, nil)
	if f == nil {
		return nil
	}
	return f.childFor(nil).c
}

// NewGauge registers (or fetches) a single-series gauge.
func (r *Registry) NewGauge(name, help string) *Gauge {
	f := r.register(name, help, KindGauge, nil, nil, nil)
	if f == nil {
		return nil
	}
	return f.childFor(nil).g
}

// NewHistogram registers (or fetches) a single-series histogram with
// the given ascending bucket upper bounds (nil = DefBuckets).
func (r *Registry) NewHistogram(name, help string, buckets []float64) *Histogram {
	if buckets == nil {
		buckets = DefBuckets
	}
	f := r.register(name, help, KindHistogram, nil, buckets, nil)
	if f == nil {
		return nil
	}
	return f.childFor(nil).h
}

// CounterVec is a counter family with a label set.
type CounterVec struct{ f *family }

// GaugeVec is a gauge family with a label set.
type GaugeVec struct{ f *family }

// HistogramVec is a histogram family with a label set.
type HistogramVec struct{ f *family }

// NewCounterVec registers a counter family keyed by labels.
func (r *Registry) NewCounterVec(name, help string, labels ...string) *CounterVec {
	f := r.register(name, help, KindCounter, labels, nil, nil)
	if f == nil {
		return nil
	}
	return &CounterVec{f: f}
}

// NewGaugeVec registers a gauge family keyed by labels.
func (r *Registry) NewGaugeVec(name, help string, labels ...string) *GaugeVec {
	f := r.register(name, help, KindGauge, labels, nil, nil)
	if f == nil {
		return nil
	}
	return &GaugeVec{f: f}
}

// NewHistogramVec registers a histogram family keyed by labels
// (nil buckets = DefBuckets).
func (r *Registry) NewHistogramVec(name, help string, buckets []float64, labels ...string) *HistogramVec {
	if buckets == nil {
		buckets = DefBuckets
	}
	f := r.register(name, help, KindHistogram, labels, buckets, nil)
	if f == nil {
		return nil
	}
	return &HistogramVec{f: f}
}

// With returns the counter child for the given label values, creating
// it on first use. Children are cached; hot paths should resolve once
// and hold the child.
func (v *CounterVec) With(values ...string) *Counter {
	if v == nil {
		return nil
	}
	return v.f.childFor(values).c
}

// With returns the gauge child for the given label values.
func (v *GaugeVec) With(values ...string) *Gauge {
	if v == nil {
		return nil
	}
	return v.f.childFor(values).g
}

// With returns the histogram child for the given label values.
func (v *HistogramVec) With(values ...string) *Histogram {
	if v == nil {
		return nil
	}
	return v.f.childFor(values).h
}

// LabelSetter lets a collector callback (re)populate a family's
// children at scrape time.
type LabelSetter interface {
	// Set replaces the value of the child for the given label values.
	Set(value float64, labelValues ...string)
	// Reset drops all children (for families whose label universe
	// shrinks between scrapes, e.g. arena bytes per active size class).
	Reset()
}

type familySetter struct{ f *family }

func (s familySetter) Set(value float64, labelValues ...string) {
	ch := s.f.childFor(labelValues)
	switch s.f.kind {
	case KindCounter:
		ch.cf.Store(value)
	case KindGauge:
		ch.g.Set(value)
	}
}

func (s familySetter) Reset() {
	s.f.mu.Lock()
	s.f.children = make(map[string]*child)
	s.f.order = nil
	s.f.mu.Unlock()
}

// RegisterGaugeFunc registers a labeled gauge family whose children
// are repopulated by collect at every scrape. collect runs with no
// registry locks held. A family name takes one collector: registering
// it again panics.
func (r *Registry) RegisterGaugeFunc(name, help string, collect func(set LabelSetter), labels ...string) {
	r.register(name, help, KindGauge, labels, nil, collect)
}

// RegisterCounterFunc registers a labeled counter family whose
// children are set from absolute values by collect at every scrape.
// Like RegisterGaugeFunc, it panics on a second registration.
func (r *Registry) RegisterCounterFunc(name, help string, collect func(set LabelSetter), labels ...string) {
	r.register(name, help, KindCounter, labels, nil, collect)
}

// sortedFamilies snapshots the family list in registration order.
func (r *Registry) sortedFamilies() []*family {
	r.mu.Lock()
	fams := make([]*family, 0, len(r.order))
	for _, name := range r.order {
		fams = append(fams, r.families[name])
	}
	r.mu.Unlock()
	sort.Slice(fams, func(i, j int) bool { return fams[i].name < fams[j].name })
	return fams
}
