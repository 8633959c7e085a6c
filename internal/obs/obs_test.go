package obs

import (
	"context"
	"math"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestNilSafety(t *testing.T) {
	// Every instrument and span must be a no-op on nil, mirroring
	// internal/fault: production code threads them unconditionally.
	var c *Counter
	c.Inc()
	c.Add(5)
	if c.Value() != 0 {
		t.Fatal("nil counter value")
	}
	var g *Gauge
	g.Set(3)
	g.Add(1)
	if g.Value() != 0 {
		t.Fatal("nil gauge value")
	}
	var h *Histogram
	h.Observe(1)
	h.ObserveSince(time.Now())
	if h.Count() != 0 || h.Sum() != 0 {
		t.Fatal("nil histogram")
	}
	if !math.IsNaN(h.Quantile(0.5)) {
		t.Fatal("nil histogram quantile")
	}
	var r *Registry
	if r.NewCounter("x_total", "x") != nil {
		t.Fatal("nil registry handed out a counter")
	}
	if r.NewHistogram("h", "h", nil) != nil {
		t.Fatal("nil registry handed out a histogram")
	}
	var cv *CounterVec
	cv.With("a").Inc()
	var gv *GaugeVec
	gv.With("a").Set(1)
	var hv *HistogramVec
	hv.With("a").Observe(1)
	if err := r.WritePrometheus(&strings.Builder{}); err != nil {
		t.Fatal(err)
	}

	var tr *Tracer
	s := tr.StartTrace("id", "root")
	if s != nil {
		t.Fatal("nil tracer returned a span")
	}
	s.SetAttr("k", "v")
	s.SetAttrInt("n", 7)
	c2 := s.Child("child")
	if c2 != nil {
		t.Fatal("nil span returned a child")
	}
	c2.End()
	s.End()
	if tr.Dump("id") != nil {
		t.Fatal("nil tracer dumped")
	}
	ctx := ContextWithSpan(context.Background(), nil)
	if SpanFrom(ctx) != nil {
		t.Fatal("nil span round-tripped through context")
	}
}

func TestCounterGauge(t *testing.T) {
	r := NewRegistry()
	c := r.NewCounter("test_ops_total", "ops")
	c.Inc()
	c.Add(4)
	if c.Value() != 5 {
		t.Fatalf("counter = %d, want 5", c.Value())
	}
	if again := r.NewCounter("test_ops_total", "ops"); again != c {
		t.Fatal("re-registration did not return the same counter")
	}
	g := r.NewGauge("test_depth", "depth")
	g.Set(2.5)
	g.Add(-0.5)
	if g.Value() != 2 {
		t.Fatalf("gauge = %g, want 2", g.Value())
	}
}

func TestHistogramBucketsAndQuantile(t *testing.T) {
	r := NewRegistry()
	h := r.NewHistogram("test_latency_seconds", "lat", []float64{0.1, 0.5, 1})
	for _, v := range []float64{0.05, 0.05, 0.3, 0.7, 2} {
		h.Observe(v)
	}
	if h.Count() != 5 {
		t.Fatalf("count = %d", h.Count())
	}
	if math.Abs(h.Sum()-3.1) > 1e-9 {
		t.Fatalf("sum = %g", h.Sum())
	}
	// p50 falls in the (0.1, 0.5] bucket.
	if q := h.Quantile(0.5); q <= 0.1 || q > 0.5 {
		t.Fatalf("p50 = %g, want in (0.1, 0.5]", q)
	}
	// p99 lands in the overflow bucket; estimate clamps to last bound.
	if q := h.Quantile(0.99); q != 1 {
		t.Fatalf("p99 = %g, want 1 (overflow clamp)", q)
	}
}

func TestVecChildrenCached(t *testing.T) {
	r := NewRegistry()
	v := r.NewCounterVec("test_route_total", "by route", "route", "code")
	a := v.With("/v1/jobs", "200")
	b := v.With("/v1/jobs", "200")
	if a != b {
		t.Fatal("same label values produced distinct children")
	}
	a.Inc()
	v.With("/v1/jobs", "500").Add(2)
	var sb strings.Builder
	if err := r.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		`test_route_total{route="/v1/jobs",code="200"} 1`,
		`test_route_total{route="/v1/jobs",code="500"} 2`,
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("exposition missing %q:\n%s", want, out)
		}
	}
}

func TestExpositionLintsClean(t *testing.T) {
	r := NewRegistry()
	r.NewCounter("test_ops_total", "ops so far")
	r.NewGauge("test_depth", "queue depth")
	h := r.NewHistogram("test_latency_seconds", "solve latency", nil)
	h.Observe(0.003)
	h.Observe(0.3)
	hv := r.NewHistogramVec("test_route_seconds", "per route", []float64{0.01, 0.1}, "route")
	hv.With("/metrics").Observe(0.005)
	hv.With(`we"ird\label` + "\n").Observe(0.5)
	cv := r.NewCounterVec("test_shard_total", "per shard", "shard")
	cv.With("0").Inc()
	sizes := map[string]float64{"24": 12, "48": 3}
	r.RegisterGaugeFunc("test_sizes", "per-n sizes", func(set LabelSetter) {
		set.Reset()
		for n, v := range sizes {
			set.Set(v, n)
		}
	}, "n")

	var sb strings.Builder
	if err := r.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	if probs := Lint(strings.NewReader(out)); len(probs) > 0 {
		t.Fatalf("own exposition fails lint: %v\n%s", probs, out)
	}
	for _, want := range []string{
		"# TYPE test_latency_seconds histogram",
		`test_latency_seconds_bucket{le="+Inf"} 2`,
		"test_latency_seconds_count 2",
		`test_sizes{n="24"} 12`,
		`le="0.01"`,
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("exposition missing %q:\n%s", want, out)
		}
	}
	// A second scrape after the collector's label set shrank drops the
	// stale child and keeps the live one.
	delete(sizes, "48")
	sb.Reset()
	if err := r.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	out = sb.String()
	if probs := Lint(strings.NewReader(out)); len(probs) > 0 {
		t.Fatalf("second scrape fails lint: %v", probs)
	}
	if !strings.Contains(out, `test_sizes{n="24"} 12`) || strings.Contains(out, `n="48"`) {
		t.Fatalf("shrunken collector kept a stale child or lost the live one:\n%s", out)
	}
}

// TestRegisterRefusesSecondDefinition: a plain instrument may be
// fetched again under its identical definition, but a second collector
// on one name, or a re-registration with another kind, help, label set
// or bucket layout, panics instead of silently replacing the family.
func TestRegisterRefusesSecondDefinition(t *testing.T) {
	r := NewRegistry()
	c := r.NewCounter("test_total", "a counter")
	if again := r.NewCounter("test_total", "a counter"); again != c {
		t.Fatal("identical re-registration returned a different counter")
	}
	r.NewHistogramVec("test_seconds", "a histogram", []float64{1, 2}, "route")
	collect := func(set LabelSetter) { set.Set(1) }
	r.RegisterGaugeFunc("test_collected", "a collected gauge", collect)

	for name, register := range map[string]func(){
		"kind":             func() { r.NewGauge("test_total", "a counter") },
		"help":             func() { r.NewCounter("test_total", "another counter") },
		"labels":           func() { r.NewCounterVec("test_total", "a counter", "route") },
		"buckets":          func() { r.NewHistogramVec("test_seconds", "a histogram", []float64{1, 3}, "route") },
		"second collector": func() { r.RegisterGaugeFunc("test_collected", "a collected gauge", collect) },
		"collector on instrument": func() {
			r.RegisterCounterFunc("test_total", "a counter", func(set LabelSetter) {})
		},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: re-registration did not panic", name)
				}
			}()
			register()
		}()
	}
}

// TestCollectedCounterFloatPrecision: a collector-driven counter must
// render its absolute value at full float precision (exposition
// counters are floats) — a cumulative-seconds counter fed 0.25 busy
// seconds renders 0.25, not the integer floor 0 — while ratcheting
// monotonically and keeping integer values integer-formatted.
func TestCollectedCounterFloatPrecision(t *testing.T) {
	r := NewRegistry()
	busy := 0.25
	r.RegisterCounterFunc("test_busy_seconds_total", "cumulative busy seconds",
		func(set LabelSetter) { set.Set(busy) })
	scrape := func() string {
		t.Helper()
		var sb strings.Builder
		if err := r.WritePrometheus(&sb); err != nil {
			t.Fatal(err)
		}
		if probs := Lint(strings.NewReader(sb.String())); len(probs) > 0 {
			t.Fatalf("exposition fails lint: %v\n%s", probs, sb.String())
		}
		return sb.String()
	}
	if out := scrape(); !strings.Contains(out, "test_busy_seconds_total 0.25\n") {
		t.Fatalf("fractional collected counter not rendered at full precision:\n%s", out)
	}
	// Counters never go backward: a smaller absolute value is ignored.
	busy = 0.1
	if out := scrape(); !strings.Contains(out, "test_busy_seconds_total 0.25\n") {
		t.Fatalf("collected counter went backward:\n%s", out)
	}
	busy = 3
	if out := scrape(); !strings.Contains(out, "test_busy_seconds_total 3\n") {
		t.Fatalf("integer value should render without a fraction:\n%s", out)
	}
}

func TestLintCatchesViolations(t *testing.T) {
	cases := map[string]string{
		"no TYPE": "some_metric 1\n",
		"duplicate series": "# HELP a_total a\n# TYPE a_total counter\n" +
			"a_total 1\na_total 2\n",
		"counter without _total": "# HELP a a\n# TYPE a counter\na 1\n",
		"bad label escaping": "# HELP a a\n# TYPE a gauge\n" +
			"a{l=\"x\\q\"} 1\n",
		"non-monotonic buckets": "# HELP h h\n# TYPE h histogram\n" +
			"h_bucket{le=\"0.1\"} 5\nh_bucket{le=\"1\"} 3\nh_bucket{le=\"+Inf\"} 5\n" +
			"h_sum 1\nh_count 5\n",
		"missing +Inf": "# HELP h h\n# TYPE h histogram\n" +
			"h_bucket{le=\"0.1\"} 5\nh_sum 1\nh_count 5\n",
		"count mismatch": "# HELP h h\n# TYPE h histogram\n" +
			"h_bucket{le=\"+Inf\"} 4\nh_sum 1\nh_count 5\n",
		"invalid metric name": "# HELP 9bad b\n# TYPE 9bad gauge\n9bad 1\n",
	}
	for name, in := range cases {
		if probs := Lint(strings.NewReader(in)); len(probs) == 0 {
			t.Errorf("%s: lint found nothing in %q", name, in)
		}
	}
	clean := "# HELP ok_total fine\n# TYPE ok_total counter\nok_total{a=\"b\\\"c\\\\d\\n\"} 3\n"
	if probs := Lint(strings.NewReader(clean)); len(probs) != 0 {
		t.Errorf("clean input flagged: %v", probs)
	}
}

func TestHistogramConcurrent(t *testing.T) {
	r := NewRegistry()
	h := r.NewHistogram("test_conc_seconds", "c", nil)
	var wg sync.WaitGroup
	const gor, per = 8, 1000
	for g := 0; g < gor; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < per; i++ {
				h.Observe(0.001)
			}
		}()
	}
	wg.Wait()
	if h.Count() != gor*per {
		t.Fatalf("count = %d, want %d", h.Count(), gor*per)
	}
	if math.Abs(h.Sum()-gor*per*0.001) > 1e-6 {
		t.Fatalf("sum = %g", h.Sum())
	}
}

func TestTracerSpansAndDump(t *testing.T) {
	tr := NewTracer(4)
	root := tr.StartTrace("job-1", "job")
	root.SetAttr("algorithm", "ADMV*")
	ctx := ContextWithSpan(context.Background(), root)
	if SpanFrom(ctx) != root {
		t.Fatal("context did not carry the span")
	}
	seg := SpanFrom(ctx).Child("segment")
	task := seg.Child("task")
	task.SetAttrInt("pos", 7)
	task.End()
	seg.End()

	// Active traces are dumpable before the root ends.
	if d := tr.Dump("job-1"); d == nil || d.Done {
		t.Fatalf("active dump = %+v", d)
	}
	root.End()
	d := tr.Dump("job-1")
	if d == nil || !d.Done || d.Spans != 3 {
		t.Fatalf("dump = %+v", d)
	}
	if d.Root.Name != "job" || d.Root.Attrs["algorithm"] != "ADMV*" {
		t.Fatalf("root = %+v", d.Root)
	}
	if len(d.Root.Children) != 1 || d.Root.Children[0].Name != "segment" {
		t.Fatalf("children = %+v", d.Root.Children)
	}
	tk := d.Root.Children[0].Children[0]
	if tk.Name != "task" || tk.Attrs["pos"] != "7" {
		t.Fatalf("task span = %+v", tk)
	}
	if tk.StartNs < 0 || tk.DurNs < 0 {
		t.Fatalf("span timing went backwards: %+v", tk)
	}

	// Children after the root ends are dropped, not recorded.
	if root.Child("late") != nil {
		t.Fatal("child created after trace end")
	}
}

func TestTracerRingEviction(t *testing.T) {
	tr := NewTracer(2)
	for _, id := range []string{"a", "b", "c"} {
		s := tr.StartTrace(id, "t")
		s.Child("c").End()
		s.End()
	}
	if tr.Dump("a") != nil {
		t.Fatal("evicted trace still dumpable")
	}
	if tr.Dump("b") == nil || tr.Dump("c") == nil {
		t.Fatal("retained traces lost")
	}
	ids := tr.RecentIDs()
	if len(ids) != 2 {
		t.Fatalf("recent ids = %v", ids)
	}
}

func TestTracerSpanCap(t *testing.T) {
	tr := NewTracer(1)
	root := tr.StartTrace("big", "t")
	made := 0
	for i := 0; i < maxSpansPerTrace+10; i++ {
		if c := root.Child("c"); c != nil {
			c.End()
			made++
		}
	}
	root.End()
	d := tr.Dump("big")
	if d.Spans != maxSpansPerTrace {
		t.Fatalf("spans = %d, want %d", d.Spans, maxSpansPerTrace)
	}
	if d.Dropped != 11 { // +10 overflow plus the root's own slot
		t.Fatalf("dropped = %d", d.Dropped)
	}
	if made != maxSpansPerTrace-1 {
		t.Fatalf("made = %d", made)
	}
}

func TestConcurrentChildren(t *testing.T) {
	tr := NewTracer(1)
	root := tr.StartTrace("conc", "t")
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				c := root.Child("w")
				c.SetAttrInt("i", int64(i))
				c.End()
			}
		}()
	}
	wg.Wait()
	root.End()
	d := tr.Dump("conc")
	if d.Spans != 401 {
		t.Fatalf("spans = %d, want 401", d.Spans)
	}
}

func TestDumpTextQuantiles(t *testing.T) {
	r := NewRegistry()
	h := r.NewHistogram("solve_seconds", "solve", nil)
	for i := 0; i < 100; i++ {
		h.Observe(0.002)
	}
	r.NewCounter("ops_total", "ops").Add(3)
	var sb strings.Builder
	r.DumpText(&sb)
	out := sb.String()
	if !strings.Contains(out, "solve_seconds") || !strings.Contains(out, "p99=") {
		t.Fatalf("dump missing histogram summary:\n%s", out)
	}
	if !strings.Contains(out, "ops_total") {
		t.Fatalf("dump missing counter:\n%s", out)
	}
}

func BenchmarkSpanChild(b *testing.B) {
	tr := NewTracer(4)
	root := tr.StartTrace("bench", "t")
	defer root.End()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s := root.Child("op")
		s.End()
		if i%4000 == 0 { // stay under the per-trace cap
			root.End()
			root = tr.StartTrace("bench", "t")
		}
	}
}

func BenchmarkNilSpan(b *testing.B) {
	var s *Span
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c := s.Child("op")
		c.SetAttrInt("i", int64(i))
		c.End()
	}
}
