package main

import (
	"strings"
	"testing"
)

const sample = `goos: linux
goarch: amd64
pkg: chainckpt/internal/core
cpu: Intel(R) Xeon(R) Processor @ 2.10GHz
BenchmarkKernelPlan/ADMVStar-50    	     420	   2837029 ns/op	   23516 B/op	       6 allocs/op
BenchmarkReplanSuffix-8            	    4810	    247545 ns/op	    6872 B/op	       6 allocs/op
PASS
ok  	chainckpt/internal/core	2.240s
pkg: chainckpt
BenchmarkFigure5Hera-8             	       2	 512345678 ns/op	        12.3 twolevel_gain_%	         4.56 partial_gain_%
ok  	chainckpt	1.100s
`

func TestParse(t *testing.T) {
	rep, err := parse(strings.NewReader(sample))
	if err != nil {
		t.Fatal(err)
	}
	if rep.GOOS != "linux" || rep.GOARCH != "amd64" || !strings.Contains(rep.CPU, "Xeon") {
		t.Errorf("bad header: %+v", rep)
	}
	if len(rep.Benchmarks) != 3 {
		t.Fatalf("parsed %d benchmarks, want 3", len(rep.Benchmarks))
	}
	b := rep.Benchmarks[0]
	if b.Package != "chainckpt/internal/core" || b.Name != "BenchmarkKernelPlan/ADMVStar-50" {
		t.Errorf("bad identity: %+v", b)
	}
	if b.Runs != 420 || b.NsPerOp != 2837029 || b.BytesPerOp != 23516 || b.AllocsPerOp != 6 {
		t.Errorf("bad values: %+v", b)
	}
	fig := rep.Benchmarks[2]
	if fig.Package != "chainckpt" {
		t.Errorf("pkg header not tracked across packages: %+v", fig)
	}
	if fig.Metrics["twolevel_gain_%"] != 12.3 || fig.Metrics["partial_gain_%"] != 4.56 {
		t.Errorf("custom metrics lost: %+v", fig.Metrics)
	}
}

func TestParseRejectsEmpty(t *testing.T) {
	if _, err := parse(strings.NewReader("PASS\nok \tx\t0.1s\n")); err == nil {
		t.Fatal("empty input accepted")
	}
}

func TestTrimCPUSuffix(t *testing.T) {
	for _, tc := range []struct{ in, want string }{
		{"BenchmarkKernelPlan/ADMVStar-50-8", "BenchmarkKernelPlan/ADMVStar-50"},
		{"BenchmarkKernelPlan/ADMVStar-50", "BenchmarkKernelPlan/ADMVStar"}, // one trim step; lookup tries raw first
		{"BenchmarkReplanSuffix-8", "BenchmarkReplanSuffix"},
		{"BenchmarkReplanSuffix", "BenchmarkReplanSuffix"},
		{"BenchmarkKernelParallelSolve/skew/w4-4", "BenchmarkKernelParallelSolve/skew/w4"},
		{"BenchmarkFoo-", "BenchmarkFoo-"},
	} {
		if got := trimCPUSuffix(tc.in); got != tc.want {
			t.Errorf("trimCPUSuffix(%q) = %q, want %q", tc.in, got, tc.want)
		}
	}
}

// report builds a Report from (name, ns/op, allocs/op) triples.
func report(benches ...Benchmark) *Report { return &Report{Benchmarks: benches} }

func TestCheckRegressionKernelAllocs(t *testing.T) {
	base := report(Benchmark{Name: "BenchmarkKernelPlan/ADMV-20", AllocsPerOp: 5})
	// Within tolerance: identical, and names may carry a GOMAXPROCS
	// suffix on either side.
	for _, cur := range []*Report{
		report(Benchmark{Name: "BenchmarkKernelPlan/ADMV-20", AllocsPerOp: 5}),
		report(Benchmark{Name: "BenchmarkKernelPlan/ADMV-20-8", AllocsPerOp: 5}),
	} {
		if p := checkRegression(cur, base, 0.15); len(p) != 0 {
			t.Errorf("unexpected regression: %v", p)
		}
	}
	// A warm kernel that stopped pooling fails the gate.
	cur := report(Benchmark{Name: "BenchmarkKernelPlan/ADMV-20-8", AllocsPerOp: 30})
	if p := checkRegression(cur, base, 0.15); len(p) != 1 {
		t.Errorf("alloc regression not flagged: %v", p)
	}
	// The cold benchmark must not be mistaken for the warm one.
	base2 := report(Benchmark{Name: "BenchmarkKernelPlanCold/ADMV-20", AllocsPerOp: 36})
	cur2 := report(Benchmark{Name: "BenchmarkKernelPlanCold/ADMV-20", AllocsPerOp: 80})
	if p := checkRegression(cur2, base2, 0.15); len(p) != 0 {
		t.Errorf("cold-path allocs wrongly gated: %v", p)
	}
}

func TestCheckRegressionParallelSpeedup(t *testing.T) {
	base := report(
		Benchmark{Name: "BenchmarkKernelParallelSolve/n1000/w1", NsPerOp: 100, AllocsPerOp: 19},
		Benchmark{Name: "BenchmarkKernelParallelSolve/n1000/w4", NsPerOp: 90},
		Benchmark{Name: "BenchmarkKernelParallelSolve/n4000/w1", NsPerOp: 4000, AllocsPerOp: 19},
		Benchmark{Name: "BenchmarkKernelParallelSolve/n4000/w4", NsPerOp: 1000}, // 4x at the largest n
		Benchmark{Name: "BenchmarkKernelParallelSolve/skew/w1", NsPerOp: 300, AllocsPerOp: 19},
		Benchmark{Name: "BenchmarkKernelParallelSolve/skew/w4", NsPerOp: 100}, // 3x on the skewed shape
	)
	// Same ratios at different absolute speeds: fine across machines.
	// Only the largest n is gated, so n1000 may drift.
	ok := report(
		Benchmark{Name: "BenchmarkKernelParallelSolve/n1000/w1-8", NsPerOp: 500, AllocsPerOp: 19},
		Benchmark{Name: "BenchmarkKernelParallelSolve/n1000/w4-8", NsPerOp: 900},
		Benchmark{Name: "BenchmarkKernelParallelSolve/n4000/w1-8", NsPerOp: 40000, AllocsPerOp: 19},
		Benchmark{Name: "BenchmarkKernelParallelSolve/n4000/w4-8", NsPerOp: 10000},
		Benchmark{Name: "BenchmarkKernelParallelSolve/skew/w1-8", NsPerOp: 3000, AllocsPerOp: 19},
		Benchmark{Name: "BenchmarkKernelParallelSolve/skew/w4-8", NsPerOp: 1000},
	)
	if p := checkRegression(ok, base, 0.15); len(p) != 0 {
		t.Errorf("unexpected regression: %v", p)
	}
	// The largest-n speedup collapsed 4x -> 2x: flagged.
	badCurve := report(
		Benchmark{Name: "BenchmarkKernelParallelSolve/n4000/w1", NsPerOp: 4000, AllocsPerOp: 19},
		Benchmark{Name: "BenchmarkKernelParallelSolve/n4000/w4", NsPerOp: 2000},
		Benchmark{Name: "BenchmarkKernelParallelSolve/skew/w1", NsPerOp: 300, AllocsPerOp: 19},
		Benchmark{Name: "BenchmarkKernelParallelSolve/skew/w4", NsPerOp: 100},
	)
	if p := checkRegression(badCurve, base, 0.15); len(p) != 1 {
		t.Errorf("curve regression not flagged: %v", p)
	}
	// The skew-lane speedup collapsed: flagged independently.
	badSkew := report(
		Benchmark{Name: "BenchmarkKernelParallelSolve/n4000/w1", NsPerOp: 4000, AllocsPerOp: 19},
		Benchmark{Name: "BenchmarkKernelParallelSolve/n4000/w4", NsPerOp: 1000},
		Benchmark{Name: "BenchmarkKernelParallelSolve/skew/w1", NsPerOp: 300, AllocsPerOp: 19},
		Benchmark{Name: "BenchmarkKernelParallelSolve/skew/w4", NsPerOp: 290},
	)
	if p := checkRegression(badSkew, base, 0.15); len(p) != 1 {
		t.Errorf("skew regression not flagged: %v", p)
	}
	// The serial lane stopped pooling: allocs gate fires.
	badAllocs := report(
		Benchmark{Name: "BenchmarkKernelParallelSolve/n4000/w1", NsPerOp: 4000, AllocsPerOp: 400},
		Benchmark{Name: "BenchmarkKernelParallelSolve/n4000/w4", NsPerOp: 1000},
		Benchmark{Name: "BenchmarkKernelParallelSolve/skew/w1", NsPerOp: 300, AllocsPerOp: 19},
		Benchmark{Name: "BenchmarkKernelParallelSolve/skew/w4", NsPerOp: 100},
	)
	if p := checkRegression(badAllocs, base, 0.15); len(p) != 1 {
		t.Errorf("serial-lane alloc regression not flagged: %v", p)
	}
}

func TestMedianRepeats(t *testing.T) {
	got := medianRepeats([]Benchmark{
		{Package: "p", Name: "BenchmarkA", Runs: 10, NsPerOp: 300, AllocsPerOp: 5},
		{Package: "p", Name: "BenchmarkB", Runs: 7, NsPerOp: 50},
		{Package: "p", Name: "BenchmarkA", Runs: 11, NsPerOp: 100, AllocsPerOp: 9},
		{Package: "q", Name: "BenchmarkA", Runs: 1, NsPerOp: 1},
		{Package: "p", Name: "BenchmarkA", Runs: 12, NsPerOp: 200, AllocsPerOp: 5},
		{Package: "p", Name: "BenchmarkB", Runs: 8, NsPerOp: 70},
	})
	want := []Benchmark{
		{Package: "p", Name: "BenchmarkA", Runs: 10, NsPerOp: 200, AllocsPerOp: 5},
		{Package: "p", Name: "BenchmarkB", Runs: 7, NsPerOp: 60},
		{Package: "q", Name: "BenchmarkA", Runs: 1, NsPerOp: 1},
	}
	if len(got) != len(want) {
		t.Fatalf("got %d entries, want %d: %+v", len(got), len(want), got)
	}
	for i := range want {
		if got[i].Package != want[i].Package || got[i].Name != want[i].Name || got[i].Runs != want[i].Runs ||
			got[i].NsPerOp != want[i].NsPerOp || got[i].AllocsPerOp != want[i].AllocsPerOp {
			t.Errorf("entry %d: got %+v, want %+v", i, got[i], want[i])
		}
	}
}
