// Command benchjson converts `go test -bench` output into a JSON
// document, so benchmark runs can be committed as machine-readable
// artifacts (BENCH_solver.json at the repo root) and uploaded from CI,
// giving the perf trajectory of the solver kernel a durable record.
//
// Usage:
//
//	go test -run xxx -bench . -benchmem ./... | go run ./cmd/benchjson -o BENCH.json
//
// The parser understands the standard benchmark line shape — name,
// iteration count, then (value, unit) pairs such as ns/op, B/op,
// allocs/op — plus testing.B.ReportMetric custom units, and tracks the
// goos/goarch/pkg/cpu headers go test prints per package.
//
// With -baseline FILE, benchjson additionally gates the run against a
// committed report (the CI bench-regression step): it exits non-zero
// when the pooled-solve allocation counts or the in-kernel w1/w4
// parallel speedups regress more than -tolerance (default 15%) versus
// the baseline. The speedup check compares the serial/team ratio within
// each run, not absolute ns/op, and benchmark names are matched with
// the GOMAXPROCS "-N" suffix stripped; a speedup is bounded by the core
// count, so the committed 2-vCPU baseline gates only runs on at least
// 2 CPUs.
//
// A benchmark repeated with -count N appears once in the report, with
// the median of its N ns/op, B/op and allocs/op values, so one noisy
// repeat can neither fail the gate nor land in a committed baseline.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"slices"
	"strconv"
	"strings"
)

// Benchmark is one parsed benchmark result line.
type Benchmark struct {
	Package     string             `json:"package,omitempty"`
	Name        string             `json:"name"`
	Runs        int64              `json:"runs"`
	NsPerOp     float64            `json:"ns_per_op,omitempty"`
	BytesPerOp  float64            `json:"bytes_per_op,omitempty"`
	AllocsPerOp float64            `json:"allocs_per_op,omitempty"`
	Metrics     map[string]float64 `json:"metrics,omitempty"`
}

// Report is the full JSON document.
type Report struct {
	GOOS       string      `json:"goos,omitempty"`
	GOARCH     string      `json:"goarch,omitempty"`
	CPU        string      `json:"cpu,omitempty"`
	Benchmarks []Benchmark `json:"benchmarks"`
}

// parse consumes `go test -bench` output and returns the report.
func parse(r io.Reader) (*Report, error) {
	rep := &Report{}
	pkg := ""
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1024*1024), 1024*1024)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		switch {
		case strings.HasPrefix(line, "goos: "):
			rep.GOOS = strings.TrimPrefix(line, "goos: ")
			continue
		case strings.HasPrefix(line, "goarch: "):
			rep.GOARCH = strings.TrimPrefix(line, "goarch: ")
			continue
		case strings.HasPrefix(line, "cpu: "):
			rep.CPU = strings.TrimPrefix(line, "cpu: ")
			continue
		case strings.HasPrefix(line, "pkg: "):
			pkg = strings.TrimPrefix(line, "pkg: ")
			continue
		case !strings.HasPrefix(line, "Benchmark"):
			continue
		}
		fields := strings.Fields(line)
		if len(fields) < 2 {
			continue
		}
		runs, err := strconv.ParseInt(fields[1], 10, 64)
		if err != nil {
			continue // a header like "BenchmarkFoo" alone, or garbage
		}
		b := Benchmark{Package: pkg, Name: fields[0], Runs: runs}
		for i := 2; i+1 < len(fields); i += 2 {
			v, err := strconv.ParseFloat(fields[i], 64)
			if err != nil {
				return nil, fmt.Errorf("benchjson: %q: bad value %q", fields[0], fields[i])
			}
			switch unit := fields[i+1]; unit {
			case "ns/op":
				b.NsPerOp = v
			case "B/op":
				b.BytesPerOp = v
			case "allocs/op":
				b.AllocsPerOp = v
			default:
				if b.Metrics == nil {
					b.Metrics = make(map[string]float64)
				}
				b.Metrics[unit] = v
			}
		}
		rep.Benchmarks = append(rep.Benchmarks, b)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if len(rep.Benchmarks) == 0 {
		return nil, fmt.Errorf("benchjson: no benchmark lines found in input")
	}
	return rep, nil
}

// medianRepeats collapses repeated results of one benchmark (go test
// -count N prints each name N times) into a single entry at the
// position of its first occurrence, whose ns/op, B/op and allocs/op are
// the medians over the repeats; its runs and custom metrics are those
// of the first repeat.
func medianRepeats(benches []Benchmark) []Benchmark {
	type key struct{ pkg, name string }
	groups := map[key][]Benchmark{}
	var out []Benchmark
	for _, b := range benches {
		k := key{b.Package, b.Name}
		if _, seen := groups[k]; !seen {
			out = append(out, b)
		}
		groups[k] = append(groups[k], b)
	}
	for i, b := range out {
		g := groups[key{b.Package, b.Name}]
		out[i].NsPerOp = median(g, func(b Benchmark) float64 { return b.NsPerOp })
		out[i].BytesPerOp = median(g, func(b Benchmark) float64 { return b.BytesPerOp })
		out[i].AllocsPerOp = median(g, func(b Benchmark) float64 { return b.AllocsPerOp })
	}
	return out
}

// median returns the median of one field over a non-empty group: the
// middle value, or the mean of the two middle values for an even count.
func median(g []Benchmark, field func(Benchmark) float64) float64 {
	v := make([]float64, len(g))
	for i, b := range g {
		v[i] = field(b)
	}
	slices.Sort(v)
	m := len(v) / 2
	if len(v)%2 == 1 {
		return v[m]
	}
	return (v[m-1] + v[m]) / 2
}

// trimCPUSuffix strips the "-N" GOMAXPROCS suffix go test appends to
// benchmark names (absent when GOMAXPROCS is 1), so reports recorded on
// machines with different core counts still match up.
func trimCPUSuffix(name string) string {
	i := strings.LastIndexByte(name, '-')
	if i < 0 || i == len(name)-1 {
		return name
	}
	for _, r := range name[i+1:] {
		if r < '0' || r > '9' {
			return name
		}
	}
	return name[:i]
}

// indexByName maps both the raw and suffix-trimmed name of every
// benchmark to its result (raw names win on collision).
func indexByName(rep *Report) map[string]Benchmark {
	m := make(map[string]Benchmark, 2*len(rep.Benchmarks))
	for _, b := range rep.Benchmarks {
		if t := trimCPUSuffix(b.Name); t != b.Name {
			if _, ok := m[t]; !ok {
				m[t] = b
			}
		}
	}
	for _, b := range rep.Benchmarks {
		m[b.Name] = b
	}
	return m
}

// lookup resolves a baseline benchmark name in the current run's index,
// tolerating a GOMAXPROCS suffix on either side.
func lookup(idx map[string]Benchmark, name string) (Benchmark, bool) {
	if b, ok := idx[name]; ok {
		return b, true
	}
	b, ok := idx[trimCPUSuffix(name)]
	return b, ok
}

// parallelBench is the kernel solve benchmark family whose in-kernel
// speedup is gated.
const parallelBench = "BenchmarkKernelParallelSolve"

// parallelSpeedup returns the w1/w4 ns-per-op ratio of parallelBench at
// one shape label — "n4000", or the "skew" lane: the run's measured
// in-kernel parallel speedup. It is bounded by the core count of the
// machine that ran it, so a baseline recorded with N CPUs gates only
// runs with at least N: a 1-CPU run of the committed 2-vCPU baseline
// measures ~1.0 against a ~1.8 recording and fails.
func parallelSpeedup(idx map[string]Benchmark, shapeLabel string) (float64, bool) {
	serial, ok1 := lookup(idx, parallelBench+"/"+shapeLabel+"/w1")
	team, ok2 := lookup(idx, parallelBench+"/"+shapeLabel+"/w4")
	if !ok1 || !ok2 || serial.NsPerOp <= 0 || team.NsPerOp <= 0 {
		return 0, false
	}
	return serial.NsPerOp / team.NsPerOp, true
}

// largestParallelN returns the biggest chain-length label ("n4000")
// present among a report's parallelBench results.
func largestParallelN(rep *Report) (string, bool) {
	best := -1
	for _, b := range rep.Benchmarks {
		name := trimCPUSuffix(b.Name)
		rest, ok := strings.CutPrefix(name, parallelBench+"/n")
		if !ok {
			continue
		}
		digits, _, ok := strings.Cut(rest, "/")
		if !ok {
			continue
		}
		n, err := strconv.Atoi(digits)
		if err == nil && n > best {
			best = n
		}
	}
	if best < 0 {
		return "", false
	}
	return fmt.Sprintf("n%d", best), true
}

// checkRegression compares the current report against the committed
// baseline and returns one message per regression beyond tol (a
// fraction, e.g. 0.15).
func checkRegression(cur, base *Report, tol float64) []string {
	var problems []string
	curIdx := indexByName(cur)

	// Warm-kernel allocation counts are machine-independent: pooled
	// solves must stay pooled.
	for _, bb := range base.Benchmarks {
		if !strings.HasPrefix(trimCPUSuffix(bb.Name), "BenchmarkKernelPlan/") {
			continue
		}
		cb, ok := lookup(curIdx, bb.Name)
		if !ok {
			continue
		}
		if cb.AllocsPerOp > bb.AllocsPerOp*(1+tol) {
			problems = append(problems, fmt.Sprintf(
				"%s: allocs/op %.1f vs baseline %.1f (>%+.0f%%) — the warm kernel stopped pooling",
				bb.Name, cb.AllocsPerOp, bb.AllocsPerOp, 100*tol))
		}
	}

	// The serial lane of the parallel-solve benchmark must stay pooled
	// too: a worker team thrashing fresh arenas shows up here first.
	for _, bb := range base.Benchmarks {
		name := trimCPUSuffix(bb.Name)
		if !strings.HasPrefix(name, parallelBench+"/") || !strings.HasSuffix(name, "/w1") {
			continue
		}
		cb, ok := lookup(curIdx, bb.Name)
		if !ok {
			continue
		}
		if cb.AllocsPerOp > bb.AllocsPerOp*(1+tol) {
			problems = append(problems, fmt.Sprintf(
				"%s: allocs/op %.1f vs baseline %.1f (>%+.0f%%) — the serial solve stopped pooling",
				bb.Name, cb.AllocsPerOp, bb.AllocsPerOp, 100*tol))
		}
	}

	// The in-kernel parallel speedup at the largest benched chain and on
	// the skewed lane: a within-run ratio, robust to the baseline and the
	// current run living on different hardware.
	baseIdx := indexByName(base)
	labels := []string{"skew"}
	if nLabel, ok := largestParallelN(base); ok {
		labels = append(labels, nLabel)
	}
	for _, label := range labels {
		baseRatio, ok := parallelSpeedup(baseIdx, label)
		if !ok {
			continue
		}
		curRatio, ok := parallelSpeedup(curIdx, label)
		if !ok {
			problems = append(problems, fmt.Sprintf(
				"%s %s: present in baseline but missing from this run", parallelBench, label))
			continue
		}
		if curRatio < baseRatio*(1-tol) {
			problems = append(problems, fmt.Sprintf(
				"%s %s: w1/w4 speedup %.2f vs baseline %.2f (>%.0f%% regression)",
				parallelBench, label, curRatio, baseRatio, 100*tol))
		}
	}
	return problems
}

func main() {
	out := flag.String("o", "", "output file (default stdout)")
	baseline := flag.String("baseline", "", "committed baseline JSON; exit non-zero when this run regresses against it")
	tolerance := flag.Float64("tolerance", 0.15, "allowed fractional regression vs the baseline")
	flag.Parse()

	rep, err := parse(os.Stdin)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	rep.Benchmarks = medianRepeats(rep.Benchmarks)
	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	data = append(data, '\n')
	if *out == "" {
		os.Stdout.Write(data)
	} else if err := os.WriteFile(*out, data, 0o644); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}

	if *baseline != "" {
		raw, err := os.ReadFile(*baseline)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		var base Report
		if err := json.Unmarshal(raw, &base); err != nil {
			fmt.Fprintf(os.Stderr, "benchjson: %s: %v\n", *baseline, err)
			os.Exit(1)
		}
		problems := checkRegression(rep, &base, *tolerance)
		for _, p := range problems {
			fmt.Fprintln(os.Stderr, "REGRESSION: "+p)
		}
		if len(problems) > 0 {
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "benchjson: no regressions vs %s (tolerance %.0f%%)\n", *baseline, 100**tolerance)
	}
}
