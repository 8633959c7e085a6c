//go:build amd64 && !amd64.v3

// The digests pin exact float64 bits recorded on amd64 at the default
// GOAMD64=v1. The Go spec lets a compiler fuse x*y+z into one FMA, and
// it does so on arm64, ppc64le, s390x, riscv64 and amd64 at v3 and up,
// which can move the last bit of a makespan; those builds skip the file.

package core

import (
	"crypto/sha256"
	"encoding/binary"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"chainckpt/internal/platform"
	"chainckpt/internal/schedule"
	"chainckpt/internal/workload"
)

var updateDigests = flag.Bool("update", false, "rewrite testdata/plan_digests.golden")

// digestPath pins the plans of the kernel: one line per instance, the
// SHA-256 of the expected makespan's IEEE-754 bits followed by the
// schedule string. Any change to the DP's arithmetic, scan order or
// tie-breaking shows up as a changed digest.
var digestPath = filepath.Join("testdata", "plan_digests.golden")

// digestShapes are the algorithm/size pairs the digests cover: the low,
// middle and high end of each algorithm's size range in the ledger's
// plan-cold workload.
var digestShapes = []struct {
	alg Algorithm
	n   int
}{
	{AlgADV, 60}, {AlgADV, 97}, {AlgADV, 160},
	{AlgADMVStar, 30}, {AlgADMVStar, 50}, {AlgADMVStar, 70},
	{AlgADMV, 10}, {AlgADMV, 16}, {AlgADMV, 22},
}

// digestCase is one pinned solve.
type digestCase struct {
	name string
	// solve runs the case through k with the given team width.
	solve func(k *Kernel, workers int) (*Result, error)
}

// digestCases enumerates every shape on every Table I platform and
// pattern with the default options, then five variants per shape (on
// the tie-prone uniform pattern, platforms in rotation): disk budgets
// of 1 and 3, disk checkpoints forbidden at every odd boundary,
// per-boundary costs, and a suffix re-plan from n/2 at 4x the rates.
func digestCases(t *testing.T) []digestCase {
	t.Helper()
	var cases []digestCase
	add := func(name string, alg Algorithm, pat workload.Pattern, n int, p platform.Platform, from int, opts Options) {
		c, err := workload.Generate(pat, n, workload.PaperTotalWeight)
		if err != nil {
			t.Fatal(err)
		}
		cases = append(cases, digestCase{name: name, solve: func(k *Kernel, workers int) (*Result, error) {
			o := opts
			o.SolveWorkers = workers
			return k.ReplanSuffix(alg, c, p, from, o)
		}})
	}
	for _, sh := range digestShapes {
		for _, p := range platform.All() {
			for _, pat := range workload.Patterns() {
				add(fmt.Sprintf("%s\t%d\t%s\t%s\tdefault", sh.alg, sh.n, p.Name, pat), sh.alg, pat, sh.n, p, 0, Options{})
			}
		}
	}
	for i, sh := range digestShapes {
		p := platform.All()[i%4]
		pat := workload.PatternUniform
		label := fmt.Sprintf("%s\t%d\t%s\t%s", sh.alg, sh.n, p.Name, pat)
		for _, budget := range []int{1, 3} {
			add(fmt.Sprintf("%s\tmaxdisk=%d", label, budget), sh.alg, pat, sh.n, p, 0, Options{MaxDiskCheckpoints: budget})
		}
		cons, err := NewConstraints(sh.n)
		if err != nil {
			t.Fatal(err)
		}
		for b := 1; b < sh.n; b += 2 {
			cons.Forbid(b, schedule.Disk)
		}
		add(label+"\tno-disk-at-odd", sh.alg, pat, sh.n, p, 0, Options{Constraints: cons})
		sizes := make([]float64, sh.n)
		for b := range sizes {
			sizes[b] = 0.5 + float64(b%7)/6
		}
		costs, err := platform.ScaledCosts(p, sizes)
		if err != nil {
			t.Fatal(err)
		}
		add(label+"\tscaled-costs", sh.alg, pat, sh.n, p, 0, Options{Costs: costs})
		drifted := p
		drifted.LambdaF *= 4
		drifted.LambdaS *= 4
		add(fmt.Sprintf("%s\tsuffix-from=%d-4x", label, sh.n/2), sh.alg, pat, sh.n, drifted, sh.n/2, Options{})
	}
	return cases
}

// planDigest hashes a result's makespan bits and schedule.
func planDigest(r *Result) string {
	h := sha256.New()
	var bits [8]byte
	binary.BigEndian.PutUint64(bits[:], math.Float64bits(r.ExpectedMakespan))
	h.Write(bits[:])
	h.Write([]byte(r.Schedule.String()))
	return fmt.Sprintf("%x", h.Sum(nil))
}

// TestPlanDigestsGolden solves every digest case serially and through
// teams of width 2 and 4 and requires each result to match the
// committed digest. Regenerate with -update only when a plan change is
// intended.
func TestPlanDigestsGolden(t *testing.T) {
	cases := digestCases(t)
	k := NewKernel()
	if *updateDigests {
		var b strings.Builder
		for _, c := range cases {
			r, err := c.solve(k, 1)
			if err != nil {
				t.Fatalf("%s: %v", c.name, err)
			}
			fmt.Fprintf(&b, "%s\t%s\n", c.name, planDigest(r))
		}
		if err := os.MkdirAll(filepath.Dir(digestPath), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(digestPath, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	raw, err := os.ReadFile(digestPath)
	if err != nil {
		t.Fatalf("missing digest file (run go test -run PlanDigests -update): %v", err)
	}
	want := map[string]string{}
	for _, line := range strings.Split(strings.TrimSuffix(string(raw), "\n"), "\n") {
		i := strings.LastIndexByte(line, '\t')
		if i < 0 {
			t.Fatalf("malformed digest line %q", line)
		}
		want[line[:i]] = line[i+1:]
	}
	if len(want) != len(cases) {
		t.Fatalf("digest file has %d entries, the suite defines %d", len(want), len(cases))
	}
	for _, c := range cases {
		d, ok := want[c.name]
		if !ok {
			t.Fatalf("no digest for %q", c.name)
		}
		for _, w := range []int{1, 2, 4} {
			r, err := c.solve(k, w)
			if err != nil {
				t.Fatalf("%s w=%d: %v", c.name, w, err)
			}
			if got := planDigest(r); got != d {
				t.Errorf("%s w=%d: digest %s, want %s (makespan %v, schedule %s)",
					strings.ReplaceAll(c.name, "\t", " "), w, got, d, r.ExpectedMakespan, r.Schedule)
			}
		}
	}
}
