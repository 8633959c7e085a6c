// Command ledgerbench is chainckpt's end-to-end benchmark: it spawns a
// freshly built chainserve, drives it over loopback HTTP with one of
// three closed-loop workloads, checks every answer against in-process
// references, and prints the end-to-end metrics. With -trace 1 it also
// replays the same op stream in-process through the layers chainserve
// composes (ops, engine, core, runtime, jobstore, replay), timing each
// call from the benchmark's own code, and prints per-layer metrics
// instead.
//
// Workloads (closed loops: the callers are planners and schedulers that
// wait for their reply; at most 2 connections on a 2-CPU host):
//
//	plan-hot      1 connection, POST /v1/plan over 256 primed instances:
//	              the fixed cost of a request (HTTP, JSON, admission,
//	              memo hit); the DP kernel is bypassed.
//	plan-cold     1 connection, POST /v1/plan/batch of 8 never-seen
//	              instances: the kernel and the engine's fan-out over its
//	              shards; the memo is bypassed.
//	jobs-durable  2 connections, POST /v1/jobs then GET .../events to
//	              EOF, with -store-dir on the real disk and the job table
//	              at its retention cap: runtime, checkpoint commit,
//	              journal and replay; the kernel is mostly bypassed
//	              (16 primed instances).
//
// BENCHMARK.json gates plan-cold and jobs-durable only. plan-hot stays
// runnable by hand, but its sub-millisecond ping-pong is the workload
// most exposed to the shared host: over ten seeds its p50 and p99
// spread up to 27% between quartiles, past the 25% bound.
//
// Run it from the repository root through ledgerbench/run.sh, which
// builds this program and chainserve into .bench_build:
//
//	bash ledgerbench/run.sh --workload plan-hot --seed 1 --seconds 30 --trace 0
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics; the line before it carries
// the run's provenance (seed, CPU count, commit, per-status counts and
// the sample count behind every percentile).
package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io/fs"
	"math"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	goruntime "runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"time"
)

func main() {
	os.Exit(run())
}

func run() int {
	root := flag.String("root", ".", "repository checkout to run in")
	bin := flag.String("server", ".bench_build/chainserve", "chainserve binary")
	name := flag.String("workload", "", "plan-hot, plan-cold or jobs-durable")
	seed := flag.Uint64("seed", 1, "workload seed")
	seconds := flag.Int("seconds", 30, "timed-phase length in seconds")
	trace := flag.Int("trace", 0, "1 replays the op stream in-process and reports per-layer metrics")
	flag.Parse()

	res, err := bench(*root, *bin, *name, *seed, time.Duration(*seconds)*time.Second, *trace == 1)
	if err != nil {
		fmt.Fprintln(os.Stderr, "ledgerbench:", err)
		return 2
	}
	prov, _ := json.Marshal(map[string]any{"provenance": res.prov})
	fmt.Println(string(prov))
	out, _ := json.Marshal(res.result)
	fmt.Println(string(out))
	if !res.result.Correct {
		fmt.Fprintln(os.Stderr, "ledgerbench: correctness checks failed:", strings.Join(res.problems, "; "))
		return 1
	}
	return 0
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type benchOutput struct {
	result   result
	prov     map[string]any
	problems []string
}

// setupOps draws the traffic setup sends after the primed instances:
// warm-up batches for plan-cold, and enough jobs for jobs-durable to
// fill chainserve's job table to its retention cap.
func (w *workloadGen) setupOps() []op {
	var n int
	switch w.name {
	case "plan-cold":
		n = 4
	case "jobs-durable":
		n = jobTableCap
	}
	out := make([]op, n)
	for i := range out {
		out[i] = w.next()
	}
	return out
}

// prime brings a freshly started chainserve to the workload's steady
// state: primed instances in the memo, then the setup traffic.
func (w *workloadGen) prime(ctx context.Context, srv *server, warm []op) error {
	c := newClient(w.conns)
	defer c.CloseIdleConnections()
	for i := 0; i < w.primed; i++ {
		body, err := json.Marshal(w.insts[i].wire())
		if err != nil {
			return err
		}
		if status, out, err := fetch(ctx, c, http.MethodPost, srv.base+"/v1/plan", body); err != nil || status != 200 {
			return fmt.Errorf("prime instance %d: status %d: %v %s", i, status, err, out)
		}
	}
	next := 0
	results := w.closedLoop(ctx, c, srv.base, time.Time{}, len(warm), func() op { next++; return warm[next-1] })
	for i, r := range results {
		if !r.ok() {
			return fmt.Errorf("setup op %d failed: statuses %v: %v", i, r.Statuses, r.Err)
		}
	}
	return nil
}

func bench(root, bin, name string, seed uint64, d time.Duration, trace bool) (*benchOutput, error) {
	w, err := newWorkload(name, seed)
	if err != nil {
		return nil, err
	}
	if _, err := os.Stat(bin); err != nil {
		return nil, fmt.Errorf("chainserve binary: %w", err)
	}
	runDir := filepath.Join(root, ".bench_build", "run-"+strconv.Itoa(os.Getpid()))
	if err := os.MkdirAll(runDir, 0o755); err != nil {
		return nil, err
	}
	defer os.RemoveAll(runDir)
	ctx := context.Background()
	warm := w.setupOps()

	// Set up several times for a steady setup_s; keep the last server.
	var setups []float64
	var srv *server
	for i := 0; i < w.setupReps; i++ {
		if srv != nil {
			srv.stop()
		}
		storeDir := ""
		if w.name == "jobs-durable" {
			storeDir = filepath.Join(runDir, "store-"+strconv.Itoa(i))
		}
		start := time.Now()
		srv, err = startServer(bin, storeDir)
		if err == nil {
			err = w.prime(ctx, srv, warm)
		}
		if err != nil {
			if srv != nil {
				srv.stop()
			}
			return nil, fmt.Errorf("setup: %w", err)
		}
		setups = append(setups, time.Since(start).Seconds())
	}
	defer srv.stop()

	// Timed phase. The benchmark's own garbage collector stays off while
	// timing (up to a memory limit), so its pauses never land in an op.
	client := newClient(w.conns)
	st0, err := srv.stat()
	if err != nil {
		return nil, err
	}
	goruntime.GC()
	debug.SetGCPercent(-1)
	debug.SetMemoryLimit(256 << 20)
	start := time.Now()
	stopSamples, samplesDone := make(chan struct{}), make(chan []sample)
	go func() { samplesDone <- sampleEverySecond(srv, stopSamples) }()
	results := w.closedLoop(ctx, client, srv.base, start.Add(d), 0, w.next)
	wall := time.Since(start)
	close(stopSamples)
	samples := <-samplesDone
	st1, err := srv.stat()
	debug.SetGCPercent(100)
	debug.SetMemoryLimit(math.MaxInt64)
	if err != nil {
		return nil, err
	}
	if len(samples) < 2 {
		return nil, fmt.Errorf("timed phase: %d host samples", len(samples))
	}
	rss, err := srv.peakRSSMiB()
	if err != nil {
		return nil, err
	}

	// Checks, after the timed phase.
	bad := make([]bool, len(results))
	var solves *solveStats
	if w.name == "jobs-durable" {
		listed, err := listJobs(client, srv.base)
		if err != nil {
			return nil, err
		}
		if err := w.checkJobs(results, listed, bad); err != nil {
			return nil, err
		}
	} else {
		st, err := w.checkPlans(results, bad)
		if err != nil {
			return nil, err
		}
		if w.name == "plan-cold" {
			solves = &st
		}
	}
	client.CloseIdleConnections()
	srv.stop()

	out := &benchOutput{result: result{Correct: true, Attempted: len(results)}}
	statuses := map[string]int{}
	okOps, mismatches := 0, 0
	for i, r := range results {
		for _, s := range r.Statuses {
			statuses[strconv.Itoa(s)]++
		}
		switch {
		case bad[i]:
			mismatches++
		case r.ok():
			okOps++
		}
	}
	if mismatches > 0 {
		out.result.Correct = false
		out.problems = append(out.problems, fmt.Sprintf("%d ops disagree with the in-process reference", mismatches))
	}
	out.result.Failed = len(results) - okOps
	lat := make([]float64, len(results))
	for i, r := range results {
		lat[i] = float64(r.Latency) / float64(time.Millisecond)
	}
	e2e := map[string]metric{
		"setup_s":              {quantile(setups, 0.5), "s"},
		"latency_p50_ms":       {quantile(lat, 0.5), "ms"},
		"latency_p99_ms":       {quantile(lat, 0.99), "ms"},
		"throughput_ops":       {float64(okOps) / wall.Seconds(), "1/s"},
		"ok_ratio":             {ratio(float64(okOps), float64(len(results))), "ratio"},
		"server_cpu_ms_per_op": {ratio(float64(st1.cpu()-st0.cpu())/float64(time.Millisecond), float64(len(results))), "ms"},
		"server_peak_rss_mb":   {rss, "MiB"},
	}
	out.result.Metrics = e2e
	out.prov = map[string]any{
		"workload": w.name, "seed": seed, "seconds": d.Seconds(), "trace": trace,
		"nproc": goruntime.NumCPU(), "gomaxprocs": goruntime.GOMAXPROCS(0),
		"commit": commit(root), "source_sha256": sourceDigest(root),
		"attempted": len(results), "ok": okOps, "failed": len(results) - okOps, "mismatches": mismatches,
		"http_status_counts": statuses, "connections": w.conns,
		"timed_wall_s":  wall.Seconds(),
		"server_user_s": (st1.user - st0.user).Seconds(), "server_sys_s": (st1.sys - st0.sys).Seconds(),
		"server_minor_faults": st1.minorFaults - st0.minorFaults,
		// CPU time the hypervisor gave to other guests while this run was
		// timed; runs with a high share are slowed from outside.
		"host_steal_pct": stealPct(samples[0], samples[len(samples)-1]),
		"latency_quantiles_ms": map[string]float64{
			"p90": quantile(lat, 0.9), "p95": quantile(lat, 0.95), "p99": quantile(lat, 0.99), "p99.9": quantile(lat, 0.999),
		},
		"samples":    map[string]int{"latency_p50_ms": len(lat), "latency_p99_ms": len(lat), "setup_s": len(setups)},
		"end_to_end": e2e,
		"windows":    windows(results, start, samples),
	}

	if trace {
		lm, prov, err := w.traced(ctx, root, runDir, results, warm, solves, e2e["latency_p50_ms"].Value)
		if err != nil {
			out.result.Correct = false
			out.problems = append(out.problems, err.Error())
			if lm == nil {
				return nil, err
			}
		}
		out.result.Metrics = lm
		for k, v := range prov {
			out.prov[k] = v
		}
	}
	return out, nil
}

// traced runs the in-process replay of the timed phase's op stream and
// derives the per-layer metrics.
func (w *workloadGen) traced(ctx context.Context, root, runDir string, results []opResult, warm []op,
	solves *solveStats, e2eP50 float64) (map[string]metric, map[string]any, error) {
	l, err := newLayers(w, filepath.Join(runDir, "inproc"))
	if err != nil {
		return nil, nil, err
	}
	defer l.close()
	if err := l.prime(ctx, warm); err != nil {
		return nil, nil, fmt.Errorf("traced setup: %w", err)
	}
	stream := make([]op, len(results))
	for i, r := range results {
		stream[i] = r.Op
	}
	in := layerInputs{e2eP50Ms: e2eP50, solves: solves}
	e0 := l.eng.Stats()
	if l.journal != nil {
		in.jsBefore = l.journal.Stats()
	}
	rr, err := l.replay(ctx, stream)
	if err != nil {
		return nil, nil, err
	}
	in.replay = rr
	e1 := l.eng.Stats()
	in.hits, in.reqs = e1.CacheHits-e0.CacheHits, e1.Requests-e0.Requests
	if l.journal != nil {
		in.jsAfter = l.journal.Stats()
		if in.ckptSaves, err = ckptSaveProbe(filepath.Join(l.dir, "ckpt-probe"), 64); err != nil {
			return nil, nil, err
		}
	}
	spanFile := filepath.Join(root, ".bench_build", "spans-"+w.name+".jsonl")
	if err := writeSpans(spanFile, rr.spans); err != nil {
		return nil, nil, err
	}
	counts := map[string]int{}
	for _, ws := range rr.spans {
		for _, s := range ws {
			counts[s.Name]++
		}
	}
	prov := map[string]any{
		"traced_ops": len(stream), "traced_wall_s": rr.wall.Seconds(), "span_counts": counts,
		"spans_file": filepath.Join(".bench_build", filepath.Base(spanFile)),
	}
	if solves != nil {
		prov["core_solves"] = len(solves.times)
	}
	m, err := layerMetrics(in)
	return m, prov, err
}

// commit names the checked-out commit when the checkout is a git
// repository.
func commit(root string) string {
	if _, err := os.Stat(filepath.Join(root, ".git")); err != nil {
		return "unknown (not a git checkout; see source_sha256)"
	}
	out, err := exec.Command("git", "-C", root, "rev-parse", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

// sourceDigest hashes go.mod and every .go file of the checkout, so a
// run names the exact sources it measured even outside git.
func sourceDigest(root string) string {
	var files []string
	filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if d.IsDir() && path != root && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if !d.IsDir() && (strings.HasSuffix(path, ".go") || d.Name() == "go.mod") {
			files = append(files, path)
		}
		return nil
	})
	sort.Strings(files)
	h := sha256.New()
	for _, f := range files {
		data, err := os.ReadFile(f)
		if err != nil {
			continue
		}
		rel, _ := filepath.Rel(root, f)
		fmt.Fprintf(h, "%s %d\n", rel, len(data))
		h.Write(data)
	}
	return hex.EncodeToString(h.Sum(nil))
}
