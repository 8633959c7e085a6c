// Command chainrun executes a scheduled linear task graph through the
// runtime supervisor: it plans a schedule (or takes one implied by the
// flags), runs the chain through a task runner with two-tier
// checkpointing and full recovery semantics, and reports the observed
// makespan against the model's prediction. With -adaptive the
// supervisor re-plans the remaining suffix mid-run when the observed
// error rates drift from the model.
//
// Usage:
//
//	chainrun [flags]
//
//	-platform name   Hera | Atlas | Coastal | "Coastal SSD" (default Hera)
//	-pattern name    Uniform | Decrease | HighLow (default Uniform)
//	-n tasks         number of tasks (default 30)
//	-total seconds   total computational weight (default 25000)
//	-weights list    explicit comma-separated weights (overrides -pattern/-n/-total)
//	-alg name        ADV* | ADMV* | ADMV (default ADMV)
//	-runner name     sim | nop | sleep (default sim)
//	-scale-f f       true fail-stop rate = modeled rate × f (default 1)
//	-scale-s f       true silent-error rate = modeled rate × f (default 1)
//	-adaptive        re-plan the suffix when observed rates drift
//	-reps k          replications; mean ± CI is reported for k > 1 (default 1)
//	-seed s          fault-sequence seed (default 1)
//	-store dir       persist disk checkpoints under dir (default in-memory)
//	-resume          restore the latest valid checkpoint from -store and
//	                 continue from its boundary instead of starting fresh
//	                 (requires -store, single replication)
//	-trace           print the event log (single replication only)
//	-json            emit the report as JSON
//	-solve-workers k DP worker team for the initial solve: 1 serial
//	                 (default), 0 auto (engages above the crossover
//	                 length on multi-core hosts), k>1 pins the team
//	                 width; never changes the schedule, only the solve
//	                 wall clock
//	-stats           print a one-shot metrics summary to stderr at exit:
//	                 solver team counters, solve latency, and task,
//	                 verification, checkpoint-commit and fsync
//	                 quantiles from the runtime's metrics registry
//
// Example:
//
//	chainrun -platform Atlas -n 40 -scale-f 4 -scale-s 4 -adaptive -reps 100
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"os"
	"strconv"
	"strings"
	"time"

	"chainckpt"
	"chainckpt/internal/stats"
)

// config is the compiled form of the command line, split out so tests
// can exercise the flag-to-job translation without running main.
type config struct {
	chain    *chainckpt.Chain
	plat     chainckpt.Platform
	alg      chainckpt.Algorithm
	runner   string
	scaleF   float64
	scaleS   float64
	adaptive bool
	reps     int
	seed     uint64
	storeDir string
	resume   bool
	trace    bool
	asJSON   bool
	// stats wires the run into a metrics registry and prints its
	// one-shot summary (solve latency, task/verify/checkpoint-commit
	// and fsync quantiles) to stderr at exit. Set by main after
	// compile, so the long-standing compile signature stays put.
	stats bool
	// solveWorkers is the DP worker team for the initial solve
	// (core.Options.SolveWorkers). Set by main after compile, like
	// stats.
	solveWorkers int
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("chainrun: ")

	platName := flag.String("platform", "Hera", "platform name from Table I")
	patName := flag.String("pattern", "Uniform", "workload pattern (Uniform, Decrease, HighLow)")
	n := flag.Int("n", 30, "number of tasks")
	total := flag.Float64("total", 25000, "total computational weight in seconds")
	weights := flag.String("weights", "", "explicit comma-separated task weights")
	algName := flag.String("alg", "ADMV", "algorithm (ADV*, ADMV*, ADMV)")
	runner := flag.String("runner", "sim", "task runner (sim, nop, sleep)")
	scaleF := flag.Float64("scale-f", 1, "true fail-stop rate as a multiple of the modeled rate")
	scaleS := flag.Float64("scale-s", 1, "true silent-error rate as a multiple of the modeled rate")
	adaptive := flag.Bool("adaptive", false, "re-plan the suffix when observed rates drift")
	reps := flag.Int("reps", 1, "replications")
	seed := flag.Uint64("seed", 1, "fault-sequence seed")
	storeDir := flag.String("store", "", "directory for persistent disk checkpoints")
	resume := flag.Bool("resume", false, "restore the latest checkpoint from -store and continue")
	trace := flag.Bool("trace", false, "print the event log (reps=1)")
	asJSON := flag.Bool("json", false, "emit JSON")
	statsDump := flag.Bool("stats", false,
		"print a one-shot metrics summary (solve, task, checkpoint-commit and fsync quantiles) to stderr at exit")
	solveWorkers := flag.Int("solve-workers", 1,
		"DP worker team for the initial solve (1 = serial, 0 = auto above the crossover, k>1 = pinned width)")
	flag.Parse()

	cfg, err := compile(*platName, *patName, *n, *total, *weights, *algName, *runner,
		*scaleF, *scaleS, *adaptive, *reps, *seed, *storeDir, *resume, *trace, *asJSON)
	if err != nil {
		log.Fatal(err)
	}
	cfg.stats = *statsDump
	cfg.solveWorkers = *solveWorkers
	if err := run(cfg, os.Stdout); err != nil {
		log.Fatal(err)
	}
}

func compile(platName, patName string, n int, total float64, weights, algName, runner string,
	scaleF, scaleS float64, adaptive bool, reps int, seed uint64,
	storeDir string, resume, trace, asJSON bool) (*config, error) {
	plat, err := chainckpt.PlatformByName(platName)
	if err != nil {
		return nil, err
	}
	c, err := buildChain(weights, patName, n, total)
	if err != nil {
		return nil, err
	}
	switch runner {
	case "sim", "nop", "sleep":
	default:
		return nil, fmt.Errorf("unknown runner %q (want sim, nop or sleep)", runner)
	}
	if scaleF <= 0 || scaleS <= 0 {
		return nil, fmt.Errorf("rate scales must be positive (got %g, %g)", scaleF, scaleS)
	}
	if reps < 1 {
		return nil, fmt.Errorf("reps must be at least 1, got %d", reps)
	}
	if trace && reps > 1 {
		return nil, fmt.Errorf("-trace needs -reps 1")
	}
	if resume && storeDir == "" {
		return nil, fmt.Errorf("-resume needs -store (a checkpoint directory to restore from)")
	}
	if resume && reps > 1 {
		return nil, fmt.Errorf("-resume needs -reps 1 (one interrupted run, one continuation)")
	}
	return &config{
		chain: c, plat: plat, alg: chainckpt.Algorithm(algName),
		runner: runner, scaleF: scaleF, scaleS: scaleS, adaptive: adaptive,
		reps: reps, seed: seed, storeDir: storeDir, resume: resume, trace: trace, asJSON: asJSON,
	}, nil
}

func buildChain(weights, pattern string, n int, total float64) (*chainckpt.Chain, error) {
	if weights != "" {
		parts := strings.Split(weights, ",")
		ws := make([]float64, 0, len(parts))
		for _, p := range parts {
			w, err := strconv.ParseFloat(strings.TrimSpace(p), 64)
			if err != nil {
				return nil, fmt.Errorf("bad weight %q: %v", p, err)
			}
			ws = append(ws, w)
		}
		return chainckpt.ChainFromWeights(ws...)
	}
	switch pattern {
	case "Uniform":
		return chainckpt.Uniform(n, total)
	case "Decrease":
		return chainckpt.Decrease(n, total)
	case "HighLow":
		return chainckpt.HighLow(n, total)
	default:
		return nil, fmt.Errorf("unknown pattern %q", pattern)
	}
}

func (cfg *config) newRunner(seed uint64) chainckpt.TaskRunner {
	switch cfg.runner {
	case "nop":
		return chainckpt.NopTaskRunner{}
	case "sleep":
		return chainckpt.SleepTaskRunner{Scale: 1e-5}
	default:
		return chainckpt.NewMisspecifiedRunner(cfg.plat, cfg.scaleF, cfg.scaleS, seed)
	}
}

func run(cfg *config, w *os.File) error {
	ctx := context.Background()
	// The registry is only built under -stats; every instrument below
	// is nil otherwise and observes for free.
	var reg *chainckpt.MetricsRegistry
	var planH *chainckpt.MetricsHistogram
	var rm *chainckpt.RuntimeMetrics
	if cfg.stats {
		reg = chainckpt.NewMetricsRegistry()
		rm = chainckpt.NewRuntimeMetrics(reg)
		planH = reg.NewHistogram("chainrun_plan_seconds",
			"Wall-clock time of the initial schedule solve.", nil)
		defer func() {
			fmt.Fprintln(os.Stderr, "-- metrics (chainrun -stats) --")
			// The initial -solve-workers solve runs on the shared default
			// kernel (PlanWithOptions); engine traffic has its own. Sum
			// both so the counters reflect every team dispatch.
			kp := chainckpt.DefaultKernel().Stats().Parallel
			ep := chainckpt.DefaultEngine().Stats().Kernel.Parallel
			fmt.Fprintf(os.Stderr, "kernel parallel: solves=%d tiles=%d busy_s=%.3f crossover_skips=%d\n",
				kp.Solves+ep.Solves, kp.Tiles+ep.Tiles, kp.BusySeconds+ep.BusySeconds, kp.CrossoverSkips+ep.CrossoverSkips)
			reg.DumpText(os.Stderr)
		}()
	}
	planStart := time.Now()
	res, err := chainckpt.PlanWithOptions(cfg.alg, cfg.chain, cfg.plat,
		chainckpt.PlanOptions{SolveWorkers: cfg.solveWorkers})
	if err != nil {
		return err
	}
	planH.ObserveSince(planStart)
	sup := chainckpt.NewSupervisor(chainckpt.SupervisorOptions{Metrics: rm})

	execute := func(seed uint64, record bool) (*chainckpt.RunReport, error) {
		job := chainckpt.RunJob{
			Chain: cfg.chain, Platform: cfg.plat, Schedule: res.Schedule,
			Algorithm: cfg.alg, Runner: cfg.newRunner(seed), Record: record,
			Resume: cfg.resume,
		}
		if cfg.storeDir != "" {
			store, err := chainckpt.NewCheckpointStore(cfg.storeDir)
			if err != nil {
				return nil, err
			}
			job.Store = store
		}
		if cfg.adaptive {
			return sup.RunAdaptive(ctx, job, chainckpt.AdaptPolicy{})
		}
		return sup.Run(ctx, job)
	}

	if cfg.reps == 1 {
		rep, err := execute(cfg.seed, cfg.trace)
		if err != nil {
			return err
		}
		if cfg.asJSON {
			enc := json.NewEncoder(w)
			enc.SetIndent("", "  ")
			return enc.Encode(rep)
		}
		fmt.Fprintf(w, "platform:          %s\n", cfg.plat)
		fmt.Fprintf(w, "chain:             %s\n", cfg.chain)
		fmt.Fprintf(w, "schedule:          %s\n", res.Schedule)
		fmt.Fprintf(w, "model prediction:  %.2f s\n", res.ExpectedMakespan)
		if cfg.resume {
			fmt.Fprintf(w, "resumed from:      boundary %d of %d\n", rep.ResumedFrom, cfg.chain.Len())
		}
		fmt.Fprintf(w, "observed makespan: %.2f s (wall %s)\n", rep.Makespan, rep.Wall)
		fmt.Fprintf(w, "events:            %d tasks, %d fail-stop, %d silent detected, %d replans\n",
			rep.Events.TasksRun, rep.Events.FailStop, rep.Events.SilentDetected, rep.Events.Replans)
		fmt.Fprintf(w, "estimated rates:   lambda_f=%.3g lambda_s=%.3g\n",
			rep.LambdaFEstimate, rep.LambdaSEstimate)
		if cfg.trace {
			fmt.Fprintln(w)
			fmt.Fprint(w, chainckpt.FormatTrace(rep.Trace))
		}
		return nil
	}

	var acc stats.Welford
	var replans int64
	for r := 0; r < cfg.reps; r++ {
		rep, err := execute(cfg.seed+uint64(r), false)
		if err != nil {
			return err
		}
		acc.Add(rep.Makespan)
		replans += rep.Events.Replans
	}
	if cfg.asJSON {
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		return enc.Encode(map[string]any{
			"replications":     cfg.reps,
			"mean_makespan":    acc.Mean(),
			"halfwidth_95":     acc.HalfWidth(stats.Z95),
			"model_prediction": res.ExpectedMakespan,
			"replans":          replans,
		})
	}
	fmt.Fprintf(w, "platform:          %s\n", cfg.plat)
	fmt.Fprintf(w, "chain:             %s\n", cfg.chain)
	fmt.Fprintf(w, "model prediction:  %.2f s\n", res.ExpectedMakespan)
	fmt.Fprintf(w, "observed makespan: %.2f ± %.2f s over %d runs\n",
		acc.Mean(), acc.HalfWidth(stats.Z95), cfg.reps)
	fmt.Fprintf(w, "delta:             %+.2f%%\n", 100*(acc.Mean()/res.ExpectedMakespan-1))
	fmt.Fprintf(w, "replans:           %d\n", replans)
	return nil
}
