// Command chainexp regenerates the paper's evaluation artifacts (Table I
// and Figures 5-8) together with this reproduction's validation (X1) and
// ablation (X2, X3) experiments. Text reports go to stdout; with -out,
// machine-readable CSV files are written to the given directory.
//
// Usage:
//
//	chainexp -exp all -out results/
//
//	-exp name   table1 | fig5 | fig6 | fig7 | fig8 | validation |
//	            ablation | heuristics | blind | pattern | robustness |
//	            sensitivity | all (default all)
//	-maxn n     largest chain length of the sweeps (default 50)
//	-step k     sweep step (default 1)
//	-reps r     Monte-Carlo replications for validation/robustness (default 20000)
//	-out dir    directory for CSV output (optional)
//	-html path  write a self-contained HTML report (figures + summary)
//	-workers k  planning worker pool size (default GOMAXPROCS)
//	-solve-workers k  DP worker team per solve: 1 serial (default), 0
//	            auto above the crossover length, k>1 pinned width —
//	            the knob for mega-chain sweeps where one big solve,
//	            not the sweep fan-out, dominates the wall clock
//
// All planning goes through the shared batch engine (internal/engine):
// sweeps run at instance-level parallelism and repeated instances are
// served from its memo.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"path/filepath"

	"chainckpt/internal/core"
	"chainckpt/internal/engine"
	"chainckpt/internal/experiments"
	"chainckpt/internal/obs"
	"chainckpt/internal/platform"
	"chainckpt/internal/report"
	"chainckpt/internal/workload"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("chainexp: ")

	exp := flag.String("exp", "all", "experiment to run")
	maxN := flag.Int("maxn", 50, "largest chain length")
	step := flag.Int("step", 1, "sweep step")
	reps := flag.Int("reps", 20000, "Monte-Carlo replications for validation")
	outDir := flag.String("out", "", "directory for CSV output")
	htmlPath := flag.String("html", "", "write an HTML report (figures 5/7/8 + summary) to this file")
	workers := flag.Int("workers", 0, "planning worker pool size (0 = GOMAXPROCS)")
	solveWorkers := flag.Int("solve-workers", 1,
		"DP worker team per solve (1 = serial, 0 = auto above the crossover, k>1 = pinned width)")
	statsDump := flag.Bool("stats", false,
		"print a one-shot metrics summary (solver team counters, solve latency quantiles, memo traffic) at exit")
	flag.Parse()
	if *solveWorkers < 0 {
		// The engine reads any negative width as auto; the flag spells
		// auto as 0, so a negative value is a typo, not a request.
		log.Printf("-solve-workers must be >= 0, got %d", *solveWorkers)
		flag.Usage()
		os.Exit(2)
	}

	// Every sweep plans through the shared batch engine; sizing it here
	// also sizes the validation and robustness fan-outs. The memo means
	// overlapping experiments (fig5 and fig6, the HTML report) reuse
	// already-solved instances instead of replanning them. -stats wires
	// the engine into a metrics registry, so the run can be profiled
	// without a serving stack around it.
	var reg *obs.Registry
	if *statsDump {
		reg = obs.NewRegistry()
	}
	if *workers > 0 || *solveWorkers != 1 || *statsDump {
		// CLI semantics (1 serial, 0 auto) map onto engine.Options,
		// where zero is the compat serial default and negative selects
		// auto.
		engineSolveWorkers := *solveWorkers
		if engineSolveWorkers == 0 {
			engineSolveWorkers = -1
		}
		engine.SetDefault(engine.New(engine.Options{
			Workers: *workers, SolveWorkers: engineSolveWorkers,
			Metrics: engine.NewMetrics(reg),
		}))
	}

	if *outDir != "" {
		if err := os.MkdirAll(*outDir, 0o755); err != nil {
			log.Fatal(err)
		}
	}
	cfg := experiments.Config{MaxTasks: *maxN, Step: *step}

	run := func(name string, f func() error) {
		if *exp != "all" && *exp != name {
			return
		}
		fmt.Printf("==================== %s ====================\n", name)
		if err := f(); err != nil {
			log.Fatalf("%s: %v", name, err)
		}
		fmt.Println()
	}

	run("table1", func() error {
		fmt.Println(experiments.Table1())
		return writeFile(*outDir, "table1.txt", experiments.Table1())
	})

	run("fig5", func() error {
		figs, err := experiments.Fig5(cfg)
		if err != nil {
			return err
		}
		for _, f := range figs {
			fmt.Println(f.NormalizedChart())
			for _, alg := range f.Algorithms() {
				fmt.Println(f.CountsTable(alg))
			}
			if err := writeFile(*outDir, f.ID+".csv", f.CSV()); err != nil {
				return err
			}
		}
		fmt.Println(experiments.GainSummary(figs))
		return nil
	})

	run("fig6", func() error {
		figs, err := experiments.Fig5(cfg)
		if err != nil {
			return err
		}
		for _, f := range figs {
			fmt.Println(f.Strip(core.AlgADMV))
			fmt.Println()
		}
		return nil
	})

	run("fig7", func() error { return twoPlatform(experiments.Fig7, cfg, *outDir) })
	run("fig8", func() error { return twoPlatform(experiments.Fig8, cfg, *outDir) })

	run("validation", func() error {
		n := 20
		if *maxN < n {
			n = *maxN
		}
		rows, err := experiments.Validation(n, *reps, 2016)
		if err != nil {
			return err
		}
		fmt.Println(experiments.ValidationTable(rows))
		return writeFile(*outDir, "validation.csv", experiments.ValidationCSV(rows))
	})

	run("ablation", func() error {
		n := 30
		if *maxN < n {
			n = *maxN
		}
		recalls := []float64{0, 0.2, 0.4, 0.6, 0.8, 0.95, 1}
		rp, err := experiments.RecallSweep(platform.CoastalSSD(), workload.PatternUniform, n, recalls)
		if err != nil {
			return err
		}
		fmt.Println("Recall sweep (ADMV on Coastal SSD, Uniform, n =", n, ")")
		fmt.Println(experiments.SweepTable("recall", rp))
		if err := writeFile(*outDir, "ablation_recall.csv", experiments.SweepCSV("recall", rp)); err != nil {
			return err
		}

		fracs := []float64{0.001, 0.005, 0.01, 0.05, 0.1, 0.5, 1}
		cp, err := experiments.PartialCostSweep(platform.CoastalSSD(), workload.PatternUniform, n, fracs)
		if err != nil {
			return err
		}
		fmt.Println("Partial-verification cost sweep (V = frac*V*, ADMV on Coastal SSD)")
		fmt.Println(experiments.SweepTable("V/V*", cp))
		if err := writeFile(*outDir, "ablation_vcost.csv", experiments.SweepCSV("v_frac", cp)); err != nil {
			return err
		}

		mults := []float64{0.25, 0.5, 1, 2, 4, 8, 16}
		rs, err := experiments.RateSweep(platform.Hera(), workload.PatternUniform, n, mults)
		if err != nil {
			return err
		}
		fmt.Println("Error-rate sweep (Hera, Uniform, n =", n, ")")
		fmt.Println(experiments.RateTable(rs))
		return nil
	})

	run("heuristics", func() error {
		n := 30
		if *maxN < n {
			n = *maxN
		}
		for _, tc := range []struct {
			plat platform.Platform
			pat  workload.Pattern
		}{
			{platform.Hera(), workload.PatternUniform},
			{platform.Hera(), workload.PatternHighLow},
			{platform.CoastalSSD(), workload.PatternUniform},
		} {
			rows, err := experiments.HeuristicComparison(tc.plat, tc.pat, n)
			if err != nil {
				return err
			}
			fmt.Printf("Heuristics vs optimal DPs on %s (%s pattern, n=%d):\n", tc.plat.Name, tc.pat, n)
			fmt.Println(experiments.HeuristicTable(rows))
			name := fmt.Sprintf("heuristics_%s_%s.csv",
				experiments.Slug(tc.plat.Name), experiments.Slug(string(tc.pat)))
			if err := writeFile(*outDir, name, experiments.HeuristicCSV(tc.plat.Name, tc.pat, n, rows)); err != nil {
				return err
			}
		}
		return nil
	})

	run("blind", func() error {
		n := 30
		if *maxN < n {
			n = *maxN
		}
		fmt.Println("Cost of planning while ignoring silent errors (ADMV* planner, exact oracle):")
		for _, plat := range platform.All() {
			bp, err := experiments.BlindPlanningPenalty(plat, workload.PatternUniform, n)
			if err != nil {
				return err
			}
			fmt.Printf("  %-12s aware %.2f s, blind %.2f s  ->  +%.2f%%\n",
				bp.Platform, bp.Aware, bp.Blind, bp.PenaltyPct)
		}
		return nil
	})

	run("pattern", func() error {
		n := 50
		if *maxN < n {
			n = *maxN
		}
		rows, err := experiments.PatternComparison(n)
		if err != nil {
			return err
		}
		fmt.Printf("First-order periodic pattern (companion paper [7]) vs exact DP, n=%d:\n", n)
		fmt.Println(experiments.PatternTable(rows))
		return writeFile(*outDir, "pattern_vs_dp.csv", experiments.PatternCSV(rows))
	})

	run("robustness", func() error {
		n := 30
		if *maxN < n {
			n = *maxN
		}
		shapes := []float64{0.5, 0.7, 1, 1.5, 2}
		rows, err := experiments.Robustness(platform.Hera(), workload.PatternUniform, n,
			shapes, *reps, 2016)
		if err != nil {
			return err
		}
		fmt.Printf("Exponential-optimal schedule under Weibull arrivals (Hera, Uniform, n=%d, same MTBFs):\n", n)
		fmt.Println(experiments.RobustnessTable(rows))
		return writeFile(*outDir, "robustness.csv", experiments.RobustnessCSV("Hera", rows))
	})

	run("sensitivity", func() error {
		n := 30
		if *maxN < n {
			n = *maxN
		}
		for _, plat := range []platform.Platform{platform.Hera(), platform.CoastalSSD()} {
			rows, err := experiments.SensitivityReport(plat, workload.PatternUniform, n)
			if err != nil {
				return err
			}
			fmt.Printf("Elasticities of the ADMV-optimal makespan on %s (Uniform, n=%d):\n", plat.Name, n)
			fmt.Println(experiments.SensitivityTable(rows))
			name := "sensitivity_" + experiments.Slug(plat.Name) + ".csv"
			if err := writeFile(*outDir, name, experiments.SensitivityCSV(plat.Name, rows)); err != nil {
				return err
			}
		}
		return nil
	})

	if *htmlPath != "" {
		var figs []*experiments.Figure
		for _, f := range []func(experiments.Config) ([]*experiments.Figure, error){
			experiments.Fig5, experiments.Fig7, experiments.Fig8,
		} {
			batch, err := f(cfg)
			if err != nil {
				log.Fatal(err)
			}
			figs = append(figs, batch...)
		}
		out, err := os.Create(*htmlPath)
		if err != nil {
			log.Fatal(err)
		}
		if err := report.Render(out, report.FromFigures("chainckpt — reproduced evaluation", figs)); err != nil {
			out.Close()
			log.Fatal(err)
		}
		if err := out.Close(); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("wrote HTML report to %s\n", *htmlPath)
	}

	if *statsDump {
		fmt.Println("==================== metrics ====================")
		par := engine.Default().Stats().Kernel.Parallel
		fmt.Printf("kernel parallel: solves=%d tiles=%d busy_s=%.3f crossover_skips=%d\n",
			par.Solves, par.Tiles, par.BusySeconds, par.CrossoverSkips)
		reg.DumpText(os.Stdout)
	}
}

func twoPlatform(f func(experiments.Config) ([]*experiments.Figure, error), cfg experiments.Config, outDir string) error {
	figs, err := f(cfg)
	if err != nil {
		return err
	}
	for _, fig := range figs {
		fmt.Println(fig.NormalizedChart())
		fmt.Println(fig.CountsTable(core.AlgADMV))
		fmt.Println(fig.Strip(core.AlgADMV))
		fmt.Println()
		if err := writeFile(outDir, fig.ID+".csv", fig.CSV()); err != nil {
			return err
		}
	}
	fmt.Println(experiments.GainSummary(figs))
	return nil
}

func writeFile(dir, name, content string) error {
	if dir == "" {
		return nil
	}
	return os.WriteFile(filepath.Join(dir, name), []byte(content), 0o644)
}
