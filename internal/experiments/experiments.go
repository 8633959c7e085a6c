// Package experiments regenerates every table and figure of the paper's
// evaluation (Section IV) plus the reproduction's own validation and
// ablation studies. Each experiment returns plain data structures; the
// rendering helpers produce aligned text and CSV so the cmd/chainexp tool
// and the benchmark harness share one implementation.
//
// Experiment index (see DESIGN.md for the full mapping):
//
//	Table1     — platform parameters (paper Table I)
//	Fig5       — Uniform pattern, 4 platforms: normalized makespan vs n
//	             for ADV*/ADMV*/ADMV and mechanism counts per algorithm
//	Fig6       — placement strips for ADMV at n = 50 (via Figure.Strip)
//	Fig7, Fig8 — Decrease and HighLow patterns on Hera and Coastal SSD
//	Validation — X1: DP vs closed forms vs exact oracle vs Monte Carlo
//	RecallSweep, PartialCostSweep, RateSweep — X2 ablations
//	BlindPlanningPenalty — X3: cost of planning while ignoring silent errors
package experiments

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"strings"

	"chainckpt/internal/ascii"
	"chainckpt/internal/chain"
	"chainckpt/internal/core"
	"chainckpt/internal/engine"
	"chainckpt/internal/evaluate"
	"chainckpt/internal/platform"
	"chainckpt/internal/schedule"
	"chainckpt/internal/sim"
	"chainckpt/internal/workload"
)

// simWorkers sizes each Monte-Carlo job of an engine fan-out over rows
// concurrent jobs: at least two streams per job, growing to cover the
// whole machine when the fan-out is narrower than the core count.
// sim.Run is deterministic for a fixed (Seed, Workers) pair, so a given
// machine reproduces its results exactly (as with the seed's
// GOMAXPROCS-wide default, cross-machine runs may differ in the stream
// split).
func simWorkers(rows int) int {
	w := runtime.GOMAXPROCS(0) / rows
	if w < 2 {
		w = 2
	}
	return w
}

// Config bounds a figure sweep. The zero value reproduces the paper
// (n = 1..50 in steps of 1, total weight 25000 s, all three algorithms).
type Config struct {
	MaxTasks    int
	Step        int
	TotalWeight float64
	Algorithms  []core.Algorithm
	// Frontier bounds how many requests a sweep keeps in flight (and
	// therefore how many chains and results it holds at once): Run
	// streams the sweep through the engine in frontier-sized windows,
	// so peak memory is O(frontier), not O(points) — the difference
	// between a mega-chain sweep fitting in RAM or not. Zero picks
	// 4×GOMAXPROCS (enough to keep the default engine pool saturated).
	Frontier int
}

func (c Config) normalized() Config {
	if c.MaxTasks <= 0 {
		c.MaxTasks = workload.PaperMaxTasks
	}
	if c.Step <= 0 {
		c.Step = 1
	}
	if c.TotalWeight <= 0 {
		c.TotalWeight = workload.PaperTotalWeight
	}
	if len(c.Algorithms) == 0 {
		c.Algorithms = core.Algorithms()
	}
	if c.Frontier <= 0 {
		c.Frontier = 4 * runtime.GOMAXPROCS(0)
	}
	return c
}

// Point is one (n, algorithm) measurement of a sweep.
type Point struct {
	N          int
	Algorithm  core.Algorithm
	Expected   float64
	Normalized float64
	Counts     schedule.Counts
}

// Figure is one reproduced figure panel: one pattern on one platform.
type Figure struct {
	ID       string
	Pattern  workload.Pattern
	Platform platform.Platform
	Ns       []int
	Points   []Point
	// Schedules holds, per algorithm, the optimal schedule at the largest
	// swept n — the data behind the paper's Figure 6 placement strips.
	Schedules map[core.Algorithm]*schedule.Schedule
	// MaxFrontier records the largest number of requests the sweep had
	// in flight at once — the regression guard behind the O(frontier)
	// memory contract (it must never exceed Config.Frontier).
	MaxFrontier int
}

// Run sweeps n for one pattern/platform pair by streaming
// frontier-sized windows of (n, algorithm) requests through the shared
// batch engine (engine.Default, one GOMAXPROCS-wide pool and memo): a
// window's requests are planned concurrently via Engine.Stream, each
// result is condensed into its Point as it drains (only the largest-n
// schedules survive the window), and the window's chain, request and
// response buffers are recycled for the next one. A sweep therefore
// saturates the machine without serializing on one memo mutex, repeated
// figures (fig5 and fig6 plan the same instances) hit the memo instead
// of re-solving, and peak memory is O(Config.Frontier) instead of
// O(points) — what lets a mega-chain sweep run at lengths where holding
// every chain and result at once would not fit. Points land in request
// order (windows are consumed in index order), so the CSV output is
// byte-identical to the batch implementation this replaces.
func Run(id string, pat workload.Pattern, plat platform.Platform, cfg Config) (*Figure, error) {
	cfg = cfg.normalized()
	fig := &Figure{
		ID:        id,
		Pattern:   pat,
		Platform:  plat,
		Schedules: make(map[core.Algorithm]*schedule.Schedule),
	}
	ctx := context.Background()
	eng := engine.Default()
	// One window's worth of request and response buffers, recycled
	// across flushes; responses land by Index, so completion order
	// never reaches the Points slice.
	reqs := make([]engine.Request, 0, cfg.Frontier)
	resps := make([]engine.Response, cfg.Frontier)
	flush := func() error {
		if len(reqs) == 0 {
			return nil
		}
		if len(reqs) > fig.MaxFrontier {
			fig.MaxFrontier = len(reqs)
		}
		for resp := range eng.Stream(ctx, reqs) {
			resps[resp.Index] = resp
		}
		for i := range reqs {
			resp := &resps[i]
			c, alg := reqs[i].Chain, reqs[i].Algorithm
			if resp.Err != nil {
				return fmt.Errorf("experiments: %s n=%d %s: %w", id, c.Len(), alg, resp.Err)
			}
			res := resp.Result
			fig.Points = append(fig.Points, Point{
				N:          c.Len(),
				Algorithm:  alg,
				Expected:   res.ExpectedMakespan,
				Normalized: res.NormalizedMakespan(c),
				Counts:     res.Schedule.Counts(),
			})
			if c.Len()+cfg.Step > cfg.MaxTasks {
				fig.Schedules[alg] = res.Schedule
			}
			resps[i] = engine.Response{} // drop the result with the window
		}
		reqs = reqs[:0]
		return nil
	}
	for n := 1; n <= cfg.MaxTasks; n += cfg.Step {
		c, err := workload.Generate(pat, n, cfg.TotalWeight)
		if err != nil {
			return nil, err
		}
		fig.Ns = append(fig.Ns, n)
		for _, alg := range cfg.Algorithms {
			reqs = append(reqs, engine.Request{Algorithm: alg, Chain: c, Platform: plat})
			if len(reqs) == cfg.Frontier {
				if err := flush(); err != nil {
					return nil, err
				}
			}
		}
	}
	if err := flush(); err != nil {
		return nil, err
	}
	return fig, nil
}

// Fig5 reproduces Figure 5: the Uniform pattern on all four platforms.
func Fig5(cfg Config) ([]*Figure, error) {
	var figs []*Figure
	for _, plat := range platform.All() {
		fig, err := Run("fig5-"+Slug(plat.Name), workload.PatternUniform, plat, cfg)
		if err != nil {
			return nil, err
		}
		figs = append(figs, fig)
	}
	return figs, nil
}

// Fig7 reproduces Figure 7: the Decrease pattern on Hera and Coastal SSD.
func Fig7(cfg Config) ([]*Figure, error) {
	return twoPlatformFigure("fig7", workload.PatternDecrease, cfg)
}

// Fig8 reproduces Figure 8: the HighLow pattern on Hera and Coastal SSD.
func Fig8(cfg Config) ([]*Figure, error) {
	return twoPlatformFigure("fig8", workload.PatternHighLow, cfg)
}

func twoPlatformFigure(id string, pat workload.Pattern, cfg Config) ([]*Figure, error) {
	var figs []*Figure
	for _, plat := range []platform.Platform{platform.Hera(), platform.CoastalSSD()} {
		fig, err := Run(id+"-"+Slug(plat.Name), pat, plat, cfg)
		if err != nil {
			return nil, err
		}
		figs = append(figs, fig)
	}
	return figs, nil
}

// point returns the measurement for (n, alg), or nil.
func (f *Figure) point(n int, alg core.Algorithm) *Point {
	for i := range f.Points {
		if f.Points[i].N == n && f.Points[i].Algorithm == alg {
			return &f.Points[i]
		}
	}
	return nil
}

// Algorithms returns the distinct algorithms present, in canonical order.
func (f *Figure) Algorithms() []core.Algorithm {
	var out []core.Algorithm
	for _, alg := range core.Algorithms() {
		if f.point(f.Ns[0], alg) != nil {
			out = append(out, alg)
		}
	}
	return out
}

// NormalizedChart renders the figure's first-column plot: normalized
// makespan vs number of tasks, one series per algorithm.
func (f *Figure) NormalizedChart() string {
	xs := make([]float64, len(f.Ns))
	for i, n := range f.Ns {
		xs[i] = float64(n)
	}
	var series []ascii.Series
	for _, alg := range f.Algorithms() {
		ys := make([]float64, len(f.Ns))
		for i, n := range f.Ns {
			if p := f.point(n, alg); p != nil {
				ys[i] = p.Normalized
			} else {
				ys[i] = math.NaN()
			}
		}
		series = append(series, ascii.Series{Label: string(alg), Y: ys})
	}
	title := fmt.Sprintf("%s pattern on %s: normalized makespan vs number of tasks",
		f.Pattern, f.Platform.Name)
	return ascii.LineChart(title, xs, series, 60, 14)
}

// CountsTable renders the per-n mechanism counts for one algorithm (the
// paper's second-to-fourth columns of Figures 5, 7, 8).
func (f *Figure) CountsTable(alg core.Algorithm) string {
	rows := make([][]string, 0, len(f.Ns))
	for _, n := range f.Ns {
		p := f.point(n, alg)
		if p == nil {
			continue
		}
		rows = append(rows, []string{
			fmt.Sprintf("%d", n),
			fmt.Sprintf("%.4f", p.Normalized),
			fmt.Sprintf("%d", p.Counts.Disk),
			fmt.Sprintf("%d", p.Counts.Memory),
			fmt.Sprintf("%d", p.Counts.Guaranteed),
			fmt.Sprintf("%d", p.Counts.Partial),
		})
	}
	return fmt.Sprintf("Algorithm %s on %s (%s pattern)\n%s", alg, f.Platform.Name, f.Pattern,
		ascii.Table([]string{"n", "norm.makespan", "#disk", "#mem", "#verif", "#partial"}, rows))
}

// Strip renders the Figure 6 placement strip for one algorithm at the
// largest swept n.
func (f *Figure) Strip(alg core.Algorithm) string {
	s, ok := f.Schedules[alg]
	if !ok {
		return "(no schedule recorded)"
	}
	return fmt.Sprintf("Platform %s with %s and n=%d (%s pattern)\n%s",
		f.Platform.Name, alg, s.Len(), f.Pattern, s.Strip())
}

// CSV renders the figure's points as CSV rows with a header.
func (f *Figure) CSV() string {
	var b strings.Builder
	b.WriteString("pattern,platform,n,algorithm,expected_makespan,normalized_makespan,disk,memory,guaranteed,partial\n")
	for _, p := range f.Points {
		fmt.Fprintf(&b, "%s,%s,%d,%s,%.6f,%.8f,%d,%d,%d,%d\n",
			f.Pattern, f.Platform.Name, p.N, p.Algorithm, p.Expected, p.Normalized,
			p.Counts.Disk, p.Counts.Memory, p.Counts.Guaranteed, p.Counts.Partial)
	}
	return b.String()
}

// Table1 renders the paper's Table I from the shipped platforms.
func Table1() string {
	rows := make([][]string, 0, 4)
	for _, p := range platform.All() {
		rows = append(rows, []string{
			p.Name,
			fmt.Sprintf("%d", p.Nodes),
			fmt.Sprintf("%.2e", p.LambdaF),
			fmt.Sprintf("%.2e", p.LambdaS),
			fmt.Sprintf("%gs", p.CD),
			fmt.Sprintf("%gs", p.CM),
			fmt.Sprintf("%.1f", p.FailStopMTBF()/86400),
			fmt.Sprintf("%.1f", p.SilentMTBF()/86400),
		})
	}
	return ascii.Table(
		[]string{"platform", "#nodes", "lambda_f", "lambda_s", "C_D", "C_M", "MTBF_f(days)", "MTBF_s(days)"},
		rows)
}

// GainSummary reports, per figure, the relative makespan improvements of
// ADMV* over ADV* and ADMV over ADMV* at the largest n — the numbers the
// paper quotes in its "Summary of results" (2% on Hera, 5% on Atlas, ~1%
// partial-verification gain on Coastal SSD).
func GainSummary(figs []*Figure) string {
	rows := make([][]string, 0, len(figs))
	for _, f := range figs {
		n := f.Ns[len(f.Ns)-1]
		adv := f.point(n, core.AlgADV)
		star := f.point(n, core.AlgADMVStar)
		admv := f.point(n, core.AlgADMV)
		if adv == nil || star == nil || admv == nil {
			continue
		}
		rows = append(rows, []string{
			f.Platform.Name,
			string(f.Pattern),
			fmt.Sprintf("%d", n),
			fmt.Sprintf("%.2f%%", 100*(1-star.Expected/adv.Expected)),
			fmt.Sprintf("%.2f%%", 100*(1-admv.Expected/star.Expected)),
			fmt.Sprintf("%.2f%%", 100*(1-admv.Expected/adv.Expected)),
		})
	}
	return ascii.Table(
		[]string{"platform", "pattern", "n", "ADMV* vs ADV*", "ADMV vs ADMV*", "ADMV vs ADV*"},
		rows)
}

// Slug lowercases a display name into a file-name-friendly token.
func Slug(name string) string {
	return strings.ToLower(strings.ReplaceAll(name, " ", "-"))
}

// ValidationRow is one line of the X1 cross-validation experiment.
type ValidationRow struct {
	Pattern   workload.Pattern
	Platform  string
	Algorithm core.Algorithm
	N         int
	DP        float64 // dynamic-program optimum
	Closed    float64 // core.Evaluate of the DP schedule
	Oracle    float64 // evaluate.Exact of the DP schedule
	SimMean   float64 // Monte-Carlo mean
	SimHW95   float64 // 95% confidence half-width
	Sigma     float64 // |SimMean - Oracle| in standard errors
}

// Validation runs the X1 experiment: for each pattern/platform/algorithm,
// plan at the given n, then recompute the expectation along the three
// independent routes and simulate. All plans resolve through the shared
// batch engine in one PlanMany call, and the per-row evaluation and
// Monte-Carlo pipelines fan out on the same worker pool, so the whole
// cross-validation runs at instance-level parallelism.
func Validation(n int, replications int, seed uint64) ([]ValidationRow, error) {
	type combo struct {
		pat  workload.Pattern
		c    *chain.Chain
		plat platform.Platform
	}
	var combos []combo
	var reqs []engine.Request
	for _, pat := range workload.Patterns() {
		c, err := workload.Generate(pat, n, workload.PaperTotalWeight)
		if err != nil {
			return nil, err
		}
		for _, plat := range []platform.Platform{platform.Hera(), platform.CoastalSSD()} {
			for _, alg := range core.Algorithms() {
				combos = append(combos, combo{pat: pat, c: c, plat: plat})
				reqs = append(reqs, engine.Request{Algorithm: alg, Chain: c, Platform: plat})
			}
		}
	}

	eng := engine.Default()
	resps := eng.PlanMany(context.Background(), reqs)
	out := make([]ValidationRow, len(combos))
	row := func(i int) error {
		if resps[i].Err != nil {
			return resps[i].Err
		}
		res := resps[i].Result
		cb := combos[i]
		closed, err := core.Evaluate(cb.c, cb.plat, res.Schedule)
		if err != nil {
			return err
		}
		oracle, err := evaluate.Exact(cb.c, cb.plat, res.Schedule)
		if err != nil {
			return err
		}
		sres, err := sim.Run(cb.c, cb.plat, res.Schedule, sim.Options{
			Replications: replications, Seed: seed, Workers: simWorkers(len(combos)),
		})
		if err != nil {
			return err
		}
		sigma := 0.0
		if se := sres.Makespan.StdErr(); se > 0 {
			sigma = math.Abs(sres.Mean()-oracle) / se
		}
		out[i] = ValidationRow{
			Pattern:   cb.pat,
			Platform:  cb.plat.Name,
			Algorithm: res.Algorithm,
			N:         n,
			DP:        res.ExpectedMakespan,
			Closed:    closed,
			Oracle:    oracle,
			SimMean:   sres.Mean(),
			SimHW95:   sres.HalfWidth95(),
			Sigma:     sigma,
		}
		return nil
	}
	if err := runCancelling(eng, len(combos), row); err != nil {
		return nil, err
	}
	return out, nil
}

// runCancelling fans fn out on the engine's pool, cancelling the rows
// that have not started as soon as one fails: one broken row must not
// pay for the remaining Monte-Carlo work.
func runCancelling(eng *engine.Engine, n int, fn func(i int) error) error {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	return eng.Run(ctx, n, func(i int) error {
		if err := fn(i); err != nil {
			cancel()
			return err
		}
		return nil
	})
}

// ValidationTable renders validation rows.
func ValidationTable(rows []ValidationRow) string {
	out := make([][]string, 0, len(rows))
	for _, r := range rows {
		out = append(out, []string{
			string(r.Pattern), r.Platform, string(r.Algorithm), fmt.Sprintf("%d", r.N),
			fmt.Sprintf("%.2f", r.DP),
			fmt.Sprintf("%.2e", math.Abs(r.DP-r.Closed)/r.DP),
			fmt.Sprintf("%.2e", math.Abs(r.DP-r.Oracle)/r.DP),
			fmt.Sprintf("%.2f±%.2f", r.SimMean, r.SimHW95),
			fmt.Sprintf("%.2f", r.Sigma),
		})
	}
	return ascii.Table(
		[]string{"pattern", "platform", "alg", "n", "E[DP]", "|DP-closed|/E", "|DP-oracle|/E", "sim mean", "sigma"},
		out)
}

// ValidationCSV renders validation rows as CSV.
func ValidationCSV(rows []ValidationRow) string {
	var b strings.Builder
	b.WriteString("pattern,platform,algorithm,n,dp,closed,oracle,sim_mean,sim_hw95,sigma\n")
	for _, r := range rows {
		fmt.Fprintf(&b, "%s,%s,%s,%d,%.6f,%.6f,%.6f,%.6f,%.6f,%.3f\n",
			r.Pattern, r.Platform, r.Algorithm, r.N, r.DP, r.Closed, r.Oracle,
			r.SimMean, r.SimHW95, r.Sigma)
	}
	return b.String()
}
