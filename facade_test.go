package chainckpt

import (
	"context"
	"math"
	"testing"
)

// Exercises the extended public surface end to end: constraints, budgets,
// per-boundary costs, workflows, heuristics, sensitivity and tracing.

func TestFacadeConstraintsAndBudget(t *testing.T) {
	c, err := Uniform(10, 25000)
	if err != nil {
		t.Fatal(err)
	}
	p := Hera()
	p.LambdaF *= 50
	cons, err := NewConstraints(10)
	if err != nil {
		t.Fatal(err)
	}
	cons.Forbid(5, Disk)
	res, err := PlanWithOptions(ADMVStar, c, p, PlanOptions{
		Constraints:        cons,
		MaxDiskCheckpoints: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Schedule.Counts().Disk > 2 {
		t.Errorf("budget violated: %+v", res.Schedule.Counts())
	}
	if res.Schedule.At(5).Has(Disk) {
		t.Error("constraint violated")
	}
}

func TestFacadeCostsRoundTrip(t *testing.T) {
	c, _ := Uniform(6, 12000)
	p := Hera()
	sizes := []float64{1, 2, 1, 0.5, 1, 1}
	costs, err := ScaledCosts(p, sizes)
	if err != nil {
		t.Fatal(err)
	}
	if costs.At(2).CM != 2*p.CM {
		t.Error("ScaledCosts wrong")
	}
	uni, err := UniformCosts(p, 6)
	if err != nil {
		t.Fatal(err)
	}
	if uni.At(3) != (BoundaryCosts{CD: p.CD, CM: p.CM, RD: p.RD, RM: p.RM, VStar: p.VStar, V: p.V}) {
		t.Error("UniformCosts wrong")
	}
	res, err := PlanWithCosts(ADMV, c, p, costs)
	if err != nil {
		t.Fatal(err)
	}
	closed, err := EvaluateWithCosts(c, p, costs, res.Schedule)
	if err != nil {
		t.Fatal(err)
	}
	exact, err := ExactMakespanWithCosts(c, p, costs, res.Schedule)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(closed-res.ExpectedMakespan) > 1e-6 {
		t.Errorf("closed %f vs plan %f", closed, res.ExpectedMakespan)
	}
	if math.Abs(exact-closed)/closed > 1e-4 {
		t.Errorf("exact %f vs closed %f", exact, closed)
	}
	general, err := PlanWithOptions(ADMV, c, p, PlanOptions{Costs: costs})
	if err != nil {
		t.Fatal(err)
	}
	if math.Float64bits(general.ExpectedMakespan) != math.Float64bits(res.ExpectedMakespan) {
		t.Errorf("PlanWithOptions makespan %v, PlanWithCosts %v", general.ExpectedMakespan, res.ExpectedMakespan)
	}
	if general.Schedule.String() != res.Schedule.String() {
		t.Errorf("PlanWithOptions schedule %s, PlanWithCosts %s", general.Schedule, res.Schedule)
	}
}

func TestFacadeWorkflow(t *testing.T) {
	g := NewWorkflow()
	for _, n := range []struct {
		id string
		w  float64
	}{{"a", 1000}, {"b", 4000}, {"c", 500}, {"d", 800}} {
		if err := g.AddNode(n.id, n.w); err != nil {
			t.Fatal(err)
		}
	}
	if err := g.AddEdge("a", "b"); err != nil {
		t.Fatal(err)
	}
	if err := g.AddEdge("a", "c"); err != nil {
		t.Fatal(err)
	}
	if err := g.AddEdge("b", "d"); err != nil {
		t.Fatal(err)
	}
	if err := g.AddEdge("c", "d"); err != nil {
		t.Fatal(err)
	}
	best, err := PlanWorkflow(ADMVStar, g, Hera())
	if err != nil {
		t.Fatal(err)
	}
	if len(best.Order) != 4 || best.Order[0] != "a" || best.Order[3] != "d" {
		t.Errorf("order = %v", best.Order)
	}
	if len(WorkflowStrategies()) < 4 {
		t.Error("missing strategies")
	}
	single, err := PlanWorkflowWith(ADMVStar, g, Hera(), WorkflowStrategies()[0])
	if err != nil {
		t.Fatal(err)
	}
	if single.Plan.ExpectedMakespan < best.Plan.ExpectedMakespan-1e-9 {
		t.Error("single strategy beat the combined best")
	}
}

func TestFacadeHeuristics(t *testing.T) {
	c, _ := Uniform(12, 25000)
	p := Hera()
	opt, err := PlanADMV(c, p)
	if err != nil {
		t.Fatal(err)
	}
	for name, h := range map[string]func(*Chain, Platform) (*HeuristicResult, error){
		"final":   HeuristicFinalOnly,
		"daly":    HeuristicDaly,
		"pattern": HeuristicPattern,
		"scan":    HeuristicPeriodicScan,
		"greedy":  HeuristicGreedy,
	} {
		res, err := h(c, p)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if res.ExpectedMakespan < opt.ExpectedMakespan*(1-1e-9) {
			t.Errorf("%s beats the optimum", name)
		}
	}
}

func TestFacadeSensitivityAndTrace(t *testing.T) {
	c, _ := Uniform(8, 25000)
	p := Hera()
	res, err := PlanADMVStar(c, p)
	if err != nil {
		t.Fatal(err)
	}
	elas, err := Elasticities(c, p, res.Schedule)
	if err != nil {
		t.Fatal(err)
	}
	if len(elas) != 9 {
		t.Errorf("got %d elasticities", len(elas))
	}
	events, err := TraceExecution(c, p, res.Schedule, 7)
	if err != nil {
		t.Fatal(err)
	}
	if len(events) == 0 || FormatTrace(events) == "" {
		t.Error("empty trace")
	}
	sim, err := Simulate(c, p, res.Schedule, SimOptions{Replications: 500, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	if d := math.Abs(sim.Breakdown.Total() - sim.Mean()); d > 1e-6*sim.Mean() {
		t.Errorf("breakdown total %f vs mean %f", sim.Breakdown.Total(), sim.Mean())
	}
}

func TestFacadeSupervisor(t *testing.T) {
	c, _ := Uniform(10, 10000)
	p := Hera()
	sup := NewSupervisor(SupervisorOptions{})
	ctx := context.Background()

	// Static run with a fault-injecting runner: planned internally.
	rep, err := sup.Run(ctx, RunJob{
		Chain: c, Platform: p, Algorithm: ADMVStar,
		Runner: NewSimRunner(p, 11), Record: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Makespan <= c.TotalWeight() {
		t.Errorf("makespan %.2f below the error-free compute time", rep.Makespan)
	}
	if err := rep.FinalSchedule.ValidateComplete(); err != nil {
		t.Error(err)
	}
	if len(rep.Trace) == 0 || FormatTrace(rep.Trace) == "" {
		t.Error("supervised run produced no trace")
	}

	// Adaptive run under misspecified rates, with a persistent store.
	store, err := NewCheckpointStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	rep, err = sup.RunAdaptive(ctx, RunJob{
		Chain: c, Platform: p, Algorithm: ADMVStar,
		Runner: NewMisspecifiedRunner(p, 4, 4, 13), Store: store,
	}, AdaptPolicy{})
	if err != nil {
		t.Fatal(err)
	}
	if bounds, err := store.Boundaries(); err != nil || len(bounds) == 0 {
		t.Errorf("store boundaries: %v (%v)", bounds, err)
	}
}

// Resume a supervised run over a checkpoint directory: the full run
// leaves its final checkpoint behind, and the resumed run restores it
// and has nothing left to execute.
func TestFacadeResumeFromCheckpointDir(t *testing.T) {
	c, _ := Uniform(6, 6000)
	p := Hera()
	ckdir := t.TempDir()
	ck, err := NewCheckpointStore(ckdir)
	if err != nil {
		t.Fatal(err)
	}
	sup := NewSupervisor(SupervisorOptions{})
	if _, err := sup.Run(context.Background(), RunJob{
		Chain: c, Platform: p, Runner: NopTaskRunner{}, Store: ck,
	}); err != nil {
		t.Fatal(err)
	}
	ck2, err := NewCheckpointStore(ckdir)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := sup.Run(context.Background(), RunJob{
		Chain: c, Platform: p, Runner: NopTaskRunner{}, Store: ck2, Resume: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.ResumedFrom != c.Len() || rep.Events.TasksRun != 0 {
		t.Errorf("resume at the final boundary: %+v", rep)
	}
	if rep.Estimator.FailStop.Events != 0 {
		t.Errorf("estimator export: %+v", rep.Estimator)
	}
}
