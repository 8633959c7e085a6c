package chainckpt_test

import (
	"context"
	"fmt"

	"chainckpt"
)

// Plan the optimal schedule for a small uniform chain on Hera and print
// the mechanisms it places.
func Example() {
	c, _ := chainckpt.Uniform(10, 25000)
	res, _ := chainckpt.PlanADMVStar(c, chainckpt.Hera())
	counts := res.Schedule.Counts()
	fmt.Printf("disk=%d memory=%d guaranteed=%d\n", counts.Disk, counts.Memory, counts.Guaranteed)
	// Output:
	// disk=1 memory=10 guaranteed=10
}

// Evaluate a hand-built schedule and compare it with the optimum.
func ExampleEvaluate() {
	c, _ := chainckpt.Uniform(4, 10000)
	p := chainckpt.Hera()

	// Checkpoint to memory halfway, disk at the end.
	s, _ := chainckpt.NewSchedule(4)
	s.Set(2, chainckpt.Memory)
	s.Set(4, chainckpt.Disk)
	hand, _ := chainckpt.Evaluate(c, p, s)

	opt, _ := chainckpt.PlanADMVStar(c, p)
	fmt.Printf("hand-built is within %.1f s of the optimum\n", hand-opt.ExpectedMakespan)
	// Output:
	// hand-built is within 24.1 s of the optimum
}

// Restrict where checkpoints may go and replan.
func ExamplePlanConstrained() {
	c, _ := chainckpt.Uniform(6, 12000)
	p := chainckpt.Hera()
	cons, _ := chainckpt.NewConstraints(6)
	for i := 1; i < 6; i++ {
		cons.Forbid(i, chainckpt.Memory) // verifications only inside
	}
	res, _ := chainckpt.PlanConstrained(chainckpt.ADMVStar, c, p, cons)
	counts := res.Schedule.Counts()
	fmt.Printf("memory checkpoints: %d (only the final one)\n", counts.Memory)
	// Output:
	// memory checkpoints: 1 (only the final one)
}

// Render a schedule as the paper's Figure 6 strip.
func ExampleSchedule_strip() {
	s, _ := chainckpt.NewSchedule(8)
	s.Set(2, chainckpt.Partial)
	s.Set(4, chainckpt.Memory)
	s.Set(6, chainckpt.Partial)
	s.Set(8, chainckpt.Disk)
	fmt.Println(s.Strip())
	// Output:
	// Disk ckpts        |.......D|
	// Memory ckpts      |...M...M|
	// Guaranteed verifs |...*...*|
	// Partial verifs    |.v...v..|
}

// Plan a batch through an engine. Repeating the batch is served from the
// engine's memo instead of re-solving.
func ExampleNewEngine() {
	eng := chainckpt.NewEngine(chainckpt.EngineOptions{})
	defer eng.Close()
	ctx := context.Background()

	var reqs []chainckpt.PlanRequest
	for _, n := range []int{8, 16} {
		c, _ := chainckpt.Uniform(n, 25000)
		reqs = append(reqs, chainckpt.PlanRequest{Algorithm: chainckpt.ADMV, Chain: c, Platform: chainckpt.Hera()})
	}
	for round := 1; round <= 2; round++ {
		for _, resp := range eng.PlanMany(ctx, reqs) {
			fmt.Printf("round %d: n=%d cached=%v\n", round, resp.Result.Schedule.Len(), resp.Cached)
		}
	}
	// Output:
	// round 1: n=8 cached=false
	// round 1: n=16 cached=false
	// round 2: n=8 cached=true
	// round 2: n=16 cached=true
}

// Plan through a private kernel, then re-plan the remainder of the chain
// in place once the error rates turn out higher than planned.
func ExampleNewKernel() {
	k := chainckpt.NewKernel()
	c, _ := chainckpt.Uniform(20, 25000)
	p := chainckpt.Hera()
	res, _ := k.PlanOpts(chainckpt.ADMV, c, p, chainckpt.PlanOptions{})

	// After boundary 10 commits, the rates prove ten times the model's.
	hot := p
	hot.LambdaF *= 10
	hot.LambdaS *= 10
	upd, _ := k.ReplanSuffix(chainckpt.ADMV, c, hot, 10, chainckpt.PlanOptions{})
	fmt.Printf("planned %d tasks with %d memory checkpoints\n", res.Schedule.Len(), res.Schedule.Counts().Memory)
	fmt.Printf("re-planned %d tasks with %d memory checkpoints\n", upd.Schedule.Len(), upd.Schedule.Counts().Memory)
	// Output:
	// planned 20 tasks with 6 memory checkpoints
	// re-planned 10 tasks with 10 memory checkpoints
}

// Execute a chain under a supervisor: once with a perfect runner, once
// adapting the schedule to a runner whose true error rates are ten times
// the model's.
func ExampleNewSupervisor() {
	c, _ := chainckpt.Uniform(20, 250000)
	p := chainckpt.Hera()
	sup := chainckpt.NewSupervisor(chainckpt.SupervisorOptions{})
	ctx := context.Background()

	rep, _ := sup.Run(ctx, chainckpt.RunJob{Chain: c, Platform: p, Runner: chainckpt.NopTaskRunner{}})
	fmt.Printf("tasks run: %d, recoveries: %d\n", rep.Events.TasksRun, rep.Events.DiskRecoveries+rep.Events.MemoryRecoveries)

	job := chainckpt.RunJob{Chain: c, Platform: p, Algorithm: chainckpt.ADMVStar, Runner: chainckpt.NewMisspecifiedRunner(p, 10, 10, 13)}
	rep, _ = sup.RunAdaptive(ctx, job, chainckpt.AdaptPolicy{})
	fmt.Printf("fail-stops: %d, silent errors caught: %d, replans: %d\n", rep.Events.FailStop, rep.Events.SilentDetected, rep.Events.Replans)
	// Output:
	// tasks run: 20, recoveries: 0
	// fail-stops: 1, silent errors caught: 11, replans: 1
}
