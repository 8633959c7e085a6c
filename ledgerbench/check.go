package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	goruntime "runtime"
	"sync"
	"time"

	"chainckpt/internal/core"
	"chainckpt/internal/engine"
	"chainckpt/internal/runtime"
	"chainckpt/internal/schedule"
)

// planWire is the part of a plan response the checks compare.
type planWire struct {
	ExpectedMakespan float64            `json:"expected_makespan"`
	Schedule         *schedule.Schedule `json:"schedule"`
	Error            string             `json:"error"`
}

// reference is the in-process answer for one instance.
type reference struct {
	res   *core.Result
	err   error
	solve time.Duration // Kernel.PlanOpts wall time
}

// solveStats is what timing the reference solves tells about the
// kernel layer: per-solve times, allocation and scratch-pool reuse.
type solveStats struct {
	times      []time.Duration
	byAlg      map[core.Algorithm][]time.Duration
	allocBytes uint64
	kernel     core.KernelStats
}

// parallelFor runs fn(i) for i in [0,n) on GOMAXPROCS goroutines.
func parallelFor(n int, fn func(i int)) {
	var wg sync.WaitGroup
	var mu sync.Mutex
	next := 0
	for w := 0; w < goruntime.GOMAXPROCS(0); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				mu.Lock()
				i := next
				next++
				mu.Unlock()
				if i >= n {
					return
				}
				fn(i)
			}
		}()
	}
	wg.Wait()
}

// references solves the given instances with one fresh core.Kernel,
// timing each Kernel.PlanOpts call.
func (w *workloadGen) references(idxs []int) (map[int]*reference, solveStats, error) {
	type compiled struct {
		inst instance
		run  func(*core.Kernel) (*core.Result, error)
	}
	cs := make([]compiled, len(idxs))
	for i, idx := range idxs {
		in := w.insts[idx]
		c, p, err := in.compile()
		if err != nil {
			return nil, solveStats{}, fmt.Errorf("compile instance %d: %w", idx, err)
		}
		cs[i] = compiled{in, func(k *core.Kernel) (*core.Result, error) {
			return k.PlanOpts(in.Alg, c, p, core.Options{})
		}}
	}
	refs := make([]reference, len(idxs))
	kern := core.NewKernel()
	var before, after goruntime.MemStats
	goruntime.ReadMemStats(&before)
	parallelFor(len(idxs), func(i int) {
		start := time.Now()
		res, err := cs[i].run(kern)
		refs[i] = reference{res: res, err: err, solve: time.Since(start)}
	})
	goruntime.ReadMemStats(&after)
	st := solveStats{byAlg: map[core.Algorithm][]time.Duration{}, allocBytes: after.TotalAlloc - before.TotalAlloc, kernel: kern.Stats()}
	out := make(map[int]*reference, len(idxs))
	for i, idx := range idxs {
		out[idx] = &refs[i]
		st.times = append(st.times, refs[i].solve)
		st.byAlg[cs[i].inst.Alg] = append(st.byAlg[cs[i].inst.Alg], refs[i].solve)
	}
	return out, st, nil
}

// samePlan reports whether a served plan equals the reference bit for
// bit: expected makespan bits and every schedule action.
func samePlan(got planWire, ref *reference) bool {
	return ref.err == nil && got.Error == "" && got.Schedule != nil &&
		math.Float64bits(got.ExpectedMakespan) == math.Float64bits(ref.res.ExpectedMakespan) &&
		got.Schedule.Equal(ref.res.Schedule)
}

// checkPlans compares every plan op's answers against in-process
// references, marking mismatches in bad. It returns the solve stats of
// the references it computed.
func (w *workloadGen) checkPlans(results []opResult, bad []bool) (solveStats, error) {
	seen := map[int]bool{}
	var idxs []int
	for _, r := range results {
		for _, idx := range r.Op.Insts {
			if !seen[idx] {
				seen[idx] = true
				idxs = append(idxs, idx)
			}
		}
	}
	refs, st, err := w.references(idxs)
	if err != nil {
		return st, err
	}
	// Bodies shared between ops (see keep) are checked once.
	verdict := map[*byte]bool{}
	for i, r := range results {
		if !r.ok() {
			continue
		}
		if len(r.Body) == 0 {
			bad[i] = true
			continue
		}
		if v, ok := verdict[&r.Body[0]]; ok {
			bad[i] = v
			continue
		}
		bad[i] = !w.samePlans(r, refs)
		verdict[&r.Body[0]] = bad[i]
	}
	return st, nil
}

// samePlans decodes one plan op's response and compares every answer
// with its reference.
func (w *workloadGen) samePlans(r opResult, refs map[int]*reference) bool {
	var got []planWire
	if w.name == "plan-hot" {
		var one planWire
		if err := json.Unmarshal(r.Body, &one); err != nil {
			return false
		}
		got = []planWire{one}
	} else {
		var batch struct {
			Responses []planWire `json:"responses"`
		}
		if err := json.Unmarshal(r.Body, &batch); err != nil {
			return false
		}
		got = batch.Responses
	}
	if len(got) != len(r.Op.Insts) {
		return false
	}
	for j, idx := range r.Op.Insts {
		if !samePlan(got[j], refs[idx]) {
			return false
		}
	}
	return true
}

// jobRef is the in-process execution of one job spec.
type jobRef struct {
	rep    *runtime.Report
	stream []byte // the report's trace, NDJSON-encoded as chainserve streams it
	err    error
}

// referenceJob runs one job spec through an in-process supervisor with
// the reference schedule and the same runner and seed chainserve uses.
func (w *workloadGen) referenceJob(sup *runtime.Supervisor, scheds map[int]*schedule.Schedule, js jobSpec) jobRef {
	in := w.insts[js.Inst]
	c, p, err := in.compile()
	if err != nil {
		return jobRef{err: err}
	}
	job := runtime.Job{
		Chain: c, Platform: p, Schedule: scheds[js.Inst], Algorithm: in.Alg,
		Runner: runtime.NewMisspecifiedRunner(p, js.Scale, js.Scale, js.Seed), Record: true,
	}
	var rep *runtime.Report
	if js.Adaptive {
		rep, err = sup.RunAdaptive(context.Background(), job, runtime.AdaptPolicy{})
	} else {
		rep, err = sup.Run(context.Background(), job)
	}
	if err != nil {
		return jobRef{err: err}
	}
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	for _, ev := range rep.Trace {
		enc.Encode(ev)
	}
	return jobRef{rep: rep, stream: buf.Bytes()}
}

// listedJob is the part of a GET /v1/jobs entry the checks compare.
type listedJob struct {
	ID     string          `json:"id"`
	Status string          `json:"status"`
	Report *runtime.Report `json:"report"`
}

// listJobs fetches the jobs chainserve still retains (the newest up to
// its retention bound), with their trace-free reports.
func listJobs(c *http.Client, base string) (map[string]listedJob, error) {
	status, body, err := fetch(context.Background(), c, http.MethodGet, base+"/v1/jobs", nil)
	if err != nil || status != http.StatusOK {
		return nil, fmt.Errorf("list jobs: status %d: %v", status, err)
	}
	var out struct {
		Jobs []listedJob `json:"jobs"`
	}
	if err := json.Unmarshal(body, &out); err != nil {
		return nil, fmt.Errorf("list jobs: %w", err)
	}
	m := make(map[string]listedJob, len(out.Jobs))
	for _, j := range out.Jobs {
		m[j.ID] = j
	}
	return m, nil
}

// checkJobs re-runs every job in-process. The streamed events must
// equal the reference trace byte for byte (they end with the done
// event, whose time is the makespan). Jobs chainserve still lists must
// also be done with the reference makespan and event counters; older
// ones were evicted by its retention bound and are checked by their
// stream alone.
func (w *workloadGen) checkJobs(results []opResult, listed map[string]listedJob, bad []bool) error {
	scheds := map[int]*schedule.Schedule{}
	var idxs []int
	for i := range w.insts {
		idxs = append(idxs, i)
	}
	refs, _, err := w.references(idxs)
	if err != nil {
		return err
	}
	for idx, r := range refs {
		if r.err != nil {
			return fmt.Errorf("reference plan %d: %w", idx, r.err)
		}
		scheds[idx] = r.res.Schedule
	}
	eng := engine.New(engine.Options{})
	defer eng.Close()
	sup := runtime.New(runtime.Options{Engine: eng})
	parallelFor(len(results), func(i int) {
		r := results[i]
		if !r.ok() {
			return
		}
		ref := w.referenceJob(sup, scheds, r.Op.Job)
		if ref.err != nil || !bytes.Equal(r.Body, ref.stream) {
			bad[i] = true
			return
		}
		if lj, ok := listed[r.JobID]; ok {
			if lj.Status != "done" || lj.Report == nil ||
				math.Float64bits(lj.Report.Makespan) != math.Float64bits(ref.rep.Makespan) ||
				lj.Report.Events != ref.rep.Events {
				bad[i] = true
			}
		}
	})
	return nil
}
