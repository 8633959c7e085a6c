// Task runners: the pluggable execution backends of the supervisor. A
// TaskRunner executes one task at a time on an opaque state payload and
// reports the modeled compute seconds consumed plus whether the
// execution was cut short by a fail-stop error; its Verify method is the
// runtime counterpart of the paper's verifications, checking a state for
// silent corruption either exhaustively (guaranteed, recall 1) or
// cheaply (partial, recall r < 1).
package runtime

import (
	"context"
	"encoding/json"
	"fmt"
	"sync"
	"time"

	"chainckpt/internal/expmath"
	"chainckpt/internal/platform"
	"chainckpt/internal/rng"
)

// State is the opaque application payload flowing between tasks; the
// supervisor checkpoints it byte-for-byte and never interprets it.
type State []byte

// TaskSpec describes one task execution request.
type TaskSpec struct {
	// Index is the 1-based task position in the chain.
	Index int
	// Name and Weight come from the chain's task.
	Name   string
	Weight float64
	// Attempt counts executions of this task within the run (0 on the
	// first try; rollbacks re-execute with higher attempts).
	Attempt int
	// State is the input payload (the output of task Index-1).
	State State
}

// TaskResult is the outcome of one task execution.
type TaskResult struct {
	// State is the output payload; ignored when FailStop is set (a crash
	// destroys memory).
	State State
	// Elapsed is the modeled compute seconds consumed, which the
	// supervisor charges to the makespan. A fail-stop reports the time
	// until the crash.
	Elapsed float64
	// FailStop reports that the execution crashed after Elapsed seconds.
	FailStop bool
}

// TaskRunner executes tasks and verifies states. Implementations decide
// what "executing" means: spinning, sleeping, calling user code, or
// sampling the simulator's error model.
type TaskRunner interface {
	// Run executes one task. A returned error is an unrecoverable runtime
	// fault and aborts the whole run; modeled fail-stop errors are
	// reported through TaskResult.FailStop instead.
	Run(ctx context.Context, t TaskSpec) (TaskResult, error)
	// Verify checks state for silent corruption at the given boundary.
	// partial selects the cheap low-recall check; ok=false means the
	// corruption was detected.
	Verify(ctx context.Context, boundary int, state State, partial bool) (ok bool, err error)
}

// NopRunner executes tasks instantly and perfectly: Elapsed equals the
// task weight, no errors ever. The baseline for tests and dry runs —
// under it the supervisor's makespan is exactly the schedule's
// error-free time.
type NopRunner struct{}

// Run implements TaskRunner.
func (NopRunner) Run(_ context.Context, t TaskSpec) (TaskResult, error) {
	return TaskResult{State: markState(t.State, t.Index), Elapsed: t.Weight}, nil
}

// Verify implements TaskRunner; nothing ever corrupts.
func (NopRunner) Verify(context.Context, int, State, bool) (bool, error) { return true, nil }

// SleepRunner executes a task by sleeping Scale × weight of wall time
// (Scale 1e-3: one modeled kilosecond per wall millisecond), for demos
// that want to watch a run progress. It respects context cancellation.
type SleepRunner struct {
	// Scale converts modeled seconds to wall seconds (default 1e-3).
	Scale float64
}

// Run implements TaskRunner.
func (r SleepRunner) Run(ctx context.Context, t TaskSpec) (TaskResult, error) {
	scale := r.Scale
	if scale == 0 {
		scale = 1e-3
	}
	d := time.Duration(float64(time.Second) * scale * t.Weight)
	select {
	case <-time.After(d):
	case <-ctx.Done():
		return TaskResult{}, ctx.Err()
	}
	return TaskResult{State: markState(t.State, t.Index), Elapsed: t.Weight}, nil
}

// Verify implements TaskRunner.
func (SleepRunner) Verify(context.Context, int, State, bool) (bool, error) { return true, nil }

// SimRunner injects faults from the simulator's error model: fail-stop
// arrivals are exponential with rate LambdaF, silent corruptions strike
// a task of weight w with probability 1-e^{-LambdaS·w}, and a partial
// verification detects a corruption with probability Recall. Because
// both processes are memoryless, per-task sampling is distributed
// exactly as internal/sim's per-segment sampling, so a supervisor driven
// by a SimRunner reproduces the model the planners optimize — the basis
// of the convergence suite.
//
// The true rates may differ from the platform the schedule was planned
// for; that misspecification is what adaptive re-planning corrects.
type SimRunner struct {
	mu      sync.Mutex // guards src
	lambdaF float64
	lambdaS float64
	recall  float64
	seed    uint64
	src     *rng.Source
}

// NewSimRunner builds a fault-injecting runner whose true error rates
// and partial-verification recall come from p; the same platform that
// planned the schedule yields a well-specified run. The seed fixes the
// fault sequence.
func NewSimRunner(p platform.Platform, seed uint64) *SimRunner {
	return &SimRunner{lambdaF: p.LambdaF, lambdaS: p.LambdaS, recall: p.Recall, seed: seed, src: rng.New(seed)}
}

// Seed returns the seed the runner's fault sequence was drawn from,
// implementing the seeded-runner sniff the supervisor uses to stamp
// Report.Seed.
func (r *SimRunner) Seed() uint64 { return r.seed }

// runnerSeed extracts the RNG seed from runners that expose one; zero
// for the deterministic runners, whose behavior needs no seed to
// reproduce.
func runnerSeed(r TaskRunner) uint64 {
	if sr, ok := r.(interface{ Seed() uint64 }); ok {
		return sr.Seed()
	}
	return 0
}

// NewMisspecifiedRunner builds a fault-injecting runner whose true rates
// are the platform's scaled by factorF and factorS — the robustness
// scenario where the model under- or over-estimates reality.
func NewMisspecifiedRunner(p platform.Platform, factorF, factorS float64, seed uint64) *SimRunner {
	r := NewSimRunner(p, seed)
	r.lambdaF *= factorF
	r.lambdaS *= factorS
	return r
}

// simState is the payload a SimRunner threads through the chain: enough
// to audit progress and to carry the (invisible to the supervisor)
// corruption marker across checkpoint/restore cycles.
type simState struct {
	Boundary int  `json:"boundary"`
	Steps    int  `json:"steps"`
	Corrupt  bool `json:"corrupt"`
}

func decodeSimState(s State) simState {
	var st simState
	if len(s) > 0 {
		json.Unmarshal(s, &st)
	}
	return st
}

func (st simState) encode() State {
	b, _ := json.Marshal(st)
	return State(b)
}

// Run implements TaskRunner.
func (r *SimRunner) Run(_ context.Context, t TaskSpec) (TaskResult, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if x := r.src.ExpFloat64(r.lambdaF); x < t.Weight {
		return TaskResult{Elapsed: x, FailStop: true}, nil
	}
	st := decodeSimState(t.State)
	if st.Boundary != t.Index-1 {
		return TaskResult{}, fmt.Errorf("runtime: task %d fed state of boundary %d", t.Index, st.Boundary)
	}
	if r.src.Bernoulli(expmath.ProbError(r.lambdaS, t.Weight)) {
		st.Corrupt = true
	}
	st.Boundary = t.Index
	st.Steps++
	return TaskResult{State: st.encode(), Elapsed: t.Weight}, nil
}

// Verify implements TaskRunner: a guaranteed verification always spots
// the corruption marker, a partial one spots it with probability Recall.
func (r *SimRunner) Verify(_ context.Context, _ int, state State, partial bool) (bool, error) {
	st := decodeSimState(state)
	if !st.Corrupt {
		return true, nil
	}
	if !partial {
		return false, nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return !r.src.Bernoulli(r.recall), nil
}

// markState appends a compact execution record to the payload so runs
// driven by the simple runners produce checkpointable, growing state.
func markState(s State, index int) State {
	out := make(State, 0, len(s)+8)
	out = append(out, s...)
	return append(out, []byte(fmt.Sprintf("|T%d", index))...)
}
