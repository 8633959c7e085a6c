package core

import (
	"fmt"

	"chainckpt/internal/chain"
	"chainckpt/internal/platform"
	"chainckpt/internal/schedule"
)

// Constraints restricts which mechanisms each task boundary may carry.
// Real workflows often cannot checkpoint everywhere: a kernel may hold
// huge transient state (no memory checkpoint), pin the parallel file
// system (no disk checkpoint), or lack a cheap detector (no partial
// verification). The dynamic programs honor these restrictions and stay
// optimal over the constrained schedule space.
//
// The zero restriction (NewConstraints) allows everything everywhere.
type Constraints struct {
	n       int
	allowed []schedule.Action // allowed[i] for boundary i, 1-based; [0] unused
}

// NewConstraints returns constraints allowing every mechanism at every
// boundary of an n-task chain.
func NewConstraints(n int) (*Constraints, error) {
	if n < 1 {
		return nil, fmt.Errorf("core: constraints need at least one task")
	}
	c := &Constraints{n: n, allowed: make([]schedule.Action, n+1)}
	for i := 1; i <= n; i++ {
		c.allowed[i] = schedule.Partial | schedule.Guaranteed | schedule.Memory | schedule.Disk
	}
	return c, nil
}

// Forbid removes mechanisms from a boundary's allowed set. Forbidding
// Guaranteed also forbids Memory and Disk (they require the guaranteed
// verification); forbidding Memory also forbids Disk.
func (c *Constraints) Forbid(i int, mechanisms schedule.Action) {
	c.check(i)
	if mechanisms.Has(schedule.Guaranteed) {
		mechanisms |= schedule.Memory
	}
	if mechanisms.Has(schedule.Memory) {
		mechanisms |= schedule.Disk
	}
	c.allowed[i] &^= mechanisms
}

// Len returns the number of task boundaries the constraints cover.
func (c *Constraints) Len() int { return c.n }

// Allowed reports the mechanisms boundary i may carry.
func (c *Constraints) Allowed(i int) schedule.Action {
	c.check(i)
	return c.allowed[i]
}

// Permits reports whether action a may be placed at boundary i.
func (c *Constraints) Permits(i int, a schedule.Action) bool {
	c.check(i)
	return c.allowed[i]&a == a
}

// Suffix returns the constraints for the last n-from boundaries as a
// standalone table (suffix boundary j maps to original boundary from+j).
// It is the explicit-slicing counterpart of Kernel.ReplanSuffix, which
// consumes the full table in place; the equivalence suite uses it to
// prove both routes identical.
func (c *Constraints) Suffix(from int) (*Constraints, error) {
	if from < 0 || from >= c.n {
		return nil, fmt.Errorf("core: suffix start %d out of range [0, %d)", from, c.n)
	}
	out, err := NewConstraints(c.n - from)
	if err != nil {
		return nil, err
	}
	copy(out.allowed[1:], c.allowed[from+1:])
	return out, nil
}

// validate checks that the constraints leave at least one complete
// schedule: the final boundary must accept a full disk checkpoint.
func (c *Constraints) validate(n int) error {
	if c.n != n {
		return fmt.Errorf("core: constraints sized for %d tasks but chain has %d", c.n, n)
	}
	full := schedule.Guaranteed | schedule.Memory | schedule.Disk
	if c.allowed[n]&full != full {
		return fmt.Errorf("core: final boundary %d must allow V*+M+D (the output must reach stable storage)", n)
	}
	return nil
}

func (c *Constraints) check(i int) {
	if i < 1 || i > c.n {
		panic(fmt.Sprintf("core: constraint boundary %d out of range [1, %d]", i, c.n))
	}
}

// PlanConstrained runs the named algorithm restricted to schedules whose
// boundary actions satisfy cons. With nil constraints it is Plan.
func PlanConstrained(alg Algorithm, c *chain.Chain, p platform.Platform, cons *Constraints) (*Result, error) {
	return PlanOpts(alg, c, p, Options{Constraints: cons})
}

// PlanWithCosts runs the named algorithm with per-boundary checkpoint,
// recovery and verification costs (see platform.Costs). With a nil table
// it is Plan.
func PlanWithCosts(alg Algorithm, c *chain.Chain, p platform.Platform, costs *platform.Costs) (*Result, error) {
	return PlanOpts(alg, c, p, Options{Costs: costs})
}

// Options bundles every optional planning input.
type Options struct {
	// Costs overrides the platform's constant costs per boundary.
	Costs *platform.Costs
	// Constraints restricts which boundaries may carry which mechanisms.
	Constraints *Constraints
	// MaxDiskCheckpoints bounds the number of disk checkpoints, counting
	// the mandatory final one (I/O-pressure or quota limits on the
	// parallel file system). Zero means unlimited; otherwise it must be
	// at least 1.
	MaxDiskCheckpoints int
	// SolveWorkers sets the worker team one solve may tile its dynamic
	// program across (see internal/core/parallel.go). 1 is the fully
	// serial path, which is what batch schedulers such as
	// internal/engine want when they already parallelize across
	// instances. Zero — the default — is GOMAXPROCS-aware auto: the
	// team engages only above a crossover window length where the
	// dispatch overhead amortizes (solves below it are counted as
	// crossover skips in KernelStats.Parallel). Larger values pin the
	// team width. SolveWorkers never changes the result, only the wall
	// clock: parallel solves are byte-identical to serial ones.
	SolveWorkers int
}

// PlanOpts runs the named algorithm under the given options. It is a
// thin wrapper over the process-wide solver kernel, so repeated calls
// recycle their dynamic-program scratch (see Kernel).
func PlanOpts(alg Algorithm, c *chain.Chain, p platform.Platform, opts Options) (*Result, error) {
	return DefaultKernel().PlanOpts(alg, c, p, opts)
}

// The mask helpers below answer "may this window boundary serve in this
// role"; window boundary 0 is the virtual task T0 (or the committed disk
// checkpoint a suffix re-plan starts from) and always qualifies as an
// existing checkpoint/verification position.

func (s *solver) mayDisk(i int) bool {
	if i == 0 || s.cons == nil {
		return true
	}
	return s.cons.Permits(s.lo+i, schedule.Guaranteed|schedule.Memory|schedule.Disk)
}

func (s *solver) mayMemory(i int) bool {
	if i == 0 || s.cons == nil {
		return true
	}
	return s.cons.Permits(s.lo+i, schedule.Guaranteed|schedule.Memory)
}

func (s *solver) mayGuaranteed(i int) bool {
	if i == 0 || s.cons == nil {
		return true
	}
	return s.cons.Permits(s.lo+i, schedule.Guaranteed)
}

func (s *solver) mayPartial(i int) bool {
	if i == 0 || s.cons == nil {
		return true
	}
	return s.cons.Permits(s.lo+i, schedule.Partial)
}
