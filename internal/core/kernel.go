package core

import (
	"fmt"
	"math/bits"
	"sync"
	"sync/atomic"

	"chainckpt/internal/chain"
	"chainckpt/internal/platform"
)

// scratch owns every working array one planning run needs: the
// per-segment exponential tables, the window prefix weights, and (built
// lazily, since Evaluator only needs the tables) the dynamic-program
// arenas of run, memLevel and reconstruct. A scratch serves any window of
// up to cap tasks; a Kernel recycles scratches across solves so repeated
// planning allocates nothing beyond its results.
type scratch struct {
	cap    int
	tables []float64 // 7*(cap+1)^2 backing of the segment tables
	pre    []float64 // cap+1 window prefix weights
	dp     *dpScratch
}

// dpScratch holds the arenas of the dynamic program proper.
type dpScratch struct {
	ememHdr [][]float64 // cap row headers; nil marks a forbidden disk spot
	ememBuf []float64   // cap*(cap+1)
	mprvHdr [][]int
	mprvBuf []int       // cap*(cap+1)
	edskHdr [][]float64 // cap+1 row headers of the disk level
	edskBuf []float64   // (cap+1)^2
	dprvHdr [][]int
	dprvBuf []int // (cap+1)^2

	// reconstruct scratch: one verification row with argmins, the three
	// position stacks of the walk-back, and the ADMV partial scratch.
	row              []float64
	arg              []int
	posD, posM, posV []int
	rpartial         *partialScratch

	mu  sync.Mutex
	mem []*memScratch // free list for memLevel workers
}

// memScratch is the per-goroutine arena of one memLevel call: the lazy
// verification rows and, for ADMV, the partial-verification scratch.
type memScratch struct {
	rows    [][]float64 // cap+1 headers
	rowBuf  []float64   // (cap+1)^2
	partial *partialScratch
}

// newScratch allocates a scratch serving windows of up to cap tasks.
func newScratch(cap int) *scratch {
	size := (cap + 1) * (cap + 1)
	return &scratch{
		cap:    cap,
		tables: make([]float64, 7*size),
		pre:    make([]float64, cap+1),
	}
}

// ensureDP builds the dynamic-program arenas on first use. n is only
// checked against the capacity; the arenas are always sized for cap.
func (sc *scratch) ensureDP(n int) *dpScratch {
	if n > sc.cap {
		panic(fmt.Sprintf("core: scratch capacity %d exceeded by window of %d tasks", sc.cap, n))
	}
	if sc.dp == nil {
		c := sc.cap
		size := (c + 1) * (c + 1)
		sc.dp = &dpScratch{
			ememHdr: make([][]float64, c),
			ememBuf: make([]float64, c*(c+1)),
			mprvHdr: make([][]int, c),
			mprvBuf: make([]int, c*(c+1)),
			edskHdr: make([][]float64, c+1),
			edskBuf: make([]float64, size),
			dprvHdr: make([][]int, c+1),
			dprvBuf: make([]int, size),
			row:     make([]float64, c+1),
			arg:     make([]int, c+1),
			posD:    make([]int, 0, c+1),
			posM:    make([]int, 0, c+1),
			posV:    make([]int, 0, c+1),
		}
	}
	return sc.dp
}

// getMem hands out a memLevel arena, recycling returned ones. Safe for
// the solver's concurrent per-disk-position workers.
func (sc *scratch) getMem(n int, needPartial bool) *memScratch {
	dp := sc.ensureDP(n)
	dp.mu.Lock()
	var ms *memScratch
	if k := len(dp.mem); k > 0 {
		ms = dp.mem[k-1]
		dp.mem = dp.mem[:k-1]
	}
	dp.mu.Unlock()
	if ms == nil {
		ms = &memScratch{
			rows:   make([][]float64, sc.cap+1),
			rowBuf: make([]float64, (sc.cap+1)*(sc.cap+1)),
		}
	}
	if needPartial && ms.partial == nil {
		ms.partial = newPartialScratch(sc.cap)
	}
	return ms
}

func (sc *scratch) putMem(ms *memScratch) {
	sc.dp.mu.Lock()
	sc.dp.mem = append(sc.dp.mem, ms)
	sc.dp.mu.Unlock()
}

// reconPartial returns the reconstruct pass's ADMV partial scratch.
func (sc *scratch) reconPartial() *partialScratch {
	dp := sc.dp
	if dp.rpartial == nil {
		dp.rpartial = newPartialScratch(sc.cap)
	}
	return dp.rpartial
}

// Kernel is a long-lived, reusable solver kernel: it owns size-bucketed
// pools of scratch arenas (capacities are rounded up to powers of two),
// so repeated planning through one kernel is allocation-free in the
// dynamic program. All methods are safe for concurrent use; concurrent
// solves simply draw distinct arenas from the pools.
//
// The package-level Plan* functions are thin wrappers over DefaultKernel;
// long-running services (internal/engine, internal/runtime) own their
// kernel so their pool statistics are observable in isolation.
type Kernel struct {
	solves  atomic.Uint64
	buckets [48]kernelBucket

	// team is the kernel's persistent solve team: helper goroutines that
	// parallel solves (Options.SolveWorkers) tile their DP phases
	// across. Spawned lazily on the first parallel solve, shed after an
	// idle timeout; serial solves never touch it.
	team solveTeam
}

// kernelBucket pools scratches of one capacity class.
type kernelBucket struct {
	pool   sync.Pool
	reuses atomic.Uint64
	fresh  atomic.Uint64
}

// KernelStats is a snapshot of a kernel's pool counters.
type KernelStats struct {
	// Solves counts planning runs completed through the kernel.
	Solves uint64 `json:"solves"`
	// ScratchReuses counts solves served by a recycled arena.
	ScratchReuses uint64 `json:"scratch_reuses"`
	// ScratchFresh counts solves that had to allocate a new arena.
	ScratchFresh uint64 `json:"scratch_fresh"`
	// Buckets reports the per-capacity pools that have been touched.
	Buckets []KernelBucketStats `json:"buckets,omitempty"`
	// Parallel reports the kernel's solve-team counters.
	Parallel KernelParallelStats `json:"parallel"`
}

// KernelParallelStats snapshots the worker team of a kernel's parallel
// solves (Options.SolveWorkers). The observability plane projects these
// into the chainckpt_kernel_parallel_* metric families.
type KernelParallelStats struct {
	// Solves counts planning runs that engaged the team (resolved
	// worker count > 1).
	Solves uint64 `json:"solves"`
	// Tiles counts tiles dispatched to the team across all DP phases
	// (table build, memory levels, disk-level wavefronts).
	Tiles uint64 `json:"tiles"`
	// LocalTiles counts tiles claimed from the claimant's own span — the
	// owner-computes fast path that touches only worker-local cache
	// lines. Tiles - LocalTiles ran on stolen ranges.
	LocalTiles uint64 `json:"local_tiles"`
	// Steals counts steal events: half-span grabs by an idle participant
	// plus single leftover tiles claimed off a victim. Zero on a
	// perfectly balanced phase; the rebalancing traffic otherwise.
	Steals uint64 `json:"steals"`
	// BusySeconds accumulates the time solve participants (the calling
	// goroutine and every helper) spent executing tiles.
	BusySeconds float64 `json:"busy_seconds"`
	// CrossoverSkips counts auto-mode solves (SolveWorkers: 0) that
	// stayed serial — the window was below the crossover length or the
	// machine has a single core.
	CrossoverSkips uint64 `json:"crossover_skips"`
	// Workers is the current number of live helper goroutines (a gauge:
	// idle helpers retire after a timeout).
	Workers int `json:"workers"`
}

// KernelBucketStats is one capacity class of a kernel's scratch pool.
type KernelBucketStats struct {
	// Cap is the bucket's arena capacity in tasks (a power of two).
	Cap int `json:"cap"`
	// Reuses and Fresh count arena recycles and allocations.
	Reuses uint64 `json:"reuses"`
	Fresh  uint64 `json:"fresh"`
}

// NewKernel returns an empty kernel. The zero cost of creating one makes
// a fresh kernel the natural way to benchmark the unpooled path.
func NewKernel() *Kernel { return &Kernel{} }

var (
	defaultKernelMu sync.Mutex
	defaultKernel   *Kernel
)

// DefaultKernel returns the shared process-wide kernel that the
// package-level Plan* functions solve through.
func DefaultKernel() *Kernel {
	defaultKernelMu.Lock()
	defer defaultKernelMu.Unlock()
	if defaultKernel == nil {
		defaultKernel = NewKernel()
	}
	return defaultKernel
}

// bucketIndex maps a window length to its capacity class: the smallest
// power of two >= max(n, 8).
func bucketIndex(n int) int {
	if n <= 8 {
		return 3
	}
	return bits.Len(uint(n - 1))
}

// acquire draws an arena for an n-task window from its power-of-two
// bucket.
func (k *Kernel) acquire(n int) *scratch {
	i := bucketIndex(n)
	b := &k.buckets[i]
	if sc, ok := b.pool.Get().(*scratch); ok {
		b.reuses.Add(1)
		return sc
	}
	b.fresh.Add(1)
	return newScratch(1 << i)
}

// release returns an arena to the bucket it was drawn from.
func (k *Kernel) release(sc *scratch) {
	k.buckets[bucketIndex(sc.cap)].pool.Put(sc)
}

// Stats returns a snapshot of the kernel's pool counters.
func (k *Kernel) Stats() KernelStats {
	st := KernelStats{
		Solves: k.solves.Load(),
		Parallel: KernelParallelStats{
			Solves:         k.team.solves.Load(),
			Tiles:          k.team.tiles.Load(),
			LocalTiles:     k.team.localTiles.Load(),
			Steals:         k.team.steals.Load(),
			BusySeconds:    float64(k.team.busyNs.Load()) / 1e9,
			CrossoverSkips: k.team.skips.Load(),
			Workers:        k.team.liveWorkers(),
		},
	}
	for i := range k.buckets {
		r, f := k.buckets[i].reuses.Load(), k.buckets[i].fresh.Load()
		if r == 0 && f == 0 {
			continue
		}
		st.ScratchReuses += r
		st.ScratchFresh += f
		st.Buckets = append(st.Buckets, KernelBucketStats{Cap: 1 << i, Reuses: r, Fresh: f})
	}
	return st
}

// ArenaBytes returns the backing bytes of one fully built scratch arena
// of the given capacity (segment tables, prefix weights, and the
// dynamic-program buffers; the lazily grown memLevel arenas are
// excluded). The observability plane multiplies it by
// KernelStats.Buckets arena counts to expose pooled scratch memory as a
// gauge. Core itself stays free of any obs dependency — the 5 allocs/op
// warm path is gated by construction, not by instrumentation care.
func ArenaBytes(cap int) int {
	size := (cap + 1) * (cap + 1)
	b := 8 * (7*size + cap + 1)      // tables + pre
	b += 8 * 2 * cap * (cap + 1)     // ememBuf + mprvBuf
	b += 8 * 2 * size                // edskBuf + dprvBuf
	b += 8 * (2*(cap+1) + 3*(cap+1)) // row, arg, pos stacks
	return b
}

// Plan runs the named algorithm on the chain under the platform, using
// pooled scratch arenas.
func (k *Kernel) Plan(alg Algorithm, c *chain.Chain, p platform.Platform) (*Result, error) {
	return k.PlanOpts(alg, c, p, Options{})
}

// PlanOpts runs the named algorithm under the given options, using pooled
// scratch arenas. It is the kernel form of the package-level PlanOpts and
// returns bit-identical results.
func (k *Kernel) PlanOpts(alg Algorithm, c *chain.Chain, p platform.Platform, opts Options) (*Result, error) {
	return k.planWindow(alg, c, p, 0, opts)
}

// ReplanSuffix re-solves the dynamic program for the suffix of the chain
// after boundary `from`, typically because the platform's error rates
// have been re-estimated mid-run: boundary `from` is treated as the
// committed disk checkpoint the suffix starts from (free recovery,
// exactly like the virtual task T0). Unlike re-planning through a fresh
// chain, no suffix chain, cost table or constraint set is materialized:
// the kernel solves the window [from, n] in place against the original
// per-boundary tables, with scratch sized to the suffix (O((n-from)^2),
// not O(n^2)) and drawn from the pool.
//
// opts.Costs and opts.Constraints, when given, are the FULL-chain tables
// of the original plan; opts.MaxDiskCheckpoints is the budget remaining
// for the suffix. The result's schedule is indexed 1..n-from, suffix
// boundary j corresponding to original boundary from+j — the shape a
// supervisor splices in mid-run (see internal/runtime).
//
// ReplanSuffix(…, 0, opts) is exactly PlanOpts, and for any split the
// result is bit-identical to planning the suffix as a standalone chain
// with sliced cost and constraint tables (the equivalence suite in
// crossval_test.go enforces this).
func (k *Kernel) ReplanSuffix(alg Algorithm, c *chain.Chain, p platform.Platform, from int, opts Options) (*Result, error) {
	return k.planWindow(alg, c, p, from, opts)
}

// planWindow is the shared solve path: validate, borrow an arena, run,
// return the arena.
func (k *Kernel) planWindow(alg Algorithm, c *chain.Chain, p platform.Platform, lo int, opts Options) (*Result, error) {
	switch alg {
	case AlgADV, AlgADMVStar, AlgADMV:
	default:
		return nil, fmt.Errorf("core: unknown algorithm %q", alg)
	}
	if c == nil || c.Len() == 0 {
		return nil, fmt.Errorf("core: empty chain")
	}
	if lo < 0 || lo >= c.Len() {
		return nil, fmt.Errorf("core: suffix start %d out of range [0, %d)", lo, c.Len())
	}
	sc := k.acquire(c.Len() - lo)
	defer k.release(sc)
	s, err := newWindowSolver(c, p, alg, lo, opts.Costs, sc)
	if err != nil {
		return nil, err
	}
	s.k = k
	if err := s.applyOptions(opts); err != nil {
		return nil, err
	}
	if s.workers > 1 {
		k.team.solves.Add(1)
	}
	s.buildTables()
	res, err := s.run()
	if err == nil {
		k.solves.Add(1)
	}
	return res, err
}

// applyOptions validates and installs the optional planning inputs.
func (s *solver) applyOptions(opts Options) error {
	if opts.Constraints != nil {
		if err := opts.Constraints.validate(s.c.Len()); err != nil {
			return err
		}
		s.cons = opts.Constraints
	}
	if opts.MaxDiskCheckpoints != 0 {
		if opts.MaxDiskCheckpoints < 1 {
			return fmt.Errorf("core: MaxDiskCheckpoints must be at least 1 (the final checkpoint is mandatory)")
		}
		if opts.MaxDiskCheckpoints < s.maxDisk {
			s.maxDisk = opts.MaxDiskCheckpoints
		}
	}
	w, err := s.k.team.resolveSolveWorkers(opts.SolveWorkers, s.n)
	if err != nil {
		return err
	}
	s.workers = w
	return nil
}
