package core

import (
	"fmt"
	"math"
	"sort"

	"chainckpt/internal/chain"
	"chainckpt/internal/expmath"
	"chainckpt/internal/platform"
)

// solver carries the state of one planning run over a window of the
// chain: the suffix of tasks T_{lo+1..N} (lo = 0 plans the whole chain).
// Its methods are safe to call from multiple goroutines as long as each
// goroutine uses its own scratch buffers: the precomputed tables are
// read-only after newWindowSolver.
//
// Every working array lives in a scratch arena, so a solver itself never
// allocates beyond its Result; a Kernel recycles arenas across solves.
type solver struct {
	c   *chain.Chain
	p   platform.Platform
	alg Algorithm
	// lo is the first boundary of the planning window: the window covers
	// tasks T_{lo+1}..T_N of the chain, re-indexed 1..n locally. Boundary
	// lo plays the role of the virtual task T0 (free recovery), which is
	// exactly the model's state right after a committed disk checkpoint —
	// the suffix re-planning case.
	lo  int
	n   int     // window length (tasks), local boundaries 0..n
	g   float64 // 1 - recall
	lfs float64 // lambda_f + lambda_s
	// pre[i] = w_{lo+1} + ... + w_{lo+i}: window prefix weights,
	// accumulated left to right exactly like chain.New builds its own
	// prefix, so a window solve is bit-identical to solving a standalone
	// chain of the same tasks.
	pre []float64
	// cons, when non-nil, restricts which boundaries may carry which
	// mechanisms (see PlanConstrained). Indexed by original boundary.
	cons *Constraints
	// costs, when non-nil, overrides the platform's constant costs with
	// per-boundary values (see PlanFull and platform.Costs). Indexed by
	// original boundary.
	costs *platform.Costs
	// maxDisk bounds the number of disk checkpoints (window boundaries
	// 1..n, including the mandatory final one). Always in [1, n].
	maxDisk int
	// workers is the resolved per-solve parallelism (see
	// Options.SolveWorkers and solveTeam.resolveSolveWorkers); 1 runs
	// every phase serially. The result is identical for any value.
	workers int
	// k is the kernel whose worker team a parallel solve borrows; nil
	// for fresh solvers (Evaluator), which never parallelize.
	k *Kernel
	// sc owns every working array of the run. Pooled solvers borrow it
	// from a Kernel; fresh solvers allocate their own.
	sc *scratch

	// Per-segment exponential tables, indexed by idx(i,j) for the segment
	// weight W_{i,j}. They depend only on the interval, not on checkpoint
	// positions, and turn the O(n^6) hot loop into pure arithmetic:
	//
	//	sInt = e^{ls W} * (e^{lf W}-1)/lf      sFm1 = e^{ls W} (e^{lf W}-1)
	//	fsM1 = e^{(lf+ls) W} - 1               sM1  = e^{ls W} - 1
	//	pf   = 1 - e^{-lf W}                   pfTl = pf * T^lost
	sInt, sFm1, fsM1, sM1, pf, pfTl []float64
}

func newSolverWithCosts(c *chain.Chain, p platform.Platform, alg Algorithm, costs *platform.Costs) (*solver, error) {
	s, err := newWindowSolver(c, p, alg, 0, costs, nil)
	if err != nil {
		return nil, err
	}
	s.buildTables()
	return s, nil
}

// newWindowSolver builds a solver for the window [lo, N] of the chain.
// With sc == nil a fresh arena is allocated; otherwise sc must have
// capacity for at least N-lo tasks. The caller must call buildTables
// before solving or evaluating — the kernel path does so after
// applyOptions, so the table build can use the resolved worker team.
func newWindowSolver(c *chain.Chain, p platform.Platform, alg Algorithm, lo int, costs *platform.Costs, sc *scratch) (*solver, error) {
	if c == nil || c.Len() == 0 {
		return nil, fmt.Errorf("core: empty chain")
	}
	if lo < 0 || lo >= c.Len() {
		return nil, fmt.Errorf("core: window start %d out of range [0, %d)", lo, c.Len())
	}
	if err := p.Validate(); err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	if costs != nil {
		if costs.Len() != c.Len() {
			return nil, fmt.Errorf("core: cost table for %d tasks but chain has %d", costs.Len(), c.Len())
		}
		if err := costs.Validate(); err != nil {
			return nil, fmt.Errorf("core: %w", err)
		}
	}
	n := c.Len() - lo
	if sc == nil {
		sc = newScratch(n)
	} else if sc.cap < n {
		return nil, fmt.Errorf("core: scratch capacity %d too small for %d tasks", sc.cap, n)
	}
	s := &solver{
		c:       c,
		p:       p,
		alg:     alg,
		lo:      lo,
		n:       n,
		g:       p.G(),
		lfs:     p.LambdaF + p.LambdaS,
		costs:   costs,
		maxDisk: n,
		workers: 1,
		sc:      sc,
	}
	return s, nil
}

// buildTables fills the per-segment exponential tables. Each row i of
// the (i,j) triangle is a pure function of the prefix weights, so with
// a worker team the rows are tiled across it; every entry is computed
// by the same expression either way, keeping parallel builds
// bit-identical to serial ones.
func (s *solver) buildTables() {
	n := s.n
	size := (n + 1) * (n + 1)
	backing := s.sc.tables[: 6*size : 6*size]
	s.sInt, backing = backing[:size:size], backing[size:]
	s.sFm1, backing = backing[:size:size], backing[size:]
	s.fsM1, backing = backing[:size:size], backing[size:]
	s.sM1, backing = backing[:size:size], backing[size:]
	s.pf, backing = backing[:size:size], backing[size:]
	s.pfTl = backing[:size:size]

	pre := s.sc.pre[: n+1 : n+1]
	pre[0] = 0
	for i := 1; i <= n; i++ {
		pre[i] = pre[i-1] + s.c.Weight(s.lo+i)
	}
	s.pre = pre

	lf, ls := s.p.LambdaF, s.p.LambdaS
	rows := func(lo, hi int) {
		for i := lo; i < hi; i++ {
			base := i * (n + 1)
			for j := i; j <= n; j++ {
				w := pre[j] - pre[i]
				S := expmath.Growth(ls, w)
				pf := expmath.ProbError(lf, w)
				k := base + j
				s.sInt[k] = S * expmath.IntExpGrowth(lf, w)
				s.sFm1[k] = S * expmath.GrowthM1(lf, w)
				s.fsM1[k] = expmath.GrowthM1(s.lfs, w)
				s.sM1[k] = expmath.GrowthM1(ls, w)
				s.pf[k] = pf
				s.pfTl[k] = pf * expmath.TLost(lf, w)
			}
		}
	}
	if s.workers > 1 && s.k != nil {
		blocks := tileCount(n+1, s.workers)
		s.k.team.run(s.workers, blocks, func(b int) {
			lo, hi := tileSpan(n+1, blocks, b)
			rows(lo, hi)
		})
	} else {
		rows(0, n+1)
	}
}

// idx addresses the (i,j) entry of the segment tables (window-local).
func (s *solver) idx(i, j int) int { return i*(s.n+1) + j }

// rd returns the disk recovery cost of the checkpoint at window boundary
// d1, which is zero when that checkpoint is the window origin (the
// virtual task T0, or the committed disk checkpoint a suffix re-plan
// starts from: restarting from it is free by the model's convention).
func (s *solver) rd(d1 int) float64 {
	if d1 == 0 {
		return 0
	}
	if s.costs != nil {
		return s.costs.At(s.lo + d1).RD
	}
	return s.p.RD
}

// rm returns the memory recovery cost of the checkpoint at window
// boundary m1, zero at the window origin.
func (s *solver) rm(m1 int) float64 {
	if m1 == 0 {
		return 0
	}
	if s.costs != nil {
		return s.costs.At(s.lo + m1).RM
	}
	return s.p.RM
}

// cdAt, cmAt, vstarAt and vAt return the checkpoint and verification
// costs of window boundary i.
func (s *solver) cdAt(i int) float64 {
	if s.costs != nil {
		return s.costs.At(s.lo + i).CD
	}
	return s.p.CD
}

func (s *solver) cmAt(i int) float64 {
	if s.costs != nil {
		return s.costs.At(s.lo + i).CM
	}
	return s.p.CM
}

func (s *solver) vstarAt(i int) float64 {
	if s.costs != nil {
		return s.costs.At(s.lo + i).VStar
	}
	return s.p.VStar
}

func (s *solver) vAt(i int) float64 {
	if s.costs != nil {
		return s.costs.At(s.lo + i).V
	}
	return s.p.V
}

// segmentCost is the shape Equation (4) and E^- share, evaluated on
// one segment's table entries:
//
//	sInt + (sM1+1) V + sFm1 rdE + fsM1 everif + sM1 R
//
// Every caller, whether indexed or scanning a table row, goes through
// it, so all of them perform the same operations in the same order.
func segmentCost(sInt, sM1, sFm1, fsM1, v, rdE, everif, r float64) float64 {
	return sInt + (sM1+1)*v + sFm1*rdE + fsM1*everif + sM1*r
}

// eSegment implements the paper's Equation (4): the expected time to
// successfully execute the tasks T_{v1+1..v2} ending with a guaranteed
// verification, given the last disk checkpoint at d1 and the last memory
// checkpoint at m1, with everifV1 = Everif(d1,m1,v1):
//
//	E = e^{ls W} ((e^{lf W}-1)/lf + V*)
//	  + e^{ls W} (e^{lf W}-1) (R_D + Emem(d1,m1))
//	  + (e^{(ls+lf) W}-1) Everif(d1,m1,v1)
//	  + (e^{ls W}-1) R_M
//
// The callers hoist the (d1,m1) invariants: rdE = R_D(d1) + Emem(d1,m1)
// and rmM1 = R_M(m1), each computed by the same operations the formula
// spells out, so hoisting never changes a bit.
func (s *solver) eSegment(v1, v2 int, rdE, rmM1, everifV1 float64) float64 {
	k := s.idx(v1, v2)
	return segmentCost(s.sInt[k], s.sM1[k], s.sFm1[k], s.fsM1[k], s.vstarAt(v2), rdE, everifV1, rmM1)
}

// eMinus implements E^-(d1,m1,v1,p1,p2,v2) of Section III-B: the expected
// time for the sub-interval T_{p1+1..p2} between two partial
// verifications, with the left re-execution term Eleft removed (it is
// re-injected by the e^{(ls+lf)W_{p2,v2}} multiplier in epartial) and the
// silent-error branch split by the recall into a detected part (gRm =
// (1-g) R_M(m1)) and an undetected part (erightP2 = Eright(d1,m1,v1,p2,v2)).
// rdE is R_D(d1) + Emem(d1,m1), as in eSegment.
func (s *solver) eMinus(p1, p2 int, rdE, gRm, everifV1, erightP2 float64) float64 {
	k := s.idx(p1, p2)
	return segmentCost(s.sInt[k], s.sM1[k], s.sFm1[k], s.fsM1[k], s.vAt(p2), rdE, everifV1, gRm+s.g*erightP2)
}

// eRightStep advances the Eright recurrence by one sub-interval: the
// expected time lost executing T_{p1+1..p2} while an undetected silent
// error is latent, where erightP2 is Eright at the next verification.
// rdE and gRm are as in eMinus; (1-pf) W is recomputed from the prefix
// weights by the same operations buildTables uses for pf's argument.
// The explicit float64 conversion rounds that product on its own, as
// storing it in a table did, so no target may fuse it into the
// following add as an FMA.
func (s *solver) eRightStep(p1, p2 int, rdE, gRm, erightP2 float64) float64 {
	k := s.idx(p1, p2)
	return s.pfTl[k] + s.pf[k]*rdE +
		float64((1-s.pf[k])*(s.pre[p2]-s.pre[p1])) + (1-s.pf[k])*(s.vAt(p2)+gRm+s.g*erightP2)
}

// partialScratch holds the per-goroutine O(n) working arrays of the
// partial-verification dynamic program.
type partialScratch struct {
	ep   []float64 // Epartial(d1,m1,v1,p1,v2) indexed by p1
	er   []float64 // Eright(d1,m1,v1,p1,v2) indexed by p1
	next []int     // argmin p2 of ep[p1]
}

func newPartialScratch(n int) *partialScratch {
	return &partialScratch{
		ep:   make([]float64, n+1),
		er:   make([]float64, n+1),
		next: make([]int, n+1),
	}
}

// epartial computes Epartial(d1,m1,v1,p1=v1,v2), the expected time to
// execute tasks T_{v1+1..v2} choosing optimal partial verification
// positions, per Section III-B. Partial verifications are placed from
// left to right, so the table is filled from the right (p1 = v2-1 down to
// v1); Eright at p1 uses the argmin p2 selected by Epartial at p1, which
// is why both arrays are maintained together. After the call, sc.next
// holds the optimal chain: v1 -> sc.next[v1] -> ... -> v2. rdE is
// R_D(d1) + Emem(d1,m1), as in eSegment.
func (s *solver) epartial(sc *partialScratch, m1, v1, v2 int, rdE, everifV1 float64) float64 {
	rmM1 := s.rm(m1)
	gRm := (1 - s.g) * rmM1
	sc.er[v2] = rmM1
	vGap := s.vstarAt(v2) - s.vAt(v2)
	stride := s.n + 1
	for p1 := v2 - 1; p1 >= v1; p1-- {
		best := math.Inf(1)
		bestP2 := v2
		// Row p1 of the segment tables, indexed by p2 and read left to
		// right.
		row := p1 * stride
		sInt, sM1 := s.sInt[row:row+v2+1], s.sM1[row:row+v2+1]
		sFm1, fsM1 := s.sFm1[row:row+v2+1], s.fsM1[row:row+v2+1]
		for p2 := p1 + 1; p2 <= v2; p2++ {
			if p2 != v2 && !s.mayPartial(p2) {
				continue
			}
			em := segmentCost(sInt[p2], sM1[p2], sFm1[p2], fsM1[p2], s.vAt(p2), rdE, everifV1, gRm+s.g*sc.er[p2])
			var cand float64
			if p2 == v2 {
				// Base case: the interval is closed by the guaranteed
				// verification, whose extra cost (V*-V) is paid once per
				// non-fail-stop attempt, i.e. e^{ls W_{p1,v2}} times in
				// expectation. (The paper prints e^{(ls+lf)W} here, which
				// contradicts its own Equation (4): with e^{ls W} a segment
				// with no partial verifications reduces exactly to the
				// Section III-A closed form. See DESIGN.md.)
				cand = em + (sM1[v2]+1)*vGap
			} else {
				// The interval T_{p1+1..p2} is re-executed
				// e^{(ls+lf)W_{p2,v2}} times in total due to errors
				// detected to its right (the Eleft accounting).
				cand = em*(s.fsM1[s.idx(p2, v2)]+1) + sc.ep[p2]
			}
			if cand < best {
				best, bestP2 = cand, p2
			}
		}
		sc.ep[p1] = best
		sc.next[p1] = bestP2
		sc.er[p1] = s.eRightStep(p1, bestP2, rdE, gRm, sc.er[bestP2])
	}
	return sc.ep[v1]
}

// verifRow computes Everif(d1,m1,v2) for every v2 in [m1, n] into ev
// (paper Equation (1)), optionally recording the argmin v1 into arg. For
// ADMV the per-segment expectation comes from epartial, otherwise from
// the closed form of Equation (4).
//
// Both forms hand every target v2 its candidates in ascending v1 order,
// starting from +Inf and kept only on a strict '<', so they select the
// same argmin and the same bits. The closed form runs in push form: once
// ev[v1] is final (every v1' < v1 has pushed), v1 relaxes ev[v1+1..n]
// along row v1 of the segment tables, which is contiguous in memory.
// ADMV keeps the pull form, one target v2 at a time: successive
// epartial(·, v2) calls re-read column v2 of the tables while it is
// still in cache, and pushing measured 0-25% slower at n = 16 and 22.
func (s *solver) verifRow(d1, m1 int, ememVal float64, sc *partialScratch, ev []float64, arg []int) {
	n := s.n
	rdE := s.rd(d1) + ememVal
	ev[m1] = 0
	if arg != nil {
		arg[m1] = m1
	}
	if s.alg == AlgADMV {
		for v2 := m1 + 1; v2 <= n; v2++ {
			best := math.Inf(1)
			bi := -1
			for v1 := m1; v1 < v2; v1++ {
				if v1 != m1 && !s.mayGuaranteed(v1) {
					continue
				}
				if cand := ev[v1] + s.epartial(sc, m1, v1, v2, rdE, ev[v1]); cand < best {
					best, bi = cand, v1
				}
			}
			ev[v2] = best
			if arg != nil {
				arg[v2] = bi
			}
		}
		return
	}
	rmM1 := s.rm(m1)
	for v2 := m1 + 1; v2 <= n; v2++ {
		ev[v2] = math.Inf(1)
		if arg != nil {
			arg[v2] = -1
		}
	}
	for v1 := m1; v1 < n; v1++ {
		if v1 != m1 && !s.mayGuaranteed(v1) {
			continue
		}
		e := ev[v1]
		// Row v1 of the segment tables, from column v1+1 on.
		lo, hi := s.idx(v1, v1+1), s.idx(v1, n)+1
		sInt, sM1, sFm1, fsM1 := s.sInt[lo:hi], s.sM1[lo:hi], s.sFm1[lo:hi], s.fsM1[lo:hi]
		for j := range sInt {
			v2 := v1 + 1 + j
			seg := segmentCost(sInt[j], sM1[j], sFm1[j], fsM1[j], s.vstarAt(v2), rdE, e, rmM1)
			if cand := e + seg; cand < ev[v2] {
				ev[v2] = cand
				if arg != nil {
					arg[v2] = v1
				}
			}
		}
	}
}

// memLevel computes Emem(d1,m2) for every m2 in [d1, n] into emem, with
// argmins into mprev. It runs in push form, like verifRow's closed form:
// each admissible memory position m1, ascending, builds its verification
// row once emem[m1] is final and relaxes emem[m1+1..n] with it, so every
// target sees its candidates in ascending m1 order and one row buffer
// serves the whole level. For ADV* the only admissible memory checkpoint
// position between two disk checkpoints is d1 itself, which restricts
// the minimization to m1 = d1 and recovers the single-level algorithm.
func (s *solver) memLevel(d1 int, emem []float64, mprev []int) {
	n := s.n
	ms := s.sc.getMem(n, s.alg == AlgADMV)
	defer s.sc.putMem(ms)
	row := ms.row[: n+1 : n+1]
	emem[d1] = 0
	mprev[d1] = d1
	for m := d1 + 1; m <= n; m++ {
		emem[m] = math.Inf(1)
		mprev[m] = -1
	}
	for m1 := d1; m1 < n; m1++ {
		if m1 != d1 && (s.alg == AlgADV || !s.mayMemory(m1)) {
			continue
		}
		e := emem[m1]
		s.verifRow(d1, m1, e, ms.partial, row, nil)
		for m2 := m1 + 1; m2 <= n; m2++ {
			if cand := e + row[m2] + s.cmAt(m2); cand < emem[m2] {
				emem[m2], mprev[m2] = cand, m1
			}
		}
	}
}

// memLevelOrder builds the memory-phase schedule: the admissible disk
// positions, sorted by a work estimate for each level (verified rows it
// will fill times the window width — roughly the cells it touches)
// descending, ties broken ascending-d1 so the order is deterministic.
// The team's shared cursor claims tiles in this order, which makes it
// longest-processing-time-first scheduling: a straggler that claimed a
// huge level last would serialize the whole phase behind it. The order
// is pure scheduling — every level writes only its own row, so any
// permutation yields byte-identical plans.
func (s *solver) memLevelOrder() []int {
	n := s.n
	order := make([]int, 0, n)
	for d1 := 0; d1 < n; d1++ {
		if s.mayDisk(d1) {
			order = append(order, d1)
		}
	}
	var suffix []int
	if s.alg != AlgADV {
		// suffix[i] counts admissible memory boundaries in [i, n): the
		// verified rows a level rooted at d1 fills beyond its own. ADV
		// pins m1 == d1, so its levels all have exactly one row.
		suffix = make([]int, n+1)
		for i := n - 1; i >= 0; i-- {
			suffix[i] = suffix[i+1]
			if s.mayMemory(i) {
				suffix[i]++
			}
		}
	}
	est := func(d1 int) int {
		rows := 1
		if suffix != nil {
			rows += suffix[d1]
		}
		return rows * (n - d1 + 1)
	}
	sort.Slice(order, func(a, b int) bool {
		ea, eb := est(order[a]), est(order[b])
		if ea != eb {
			return ea > eb
		}
		return order[a] < order[b]
	})
	return order
}

// diskPush relaxes level k of the disk recurrence into the targets d2
// in [lo, hi): Edisk(k, d2) is the strict-< argmin over predecessor disk
// positions d1 < d2 of Edisk(k-1, d1) + Emem(d1,d2) + C_D(d2). Each
// predecessor, ascending, pushes along row d1 of the emem arena and row
// k of the disk arena, both contiguous, so every target sees its
// candidates in the same ascending order a per-target scan would.
// Predecessors with Edisk(k-1, d1) = +Inf are skipped: their candidates
// could never win a strict '<'. No path of k-1 checkpoints reaches
// d1 < k-1, and forbidden disk positions are never reached at all, so
// level k costs about (n-k)^2/2 and the whole level about n^3/6.
func (s *solver) diskPush(edisk [][]float64, diskPrev [][]int, ememAll [][]float64, k, lo, hi int) {
	from, to, arg := edisk[k-1], edisk[k][:hi], diskPrev[k][:hi]
	for d1 := 0; d1 < hi-1; d1++ {
		e := from[d1]
		if math.IsInf(e, 1) {
			continue
		}
		emem := ememAll[d1][:hi]
		for d2 := max(lo, d1+1); d2 < hi; d2++ {
			if !s.mayDisk(d2) {
				continue
			}
			if cand := e + emem[d2] + s.cdAt(d2); cand < to[d2] {
				to[d2], arg[d2] = cand, d1
			}
		}
	}
}

// run executes the full three-level dynamic program and reconstructs the
// optimal schedule. The memory-level tables for distinct disk positions
// d1 are independent given the segment tables and are tiled across the
// kernel's worker team; the disk level is a wavefront along the
// checkpoint-count axis, parallel in d2 within each k-level.
func (s *solver) run() (*Result, error) {
	n := s.n
	dp := s.sc.ensureDP(n)
	stride := n + 1
	ememAll := dp.ememHdr[:n:n]
	memPrevAll := dp.mprvHdr[:n:n]
	clear(ememAll)
	clear(memPrevAll)

	// row is duplicated into each branch rather than hoisted: a single
	// hoisted closure would be captured by the team closure below and
	// escape to the heap even when the serial branch runs, costing the
	// warm serial solve two allocs it is gated not to make.
	workers := s.workers
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		// Serial fast path: no goroutines or closures. Batch
		// schedulers that already run one solver per worker use this.
		for d1 := 0; d1 < n; d1++ {
			if s.mayDisk(d1) {
				emem := dp.ememBuf[d1*stride : (d1+1)*stride : (d1+1)*stride]
				mprev := dp.mprvBuf[d1*stride : (d1+1)*stride : (d1+1)*stride]
				s.memLevel(d1, emem, mprev)
				ememAll[d1] = emem
				memPrevAll[d1] = mprev
			}
		}
	} else {
		// Each tile is one memory level; every level writes only row d1
		// of the arenas, so arrival order is invisible. The schedule is
		// dense (forbidden boundaries never become tiles) and work-size-
		// sorted: the shared cursor hands out the widest levels first,
		// so the narrow ones fill in behind them and the finishing tail
		// stays short.
		row := func(d1 int) {
			emem := dp.ememBuf[d1*stride : (d1+1)*stride : (d1+1)*stride]
			mprev := dp.mprvBuf[d1*stride : (d1+1)*stride : (d1+1)*stride]
			s.memLevel(d1, emem, mprev)
			ememAll[d1] = emem
			memPrevAll[d1] = mprev
		}
		order := s.memLevelOrder()
		s.k.team.run(workers, len(order), func(t int) {
			row(order[t])
		})
	}

	// Level 1: place disk checkpoints. The extra dimension k counts the
	// disk checkpoints used so far, bounding them by the budget; with the
	// default budget of n the dimension is exact but costs a factor of
	// about n/3 over the unbounded recurrence (see diskPush).
	K := s.maxDisk
	edisk := dp.edskHdr[: K+1 : K+1] // edisk[k][d2], k checkpoints in 1..d2
	diskPrev := dp.dprvHdr[: K+1 : K+1]
	for k := 0; k <= K; k++ {
		edisk[k] = dp.edskBuf[k*stride : (k+1)*stride : (k+1)*stride]
		diskPrev[k] = dp.dprvBuf[k*stride : (k+1)*stride : (k+1)*stride]
		for d2 := range edisk[k] {
			edisk[k][d2] = math.Inf(1)
			diskPrev[k][d2] = -1
		}
	}
	edisk[0][0] = 0
	// Level k reads only level k-1, so the levels run in order and the
	// targets of one level are independent. diskPush is a method rather
	// than a shared closure so the serial branch never materializes a
	// heap-escaping closure (see row above).
	if workers <= 1 {
		for k := 1; k <= K; k++ {
			s.diskPush(edisk, diskPrev, ememAll, k, 1, n+1)
		}
	} else {
		// Each k-level is a bag of independent d2 tiles with a barrier
		// between levels; a tile pushes every predecessor into its own
		// d2 range only, in the same ascending order as the serial
		// push, so the tiled level is bit-identical to the serial one.
		// Tiles cut the raw range 1..n; diskPush skips forbidden
		// positions itself.
		blocks := tileCount(n, workers)
		for k := 1; k <= K; k++ {
			s.k.team.run(workers, blocks, func(b int) {
				lo, hi := tileSpan(n, blocks, b)
				s.diskPush(edisk, diskPrev, ememAll, k, lo+1, hi+1)
			})
		}
	}

	// The budget is an upper bound: take the best final value over k.
	bestK := -1
	bestV := math.Inf(1)
	for k := 1; k <= K; k++ {
		if edisk[k][n] < bestV {
			bestV, bestK = edisk[k][n], k
		}
	}
	if bestK < 0 {
		return nil, fmt.Errorf("core: no feasible schedule (constraints and budget leave none)")
	}

	sched, err := s.reconstruct(bestK, diskPrev, memPrevAll, ememAll)
	if err != nil {
		return nil, err
	}
	return &Result{
		Algorithm:        s.alg,
		ExpectedMakespan: bestV,
		Schedule:         sched,
	}, nil
}
