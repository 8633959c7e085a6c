package core

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"
)

// The solver's three heavy phases all decompose into index-addressed
// tiles with no cross-tile data flow inside one phase:
//
//   - segment tables: row i of the (i,j) triangle depends on nothing
//     but the prefix weights;
//   - memory levels: the whole level of disk position d1 reads only the
//     read-only tables and writes only row d1 of the emem/mprev arenas;
//   - disk level: along the checkpoint-count axis k the recurrence is a
//     wavefront — every edisk[k][d2] reads only row k-1 — so the d2
//     entries of one k-level are independent; a tile owns a d2 range
//     and every predecessor pushes into it in ascending order.
//
// A solveTeam executes such a phase owner-computes style: the tile index
// range is cut into one contiguous span per participant, and each
// participant claims tiles from the bottom of its own span through a
// span-local cursor — in the balanced common case every claim touches
// only a worker-local cache line and the workers never communicate. A
// participant whose span runs dry steals the upper half of the
// most-loaded victim's remaining span (single leftover tiles are claimed
// in place rather than split), so imbalance is the only thing that
// generates cross-worker traffic. Both the bottom claim and the top
// steal CAS the same packed word, so no tile can ever be obtained twice.
//
// Byte-identity is indifferent to all of this: every tile writes to
// slots determined by its index alone, and any min-reduction stays
// inside a tile, offering each slot its candidates in index order with
// a strict '<'.
// Execution order — and therefore ownership layout and steal schedule —
// is invisible in the output: a parallel solve is byte-identical to the
// serial one for any worker count and any steal interleaving.
const (
	// defaultAutoCrossover is the window length where SolveWorkers: 0
	// (auto) starts engaging the team. Below it a serial ADV solve is
	// ~1 ms and the dispatch + handoff overhead (~10 µs plus a cold
	// helper wake-up) can eat the gain; above it every phase has
	// thousands of table rows per tile and the team wins on any
	// multi-core machine (see BenchmarkKernelParallelSolve).
	defaultAutoCrossover = 192
	// maxAutoWorkers caps the auto team: every participant streams its
	// own rows of the shared segment tables, so very wide teams trade
	// cache locality for little extra speedup on the triangular phases.
	maxAutoWorkers = 8
	// maxTeamWorkers bounds explicit SolveWorkers requests and the
	// helper goroutines a kernel will ever keep.
	maxTeamWorkers = 64
	// teamIdleTimeout is how long a parked helper waits for work before
	// exiting; an idle kernel sheds its team instead of pinning
	// goroutines forever.
	teamIdleTimeout = time.Minute
)

// solveTeam is the persistent worker team a Kernel owns: helper
// goroutines parked on an unbuffered job channel, spawned lazily on the
// first parallel solve and retired after teamIdleTimeout without work.
// Handoff is synchronous (send with a default branch), so a job only
// counts the helpers that actually took it — if every helper is busy or
// gone, the caller drains every span itself (its own by local claims,
// the orphans by stealing) and the result is unchanged, just slower.
// Correctness never depends on a helper arriving.
type solveTeam struct {
	mu      sync.Mutex
	jobs    chan *stealJob
	workers int // live helper goroutines

	// Counters behind KernelStats.Parallel (core stays free of any obs
	// dependency: the observability plane projects these from outside).
	solves     atomic.Uint64 // solves that ran with a team (workers > 1)
	tiles      atomic.Uint64 // tiles dispatched across all phases
	localTiles atomic.Uint64 // tiles claimed from the claimant's own span
	steals     atomic.Uint64 // steal events (half-span grabs + leftover claims)
	busyNs     atomic.Int64  // nanoseconds participants spent draining tiles
	skips      atomic.Uint64 // auto-mode solves that stayed serial
}

// ownedSpan is one participant's contiguous tile range [next, limit),
// packed into a single uint64 (next low 32 bits, limit high 32) so the
// owner's bottom claim and a thief's top steal linearize through one
// CAS word — two participants can never obtain the same tile, which the
// race detector would otherwise flag as a write-write race even when
// the recomputed values are identical.
type ownedSpan struct {
	state atomic.Uint64
	// Pad to a 64-byte cache line: adjacent owners' cursors sharing a
	// line would re-introduce exactly the cross-core traffic the
	// per-worker ranges exist to remove.
	_ [56]byte
}

func packSpan(next, limit uint32) uint64 { return uint64(limit)<<32 | uint64(next) }

func unpackSpan(v uint64) (next, limit uint32) { return uint32(v), uint32(v >> 32) }

// reset installs a fresh range. Only the slot owner resets its span
// (initial cut at dispatch, then each stolen range it adopts), and only
// while the span is empty — an empty span is never CASed by anyone, so
// the store cannot race a claim or steal.
func (s *ownedSpan) reset(lo, hi int) { s.state.Store(packSpan(uint32(lo), uint32(hi))) }

// claim pops the bottom tile. Safe from any participant, not just the
// owner: a lone leftover tile (too small to split) is claimed directly
// off the victim.
func (s *ownedSpan) claim() (int, bool) {
	for {
		v := s.state.Load()
		next, limit := unpackSpan(v)
		if next >= limit {
			return 0, false
		}
		if s.state.CompareAndSwap(v, packSpan(next+1, limit)) {
			return int(next), true
		}
	}
}

// remaining reports how many unclaimed tiles the span holds.
func (s *ownedSpan) remaining() int {
	next, limit := unpackSpan(s.state.Load())
	if next >= limit {
		return 0
	}
	return int(limit - next)
}

// stealHalf removes the upper ⌊r/2⌋ tiles of a span with r remaining
// and returns the stolen range; it fails when fewer than two tiles
// remain (singles are claimed, not split, so the victim always keeps
// the tile its cursor may be mid-claim on).
func (s *ownedSpan) stealHalf() (lo, hi int, ok bool) {
	for {
		v := s.state.Load()
		next, limit := unpackSpan(v)
		if limit < next+2 {
			return 0, 0, false
		}
		mid := next + (limit-next+1)/2
		if s.state.CompareAndSwap(v, packSpan(next, mid)) {
			return int(mid), int(limit), true
		}
	}
}

// stealJob is one phase dispatch: tiles [0, total) cut into one owned
// span per participant slot. wg tracks the helpers that accepted the
// job; spans whose helper never arrived are drained by whoever goes
// idle first, so the job is work-conserving regardless of handoff luck.
type stealJob struct {
	spans []ownedSpan
	slot  atomic.Int64 // next unassigned participant slot
	run   func(tile int)
	wg    sync.WaitGroup
}

// drain is one participant's schedule: take a slot, exhaust the slot's
// own span by bottom claims, then repeatedly steal half the most-loaded
// victim's remainder (adopting it as the new own span) until every span
// is empty. Counters are accumulated locally and flushed once so the
// hot loop never touches shared cache lines.
//
// Termination is safe even though the idle scan is not atomic across
// spans: tiles only move between spans via a thief that installs them
// into its *own* span and drains that span before returning, so a
// participant that observes emptiness everywhere can leave — every
// remaining tile is already owned by a participant that will run it.
func (j *stealJob) drain(t *solveTeam) {
	slot := int(j.slot.Add(1)-1) % len(j.spans)
	own := &j.spans[slot]
	var local, stolen uint64
	owned := true // claims from the original cut count as local
	for {
		for {
			tile, ok := own.claim()
			if !ok {
				break
			}
			if owned {
				local++
			}
			j.run(tile)
		}
		victim, most := -1, 0
		for i := range j.spans {
			if r := j.spans[i].remaining(); r > most {
				victim, most = i, r
			}
		}
		if victim < 0 {
			break
		}
		if most >= 2 {
			if lo, hi, ok := j.spans[victim].stealHalf(); ok {
				own.reset(lo, hi)
				owned = false
				stolen++
			}
			continue // lost the race: rescan for a victim
		}
		if tile, ok := j.spans[victim].claim(); ok {
			stolen++
			j.run(tile)
		}
	}
	t.localTiles.Add(local)
	t.steals.Add(stolen)
}

// resolveSolveWorkers maps an Options.SolveWorkers request to the
// worker count one solve of an n-task window will use. Zero is the
// GOMAXPROCS-aware auto mode: it only engages above the crossover
// window length (small solves lose more to dispatch than they gain) and
// records declined engagements as crossover skips.
func (t *solveTeam) resolveSolveWorkers(requested, n int) (int, error) {
	switch {
	case requested < 0:
		return 0, fmt.Errorf("core: SolveWorkers must be non-negative, got %d", requested)
	case requested == 1:
		return 1, nil
	case requested > 1:
		return min(requested, maxTeamWorkers), nil
	}
	// Auto: engage only when the window is big enough to amortize the
	// team and the machine has more than one core to offer.
	if w := min(runtime.GOMAXPROCS(0), maxAutoWorkers); w > 1 && n >= defaultAutoCrossover {
		return w, nil
	}
	t.skips.Add(1)
	return 1, nil
}

// run executes fn(0..tiles-1) on the caller plus up to workers-1 team
// helpers and returns when every tile has finished. Each participant
// owns a contiguous slice of the index range and claims it in ascending
// order; fn must confine its writes to slots derived from the tile
// index. Callers that want a non-index execution order (the size-sorted
// memory level) pass fn over a permutation: tile t runs order[t].
func (t *solveTeam) run(workers, tiles int, fn func(tile int)) {
	if tiles <= 0 {
		return
	}
	want := min(workers-1, tiles-1)
	if want <= 0 {
		for i := 0; i < tiles; i++ {
			fn(i)
		}
		return
	}
	t.tiles.Add(uint64(tiles))
	t.ensureWorkers(want)
	nspans := want + 1
	job := &stealJob{spans: make([]ownedSpan, nspans), run: fn}
	for s := 0; s < nspans; s++ {
		lo, hi := tileSpan(tiles, nspans, s)
		job.spans[s].reset(lo, hi)
	}
	for i, retried := 0, false; i < want; i++ {
		job.wg.Add(1)
		select {
		case t.jobs <- job:
			continue
		default:
		}
		if !retried {
			// Freshly spawned helpers may not have parked on the
			// channel yet; one yield is enough for them to arrive, and
			// a phase-sized job is worth the reschedule.
			retried = true
			runtime.Gosched()
		}
		select {
		case t.jobs <- job:
		default:
			job.wg.Done() // helpers all busy: idle participants steal this slot's span
		}
	}
	start := time.Now()
	job.drain(t)
	t.busyNs.Add(int64(time.Since(start)))
	job.wg.Wait()
}

// ensureWorkers grows the helper pool to at least want goroutines
// (bounded by maxTeamWorkers).
func (t *solveTeam) ensureWorkers(want int) {
	if want > maxTeamWorkers-1 {
		want = maxTeamWorkers - 1
	}
	t.mu.Lock()
	if t.jobs == nil {
		t.jobs = make(chan *stealJob)
	}
	for t.workers < want {
		t.workers++
		go t.worker()
	}
	t.mu.Unlock()
}

// worker is one parked helper: it drains jobs as they are handed off
// and exits after teamIdleTimeout without work. Because handoff is a
// synchronous send, a worker that has decided to exit simply stops
// being a send target — no job can be stranded with it.
func (t *solveTeam) worker() {
	timer := time.NewTimer(teamIdleTimeout)
	defer timer.Stop()
	for {
		select {
		case job := <-t.jobs:
			start := time.Now()
			job.drain(t)
			t.busyNs.Add(int64(time.Since(start)))
			job.wg.Done()
			if !timer.Stop() {
				<-timer.C
			}
			timer.Reset(teamIdleTimeout)
		case <-timer.C:
			t.mu.Lock()
			t.workers--
			t.mu.Unlock()
			return
		}
	}
}

// liveWorkers reports the current helper goroutine count (a gauge for
// KernelStats.Parallel.Workers).
func (t *solveTeam) liveWorkers() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.workers
}

// tileSpan returns the half-open index range of block b when [0, total)
// is cut into the given number of contiguous blocks (see tileCount).
func tileSpan(total, blocks, b int) (lo, hi int) {
	lo = b * total / blocks
	hi = (b + 1) * total / blocks
	return lo, hi
}

// tileCount picks how many tiles to cut an index range into: enough
// that stealing can rebalance the triangle's uneven block costs at a
// useful granularity (about eight claims per worker), never more than
// the range itself.
func tileCount(total, workers int) int {
	blocks := 8 * workers
	if blocks > total {
		blocks = total
	}
	return blocks
}
