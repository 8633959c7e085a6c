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
// A solveTeam runs such a phase from one shared atomic cursor: the
// caller and the goroutines it starts for this dispatch claim tile
// indices in ascending order until the cursor passes the last tile.
// Whoever is free takes the next tile, so uneven tile costs balance
// themselves; a phase that lists its most expensive tiles first (the
// memory level) gets longest-processing-time order for free.
//
// Byte-identity does not depend on the scheduler: every tile writes to
// slots determined by its index alone, and any min-reduction stays
// inside a tile, offering each slot its candidates in index order with
// a strict '<'. Which participant runs a tile, and when, is invisible
// in the output: a parallel solve is byte-identical to the serial one
// for any worker count and any interleaving.
const (
	// defaultAutoCrossover is the window length where SolveWorkers: 0
	// (auto) starts engaging the team. Below it a serial ADV solve is
	// ~1 ms and the dispatch overhead (a few µs per goroutine started)
	// can eat the gain; above it every phase has thousands of table rows
	// per tile and the team wins on any multi-core machine (see
	// BenchmarkKernelParallelSolve).
	defaultAutoCrossover = 192
	// maxAutoWorkers caps the auto team: every participant streams its
	// own rows of the shared segment tables, so very wide teams trade
	// cache locality for little extra speedup on the triangular phases.
	maxAutoWorkers = 8
	// maxTeamWorkers bounds explicit SolveWorkers requests, and with
	// them the goroutines one dispatch starts.
	maxTeamWorkers = 64
)

// solveTeam holds the counters of a kernel's parallel solves; run
// starts the participants of each dispatch afresh and waits for all of
// them, so no goroutine outlives the phase that started it.
// Core stays free of any obs dependency: the observability plane
// projects these counters (KernelStats.Parallel) from outside.
type solveTeam struct {
	solves atomic.Uint64 // solves that ran with a team (workers > 1)
	tiles  atomic.Uint64 // tiles dispatched across all phases
	busyNs atomic.Int64  // nanoseconds participants spent draining tiles
	skips  atomic.Uint64 // auto-mode solves that stayed serial
}

// dispatch is one phase handed to a team: participants claim tiles
// [0, tiles) from next and mark themselves done on wg.
type dispatch struct {
	next  atomic.Int64
	tiles int64
	fn    func(tile int)
	wg    sync.WaitGroup
}

// drain claims and runs tiles until none is left, then adds the time
// it spent to the team's busy counter.
func (d *dispatch) drain(t *solveTeam) {
	start := time.Now()
	for i := d.next.Add(1) - 1; i < d.tiles; i = d.next.Add(1) - 1 {
		d.fn(int(i))
	}
	t.busyNs.Add(int64(time.Since(start)))
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

// run executes fn(0..tiles-1) on the caller plus up to workers-1
// goroutines started for this call, and returns when every tile has
// finished and every goroutine has signalled done. fn must confine its
// writes to slots derived from the tile index. Callers that want a
// non-index execution order (the widest-first memory level) pass fn
// over a permutation: tile t runs order[t].
func (t *solveTeam) run(workers, tiles int, fn func(tile int)) {
	if tiles <= 0 {
		return
	}
	helpers := min(workers-1, tiles-1)
	if helpers <= 0 {
		for i := 0; i < tiles; i++ {
			fn(i)
		}
		return
	}
	t.tiles.Add(uint64(tiles))
	d := &dispatch{tiles: int64(tiles), fn: fn}
	d.wg.Add(helpers)
	for i := 0; i < helpers; i++ {
		go func() {
			d.drain(t)
			d.wg.Done()
		}()
	}
	d.drain(t)
	d.wg.Wait()
}

// tileSpan returns the half-open index range of block b when [0, total)
// is cut into the given number of contiguous blocks (see tileCount).
func tileSpan(total, blocks, b int) (lo, hi int) {
	lo = b * total / blocks
	hi = (b + 1) * total / blocks
	return lo, hi
}

// tileCount picks how many tiles to cut an index range into: enough
// that the shared cursor can even out the triangle's uneven block costs
// at a useful granularity (about eight claims per worker), never more
// than the range itself.
func tileCount(total, workers int) int {
	blocks := 8 * workers
	if blocks > total {
		blocks = total
	}
	return blocks
}
