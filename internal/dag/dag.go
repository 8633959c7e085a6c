// Package dag extends the paper's linear-chain planner toward its stated
// future work: general application workflows. It adopts the paper's own
// simplified scenario (Section V: "each task requires the entire platform
// to execute"), under which a DAG executes sequentially in some
// topological order — so resilience planning decomposes into choosing a
// linearization and then running the exact chain dynamic programs on it.
//
// The package provides the DAG model, several linearization strategies,
// exhaustive enumeration of topological orders for small graphs (the
// optimality yardstick), and planning that searches over strategies.
// Choosing the best linearization is where the general problem's hardness
// lives (checkpoint placement on restricted DAGs is already NP-hard,
// paper reference [1]); the strategies here are heuristics in exactly the
// sense the paper's conclusion calls for.
package dag

import (
	"fmt"
	"sort"

	"chainckpt/internal/chain"
)

// Node is one task of the workflow.
type Node struct {
	ID     string
	Weight float64
}

// Graph is a directed acyclic task graph. Build it with AddNode/AddEdge;
// Validate (or any traversal) reports cycles.
type Graph struct {
	nodes []Node
	index map[string]int
	succs [][]int
	preds [][]int
}

// New returns an empty graph.
func New() *Graph {
	return &Graph{index: make(map[string]int)}
}

// AddNode adds a task with the given unique ID and weight.
func (g *Graph) AddNode(id string, weight float64) error {
	if id == "" {
		return fmt.Errorf("dag: empty node id")
	}
	if _, dup := g.index[id]; dup {
		return fmt.Errorf("dag: duplicate node %q", id)
	}
	if weight < 0 || weight != weight {
		return fmt.Errorf("dag: node %q has invalid weight %v", id, weight)
	}
	g.index[id] = len(g.nodes)
	g.nodes = append(g.nodes, Node{ID: id, Weight: weight})
	g.succs = append(g.succs, nil)
	g.preds = append(g.preds, nil)
	return nil
}

// AddEdge adds the precedence constraint from -> to.
func (g *Graph) AddEdge(from, to string) error {
	fi, ok := g.index[from]
	if !ok {
		return fmt.Errorf("dag: unknown node %q", from)
	}
	ti, ok := g.index[to]
	if !ok {
		return fmt.Errorf("dag: unknown node %q", to)
	}
	if fi == ti {
		return fmt.Errorf("dag: self-loop on %q", from)
	}
	for _, s := range g.succs[fi] {
		if s == ti {
			return nil // idempotent
		}
	}
	g.succs[fi] = append(g.succs[fi], ti)
	g.preds[ti] = append(g.preds[ti], fi)
	return nil
}

// Len returns the number of tasks.
func (g *Graph) Len() int { return len(g.nodes) }

// TotalWeight returns the sum of all task weights.
func (g *Graph) TotalWeight() float64 {
	t := 0.0
	for _, n := range g.nodes {
		t += n.Weight
	}
	return t
}

// Validate checks that the graph is non-empty and acyclic.
func (g *Graph) Validate() error {
	if g.Len() == 0 {
		return fmt.Errorf("dag: empty graph")
	}
	if _, err := g.Linearize(StrategyFIFO); err != nil {
		return err
	}
	return nil
}

// Strategy names a linearization heuristic.
type Strategy string

// The linearization strategies. All are Kahn's algorithm with different
// ready-queue policies; ties always break by insertion order, so every
// strategy is deterministic.
const (
	// StrategyFIFO picks the earliest-inserted ready task: the neutral
	// baseline order.
	StrategyFIFO Strategy = "fifo"
	// StrategyHeavyFirst runs heavy ready tasks first: front-loads the
	// failure-prone work next to the initial (free) recovery point, the
	// regime Figure 7 (Decrease) favors.
	StrategyHeavyFirst Strategy = "heavy-first"
	// StrategyLightFirst runs light ready tasks first.
	StrategyLightFirst Strategy = "light-first"
	// StrategyDFS follows depth-first chains to keep related tasks
	// adjacent (fewer, larger verified segments on modular workflows).
	StrategyDFS Strategy = "dfs"
)

// Strategies lists all linearization strategies.
func Strategies() []Strategy {
	return []Strategy{StrategyFIFO, StrategyHeavyFirst, StrategyLightFirst, StrategyDFS}
}

// Linearize returns a topological order of node indices under the given
// strategy, or an error if the graph has a cycle.
func (g *Graph) Linearize(s Strategy) ([]int, error) {
	n := g.Len()
	if n == 0 {
		return nil, fmt.Errorf("dag: empty graph")
	}
	indeg := make([]int, n)
	for i := range g.preds {
		indeg[i] = len(g.preds[i])
	}

	// ready holds the currently runnable tasks, kept sorted by the
	// strategy's priority (cheapest implementation at this scale).
	var ready []int
	for i := 0; i < n; i++ {
		if indeg[i] == 0 {
			ready = append(ready, i)
		}
	}

	less := func(a, b int) bool {
		switch s {
		case StrategyHeavyFirst:
			if g.nodes[a].Weight != g.nodes[b].Weight {
				return g.nodes[a].Weight > g.nodes[b].Weight
			}
		case StrategyLightFirst:
			if g.nodes[a].Weight != g.nodes[b].Weight {
				return g.nodes[a].Weight < g.nodes[b].Weight
			}
		}
		return a < b
	}

	var order []int
	if s == StrategyDFS {
		order = g.dfsOrder(indeg, ready)
	} else {
		for len(ready) > 0 {
			sort.Slice(ready, func(i, j int) bool { return less(ready[i], ready[j]) })
			next := ready[0]
			ready = ready[1:]
			order = append(order, next)
			for _, succ := range g.succs[next] {
				indeg[succ]--
				if indeg[succ] == 0 {
					ready = append(ready, succ)
				}
			}
		}
	}
	if len(order) != n {
		return nil, fmt.Errorf("dag: cycle detected (%d of %d tasks orderable)", len(order), n)
	}
	return order, nil
}

// dfsOrder emits tasks by following newly released successors first.
func (g *Graph) dfsOrder(indeg []int, roots []int) []int {
	var order []int
	var stack []int
	// Reverse so the earliest-inserted root is popped first.
	for i := len(roots) - 1; i >= 0; i-- {
		stack = append(stack, roots[i])
	}
	for len(stack) > 0 {
		cur := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		order = append(order, cur)
		// Push released successors; last pushed runs next.
		for i := len(g.succs[cur]) - 1; i >= 0; i-- {
			succ := g.succs[cur][i]
			indeg[succ]--
			if indeg[succ] == 0 {
				stack = append(stack, succ)
			}
		}
	}
	return order
}

// ChainFor converts a linearization into the serialized task chain.
func (g *Graph) ChainFor(order []int) (*chain.Chain, error) {
	if len(order) != g.Len() {
		return nil, fmt.Errorf("dag: order covers %d of %d tasks", len(order), g.Len())
	}
	tasks := make([]chain.Task, len(order))
	for pos, idx := range order {
		if idx < 0 || idx >= g.Len() {
			return nil, fmt.Errorf("dag: order references unknown task %d", idx)
		}
		tasks[pos] = chain.Task{Name: g.nodes[idx].ID, Weight: g.nodes[idx].Weight}
	}
	return chain.New(tasks...)
}

// IDs maps a linearization to task IDs.
func (g *Graph) IDs(order []int) []string {
	out := make([]string, len(order))
	for i, idx := range order {
		out[i] = g.nodes[idx].ID
	}
	return out
}

// respectsPrecedence reports whether the order satisfies every edge; the
// tests use it as the topological-correctness oracle.
func (g *Graph) respectsPrecedence(order []int) bool {
	pos := make([]int, g.Len())
	for p, idx := range order {
		pos[idx] = p
	}
	for from, succs := range g.succs {
		for _, to := range succs {
			if pos[from] >= pos[to] {
				return false
			}
		}
	}
	return true
}

// AllOrders enumerates every topological order, up to limit (the count
// can be factorial). It is the exhaustive yardstick for the strategies.
func (g *Graph) AllOrders(limit int) ([][]int, error) {
	if err := g.Validate(); err != nil {
		return nil, err
	}
	n := g.Len()
	indeg := make([]int, n)
	for i := range g.preds {
		indeg[i] = len(g.preds[i])
	}
	var out [][]int
	cur := make([]int, 0, n)
	used := make([]bool, n)
	var rec func() error
	rec = func() error {
		if len(out) > limit {
			return fmt.Errorf("dag: more than %d topological orders", limit)
		}
		if len(cur) == n {
			cp := make([]int, n)
			copy(cp, cur)
			out = append(out, cp)
			return nil
		}
		for i := 0; i < n; i++ {
			if used[i] || indeg[i] != 0 {
				continue
			}
			used[i] = true
			for _, s := range g.succs[i] {
				indeg[s]--
			}
			cur = append(cur, i)
			if err := rec(); err != nil {
				return err
			}
			cur = cur[:len(cur)-1]
			for _, s := range g.succs[i] {
				indeg[s]++
			}
			used[i] = false
		}
		return nil
	}
	if err := rec(); err != nil {
		return nil, err
	}
	return out, nil
}
