package analysis

import (
	"sort"
	"strings"

	"repro/internal/finding"
)

// termination finds cycles in the triggering graph and, for acyclic
// sets, computes the static cascade-depth bound. A cycle of
// immediate/deferred rules recurses inside the triggering transaction
// and is always an error. A cycle through a detached rule is an
// unbounded cascade of top-level transactions: an error unless some
// member carries a timeout or breaker clause that bounds it at run
// time, which demotes the cycle to a warning.
func (a *Analyzer) termination(g *Graph, res *Result) []finding.Finding {
	var out []finding.Finding
	for _, comp := range sccs(len(g.Nodes), g.succ) {
		if !cyclic(comp, g.succ) {
			continue
		}
		cyc := buildCycle(g, comp)
		res.Cycles = append(res.Cycles, cyc)
		for _, name := range cyc.Rules {
			g.Node(name).InCycle = true
		}
		anchor := g.Node(cyc.Rules[0])
		why := "immediate/deferred coupling recurses inside the triggering transaction"
		if cyc.Detached {
			if cyc.Guarded {
				why = "detached cascade bounded only by a timeout/breaker clause"
			} else {
				why = "detached cascade with no timeout or breaker clause"
			}
		}
		out = append(out, report(anchor, "termination", cyc.Severity,
			"rule cycle %s (%s)", cyc, why))
	}
	sort.SliceStable(res.Cycles, func(i, j int) bool {
		a, b := g.Node(res.Cycles[i].Rules[0]), g.Node(res.Cycles[j].Rules[0])
		if a.File != b.File {
			return a.File < b.File
		}
		return a.Decl.Line < b.Decl.Line
	})
	if len(res.Cycles) == 0 {
		res.DepthBound = longestChain(g)
	}
	return out
}

// cyclic reports whether an SCC contains a cycle: more than one
// member, or a single member with a self-edge.
func cyclic(comp []int, succ map[int][]int) bool {
	if len(comp) > 1 {
		return true
	}
	for _, j := range succ[comp[0]] {
		if j == comp[0] {
			return true
		}
	}
	return false
}

// buildCycle extracts one concrete closed path through the SCC,
// anchored at the member that appears earliest in the input, and
// classifies it.
func buildCycle(g *Graph, comp []int) Cycle {
	sort.Ints(comp)
	anchor := comp[0]
	member := make(map[int]bool, len(comp))
	for _, i := range comp {
		member[i] = true
	}
	path := shortestLoop(anchor, member, g.succ)
	c := Cycle{}
	for _, i := range path {
		n := g.Nodes[i]
		c.Rules = append(c.Rules, n.Name())
		if n.Action.Detachedness() || n.Cond.Detachedness() {
			c.Detached = true
		}
		if n.Decl.Timeout != 0 || n.Decl.BreakerSet {
			c.Guarded = true
		}
	}
	c.Severity = finding.Error
	if c.Detached && c.Guarded {
		c.Severity = finding.Warning
	}
	return c
}

// shortestLoop BFSes from start back to start within the member set
// and returns the node path (start first, closing edge implied).
func shortestLoop(start int, member map[int]bool, succ map[int][]int) []int {
	prev := map[int]int{start: -1}
	queue := []int{start}
	for len(queue) > 0 {
		i := queue[0]
		queue = queue[1:]
		for _, j := range succ[i] {
			if !member[j] {
				continue
			}
			if j == start {
				// Close the loop: walk back from i to start.
				var rev []int
				for k := i; k != -1; k = prev[k] {
					rev = append(rev, k)
				}
				path := make([]int, 0, len(rev))
				for k := len(rev) - 1; k >= 0; k-- {
					path = append(path, rev[k])
				}
				return path
			}
			if _, seen := prev[j]; !seen {
				prev[j] = i
				queue = append(queue, j)
			}
		}
	}
	return []int{start} // unreachable for a true SCC; defensive
}

// longestChain computes the static cascade-depth bound of an acyclic
// graph: the maximum number of rules a single external event can fire
// transitively.
func longestChain(g *Graph) int {
	memo := make([]int, len(g.Nodes))
	var depth func(i int) int
	depth = func(i int) int {
		if memo[i] != 0 {
			return memo[i]
		}
		best := 1
		for _, j := range g.succ[i] {
			if d := depth(j) + 1; d > best {
				best = d
			}
		}
		memo[i] = best
		return best
	}
	bound := 0
	for i := range g.Nodes {
		if d := depth(i); d > bound {
			bound = d
		}
	}
	return bound
}

// sccs returns the strongly connected components of the graph in
// Tarjan order (reverse topological), each component as node indices.
func sccs(n int, succ map[int][]int) [][]int {
	const unvisited = -1
	index := make([]int, n)
	low := make([]int, n)
	onStack := make([]bool, n)
	for i := range index {
		index[i] = unvisited
	}
	var (
		counter int
		stack   []int
		out     [][]int
	)
	// Iterative Tarjan: each frame tracks the node and the position in
	// its successor list, so deep rule chains cannot overflow the Go
	// stack.
	type frame struct{ node, succIdx int }
	for root := 0; root < n; root++ {
		if index[root] != unvisited {
			continue
		}
		frames := []frame{{node: root}}
		for len(frames) > 0 {
			f := &frames[len(frames)-1]
			v := f.node
			if f.succIdx == 0 {
				index[v] = counter
				low[v] = counter
				counter++
				stack = append(stack, v)
				onStack[v] = true
			}
			advanced := false
			for f.succIdx < len(succ[v]) {
				w := succ[v][f.succIdx]
				f.succIdx++
				if index[w] == unvisited {
					frames = append(frames, frame{node: w})
					advanced = true
					break
				}
				if onStack[w] && index[w] < low[v] {
					low[v] = index[w]
				}
			}
			if advanced {
				continue
			}
			if low[v] == index[v] {
				var comp []int
				for {
					w := stack[len(stack)-1]
					stack = stack[:len(stack)-1]
					onStack[w] = false
					comp = append(comp, w)
					if w == v {
						break
					}
				}
				out = append(out, comp)
			}
			frames = frames[:len(frames)-1]
			if len(frames) > 0 {
				p := frames[len(frames)-1].node
				if low[v] < low[p] {
					low[p] = low[v]
				}
			}
		}
	}
	return out
}

// confluence flags rule pairs whose relative firing order is
// observable: equal priority, same coupling phase, and either both
// write the same attribute or their trigger sets overlap while one
// writes an attribute the other reads.
func (a *Analyzer) confluence(g *Graph) []finding.Finding {
	var out []finding.Finding
	for i, p := range g.Nodes {
		for _, q := range g.Nodes[i+1:] {
			if p.Decl.Prio != q.Decl.Prio || p.Action.Phase() != q.Action.Phase() {
				continue
			}
			if ww := intersect(p.Writes, q.Writes); len(ww) > 0 {
				out = append(out, report(p, "confluence", finding.Warning,
					"rules %s and %s fire at equal priority in the same coupling phase and both write %s; final value depends on firing order (set distinct priorities)",
					p.Name(), q.Name(), strings.Join(ww, ", ")))
				continue
			}
			if len(intersect(p.triggerKeys(), q.triggerKeys())) == 0 {
				continue
			}
			rw := append(intersect(p.Writes, q.Reads), intersect(q.Writes, p.Reads)...)
			if len(rw) > 0 {
				sort.Strings(rw)
				out = append(out, report(p, "confluence", finding.Warning,
					"rules %s and %s share a trigger at equal priority in the same coupling phase and one writes %s the other reads; outcome depends on firing order (set distinct priorities)",
					p.Name(), q.Name(), strings.Join(dedup(rw), ", ")))
			}
		}
	}
	return out
}

func intersect(a, b []string) []string {
	if len(a) == 0 || len(b) == 0 {
		return nil
	}
	in := make(map[string]bool, len(b))
	for _, s := range b {
		in[s] = true
	}
	var out []string
	for _, s := range a {
		if in[s] {
			out = append(out, s)
		}
	}
	sort.Strings(out)
	return out
}

func dedup(sorted []string) []string {
	out := sorted[:0]
	for i, s := range sorted {
		if i == 0 || s != sorted[i-1] {
			out = append(out, s)
		}
	}
	return out
}
