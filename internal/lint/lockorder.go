package lint

import (
	"go/token"
	"sort"
	"strings"
)

// runLockorder builds the module-wide lock-acquisition graph and reports
// every cycle as a potential deadlock. Nodes are lock classes (see
// lockWalker.lockClass: broker.Broker.mu, objectstore.shard.mu,
// fabric.peerConn.mu, queue.Queue.mu, ...); there is an edge A → B when some
// function locks B while A is held — either directly in one body, or
// interprocedurally: a call made with A held reaches, through any chain of
// callees, a function that locks B. Two goroutines obeying different edges
// of a cycle can each hold one lock of the cycle while waiting for the
// next — the classic deadlock — so the module keeps the graph acyclic and
// DESIGN.md §5c codifies the resulting order.
//
// The analysis is instance-blind (classes, not objects) and call-graph
// conservative: calls through function values and interfaces are invisible,
// and goroutine/defer literals are separate roots (their acquisitions do
// not run under the spawner's locks, but their internal nesting still
// contributes edges).
func runLockorder(m *Module) {
	edges := lockEdges(m)

	// Strongly connected components over the class graph; any edge inside a
	// cyclic component is part of a lock-order cycle.
	adj := make(map[string][]string)
	for k := range edges {
		adj[k.from] = append(adj[k.from], k.to)
	}
	for _, tos := range adj {
		sort.Strings(tos)
	}
	comp := sccs(adj)

	var keys []lockPair
	for k := range edges {
		if comp[k.from] != 0 && comp[k.from] == comp[k.to] {
			keys = append(keys, k)
		}
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].from != keys[j].from {
			return keys[i].from < keys[j].from
		}
		return keys[i].to < keys[j].to
	})
	for _, k := range keys {
		e := edges[k]
		cycle := cycleThrough(adj, comp, k.from, k.to)
		m.reportf(e.Pos, "lock-order cycle: %s acquired while %s is held (cycle: %s); acquire the classes in the DESIGN.md §5c order or release %s first",
			e.To, e.From, strings.Join(cycle, " → "), e.From)
	}
}

// lockPair is one edge of the lock-acquisition graph: to is locked while
// from is held.
type lockPair struct{ from, to string }

// lockEdges returns the module's lock-acquisition graph (see runLockorder),
// with one representative position per edge, the earliest. It reads the
// function summaries, so the module's facts must have been collected.
func lockEdges(m *Module) map[lockPair]LockEdge {
	sums := m.allSummaries()

	// Transitive acquire closure over the call graph, by fixpoint: the set
	// of lock classes a call into fn may end up taking. Fixpoint (rather
	// than memoized recursion) keeps recursive call chains exact.
	acq := make(map[string]map[string]bool, len(sums))
	for _, s := range sums {
		set := make(map[string]bool)
		for _, a := range s.Acquires {
			set[a.Class] = true
		}
		acq[s.Key] = set
	}
	for changed := true; changed; {
		changed = false
		for _, s := range sums {
			set := acq[s.Key]
			for _, c := range s.Calls {
				for cls := range acq[c.Callee] {
					if !set[cls] {
						set[cls] = true
						changed = true
					}
				}
			}
		}
	}

	// Edge set: direct nested acquisitions plus held-across-call closure.
	// One representative position per (from, to) pair, earliest wins.
	edges := make(map[lockPair]LockEdge)
	record := func(e LockEdge) {
		k := lockPair{e.From, e.To}
		if prev, ok := edges[k]; ok && !posBefore(e.Pos, prev.Pos) {
			return
		}
		edges[k] = e
	}
	for _, s := range sums {
		for _, e := range s.LockEdges {
			record(e)
		}
		for _, c := range s.Calls {
			if len(c.Held) == 0 {
				continue
			}
			for to := range acq[c.Callee] {
				for _, from := range c.Held {
					if from == to {
						continue // same-class reentry: an instance-hierarchy question, not an order cycle
					}
					record(LockEdge{From: from, To: to, Pos: c.Pos})
				}
			}
		}
	}

	return edges
}

// posBefore orders two positions file-first for deterministic edge
// representatives.
func posBefore(a, b token.Position) bool {
	if a.Filename != b.Filename {
		return a.Filename < b.Filename
	}
	if a.Line != b.Line {
		return a.Line < b.Line
	}
	return a.Column < b.Column
}

// sccs assigns every node of a cyclic strongly connected component a
// nonzero component ID (Tarjan); nodes no cycle passes through get 0.
func sccs(adj map[string][]string) map[string]int {
	nodes := make([]string, 0, len(adj))
	seen := make(map[string]bool)
	addNode := func(n string) {
		if !seen[n] {
			seen[n] = true
			nodes = append(nodes, n)
		}
	}
	for from, tos := range adj {
		addNode(from)
		for _, to := range tos {
			addNode(to)
		}
	}
	sort.Strings(nodes)

	indexOf := make(map[string]int, len(nodes))
	low := make(map[string]int, len(nodes))
	onStack := make(map[string]bool)
	comp := make(map[string]int)
	var stack []string
	counter := 0
	compID := 0

	var strongconnect func(v string)
	strongconnect = func(v string) {
		counter++
		indexOf[v] = counter
		low[v] = counter
		stack = append(stack, v)
		onStack[v] = true
		for _, w := range adj[v] {
			if _, ok := indexOf[w]; !ok {
				strongconnect(w)
				if low[w] < low[v] {
					low[v] = low[w]
				}
			} else if onStack[w] && indexOf[w] < low[v] {
				low[v] = indexOf[w]
			}
		}
		if low[v] == indexOf[v] {
			var members []string
			for {
				w := stack[len(stack)-1]
				stack = stack[:len(stack)-1]
				onStack[w] = false
				members = append(members, w)
				if w == v {
					break
				}
			}
			cyclic := len(members) > 1
			if !cyclic {
				for _, w := range adj[v] {
					if w == v {
						cyclic = true
					}
				}
			}
			if cyclic {
				compID++
				for _, w := range members {
					comp[w] = compID
				}
			}
		}
	}
	for _, v := range nodes {
		if _, ok := indexOf[v]; !ok {
			strongconnect(v)
		}
	}
	return comp
}

// cycleThrough renders one concrete cycle that uses the edge from → to, by
// finding the shortest directed return path to → ... → from inside the
// component (BFS over sorted adjacency, so the rendering is deterministic).
func cycleThrough(adj map[string][]string, comp map[string]int, from, to string) []string {
	id := comp[from]
	prev := map[string]string{to: ""}
	queue := []string{to}
	found := to == from
	for len(queue) > 0 && !found {
		v := queue[0]
		queue = queue[1:]
		for _, w := range adj[v] {
			if comp[w] != id {
				continue
			}
			if _, ok := prev[w]; ok {
				continue
			}
			prev[w] = v
			if w == from {
				found = true
				break
			}
			queue = append(queue, w)
		}
	}
	if !found {
		return []string{from, to, from} // defensive: SCC guarantees a return path
	}
	// Reconstruct from ← ... ← to, then render from → to → ... → from.
	rev := []string{from}
	for v := prev[from]; v != ""; v = prev[v] {
		rev = append(rev, v)
	}
	cycle := []string{from}
	for i := len(rev) - 1; i >= 0; i-- {
		cycle = append(cycle, rev[i])
	}
	return cycle
}
