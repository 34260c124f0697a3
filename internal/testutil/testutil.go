// Package testutil holds slow, obviously-correct reference implementations
// used by tests across the repository to validate the optimized algorithms.
// Everything here is brute force by design; keep graphs tiny.
package testutil

import (
	"math"
	"math/rand"

	"saphyra/internal/graph"
)

// RandomConnectedGraph returns a connected random graph on n nodes: a random
// attachment tree plus extra random edges.
func RandomConnectedGraph(n, extra int, seed int64) *graph.Graph {
	rng := rand.New(rand.NewSource(seed))
	b := graph.NewBuilder(n)
	for i := 1; i < n; i++ {
		b.AddEdge(graph.Node(i), graph.Node(rng.Intn(i)))
	}
	for e := 0; e < extra; e++ {
		u := graph.Node(rng.Intn(n))
		v := graph.Node(rng.Intn(n))
		b.AddEdge(u, v)
	}
	return b.Build()
}

// AllShortestPaths enumerates every shortest path from s to t by DFS
// backtracking over the BFS distance field. Each path is a node sequence
// starting at s and ending at t. Returns nil if t is unreachable.
func AllShortestPaths(g *graph.Graph, s, t graph.Node) [][]graph.Node {
	dist := graph.BFSDistances(g, s, nil)
	if dist[t] < 0 {
		return nil
	}
	var paths [][]graph.Node
	path := []graph.Node{t}
	var walk func(u graph.Node)
	walk = func(u graph.Node) {
		if u == s {
			out := make([]graph.Node, len(path))
			for i, v := range path {
				out[len(path)-1-i] = v
			}
			paths = append(paths, out)
			return
		}
		for _, w := range g.Neighbors(u) {
			if dist[w] == dist[u]-1 {
				path = append(path, w)
				walk(w)
				path = path[:len(path)-1]
			}
		}
	}
	walk(t)
	return paths
}

// CountShortestPaths returns sigma_st, the number of shortest paths from s
// to t (0 if unreachable), via dynamic programming over the BFS DAG.
func CountShortestPaths(g *graph.Graph, s, t graph.Node) float64 {
	dist := graph.BFSDistances(g, s, nil)
	if dist[t] < 0 {
		return 0
	}
	memo := make(map[graph.Node]float64)
	var count func(u graph.Node) float64
	count = func(u graph.Node) float64 {
		if u == s {
			return 1
		}
		if c, ok := memo[u]; ok {
			return c
		}
		var c float64
		for _, w := range g.Neighbors(u) {
			if dist[w] == dist[u]-1 {
				c += count(w)
			}
		}
		memo[u] = c
		return c
	}
	return count(t)
}

// BruteBC computes exact betweenness centrality normalized by n(n-1) per the
// paper's Eq 3, by explicitly enumerating all shortest paths of all ordered
// pairs. Exponential in the worst case; for graphs of a few dozen nodes only.
func BruteBC(g *graph.Graph) []float64 {
	n := g.NumNodes()
	bc := make([]float64, n)
	if n < 2 {
		return bc
	}
	for s := graph.Node(0); int(s) < n; s++ {
		for t := graph.Node(0); int(t) < n; t++ {
			if s == t {
				continue
			}
			paths := AllShortestPaths(g, s, t)
			if len(paths) == 0 {
				continue
			}
			inv := 1.0 / float64(len(paths))
			for _, p := range paths {
				for _, v := range p[1 : len(p)-1] {
					bc[v] += inv
				}
			}
		}
	}
	norm := 1.0 / (float64(n) * float64(n-1))
	for i := range bc {
		bc[i] *= norm
	}
	return bc
}

// BruteCutpoints returns, for each node, whether its removal increases the
// number of connected components.
func BruteCutpoints(g *graph.Graph) []bool {
	n := g.NumNodes()
	_, _, base := graph.ConnectedComponents(g)
	out := make([]bool, n)
	for v := 0; v < n; v++ {
		keep := make([]graph.Node, 0, n-1)
		for u := 0; u < n; u++ {
			if u != v {
				keep = append(keep, graph.Node(u))
			}
		}
		sub, _ := graph.Subgraph(g, keep)
		_, _, c := graph.ConnectedComponents(sub)
		// Removing v drops one node; the component count over remaining
		// nodes strictly exceeding the original count means v separated
		// some of its neighbors.
		if c > base {
			out[v] = true
		}
	}
	return out
}

// SameBlock reports (by brute force) whether distinct nodes s and t belong
// to a common biconnected component: they are adjacent, or they are
// connected and no single third vertex separates them.
func SameBlock(g *graph.Graph, s, t graph.Node) bool {
	if s == t {
		return false
	}
	if g.HasEdge(s, t) {
		return true
	}
	dist := graph.BFSDistances(g, s, nil)
	if dist[t] < 0 {
		return false
	}
	n := g.NumNodes()
	for x := 0; x < n; x++ {
		if graph.Node(x) == s || graph.Node(x) == t {
			continue
		}
		keep := make([]graph.Node, 0, n-1)
		for u := 0; u < n; u++ {
			if u != x {
				keep = append(keep, graph.Node(u))
			}
		}
		sub, ids := graph.Subgraph(g, keep)
		// position of s and t in the renumbered subgraph
		var ns, nt graph.Node = -1, -1
		for i, old := range ids {
			if old == s {
				ns = graph.Node(i)
			}
			if old == t {
				nt = graph.Node(i)
			}
		}
		d2 := graph.BFSDistances(sub, ns, nil)
		if d2[nt] < 0 {
			return false // x separates s and t
		}
	}
	return true
}

// BruteOutReach returns r = |R(v)| for node v with respect to the block
// whose node set is members: the number of nodes reachable from v without
// entering any node of members other than v, plus v itself.
func BruteOutReach(g *graph.Graph, members []graph.Node, v graph.Node) int64 {
	blocked := make(map[graph.Node]bool, len(members))
	for _, u := range members {
		if u != v {
			blocked[u] = true
		}
	}
	seen := map[graph.Node]bool{v: true}
	queue := []graph.Node{v}
	for head := 0; head < len(queue); head++ {
		u := queue[head]
		for _, w := range g.Neighbors(u) {
			if !seen[w] && !blocked[w] {
				seen[w] = true
				queue = append(queue, w)
			}
		}
	}
	return int64(len(seen))
}

// BruteBCA returns the probability that v separates a random ordered pair
// (s, t), s != v != t: the break-point probability bca(v) of Eq 21.
func BruteBCA(g *graph.Graph, v graph.Node) float64 {
	n := g.NumNodes()
	if n < 2 {
		return 0
	}
	keep := make([]graph.Node, 0, n-1)
	for u := 0; u < n; u++ {
		if graph.Node(u) != v {
			keep = append(keep, graph.Node(u))
		}
	}
	sub, ids := graph.Subgraph(g, keep)
	labels, _, _ := graph.ConnectedComponents(sub)
	// s, t separated by v iff they were connected in g (through v) but are
	// in different components of g - v.
	distV := graph.BFSDistances(g, v, nil)
	var count int64
	for i := 0; i < sub.NumNodes(); i++ {
		for j := 0; j < sub.NumNodes(); j++ {
			if i == j {
				continue
			}
			if distV[ids[i]] < 0 || distV[ids[j]] < 0 {
				continue // not even connected to v
			}
			if labels[i] != labels[j] {
				count++
			}
		}
	}
	return float64(count) / (float64(n) * float64(n-1))
}

// BinomialQuantile returns the smallest c with P(X <= c) >= q for
// X ~ Binomial(n, p): the most failing runs out of n that a guarantee
// failing with probability p allows at confidence q.
func BinomialQuantile(n int, p, q float64) int {
	lg, _ := math.Lgamma(float64(n + 1))
	cdf := 0.0
	for c := 0; c <= n; c++ {
		lc, _ := math.Lgamma(float64(c + 1))
		lr, _ := math.Lgamma(float64(n - c + 1))
		cdf += math.Exp(lg - lc - lr + float64(c)*math.Log(p) + float64(n-c)*math.Log1p(-p))
		if cdf >= q {
			return c
		}
	}
	return n
}
