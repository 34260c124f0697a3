// Package graph provides a compact in-memory representation of undirected,
// unweighted graphs together with loaders, synthetic generators, and basic
// traversal utilities. It is the storage substrate for every algorithm in
// this repository.
//
// Graphs are stored in compressed sparse row (CSR) form: a single offsets
// array of length n+1 and a single adjacency array of length 2m. Node
// identifiers are dense int32 values in [0, n). Adjacency lists are sorted,
// deduplicated, and free of self-loops, which lets membership queries use
// binary search and makes iteration cache-friendly.
package graph

import (
	"fmt"
	"slices"
	"sort"
)

// Node is a graph vertex identifier. Valid nodes are in [0, Graph.NumNodes()).
type Node = int32

// Edge is an undirected edge between two nodes.
type Edge struct {
	U, V Node
}

// Graph is an immutable undirected, unweighted graph in CSR form.
// The zero value is an empty graph with no nodes.
type Graph struct {
	offsets []int64 // len n+1; adjacency of u is adj[offsets[u]:offsets[u+1]]
	adj     []Node  // concatenated sorted adjacency lists, len 2m
	m       int64   // number of undirected edges
}

// NumNodes returns the number of nodes n.
func (g *Graph) NumNodes() int {
	if len(g.offsets) == 0 {
		return 0
	}
	return len(g.offsets) - 1
}

// NumEdges returns the number of undirected edges m.
func (g *Graph) NumEdges() int64 { return g.m }

// Degree returns the number of neighbors of u.
func (g *Graph) Degree(u Node) int {
	return int(g.offsets[u+1] - g.offsets[u])
}

// Neighbors returns the sorted adjacency list of u. The returned slice
// aliases the graph's internal storage and must not be modified.
func (g *Graph) Neighbors(u Node) []Node {
	return g.adj[g.offsets[u]:g.offsets[u+1]]
}

// HasEdge reports whether the undirected edge {u, v} is present.
func (g *Graph) HasEdge(u, v Node) bool {
	nbrs := g.Neighbors(u)
	i := sort.Search(len(nbrs), func(i int) bool { return nbrs[i] >= v })
	return i < len(nbrs) && nbrs[i] == v
}

// AdjOffset returns the start offset of u's adjacency list in the CSR arrays,
// so per-directed-edge side tables of length 2m can be indexed by position.
func (g *Graph) AdjOffset(u Node) int64 { return g.offsets[u] }

// CSR exposes the graph's raw arrays — the offsets array (len n+1) and the
// concatenated sorted adjacency (len 2m) — for serialization. The returned
// slices alias the graph's internal storage and must not be modified.
func (g *Graph) CSR() (offsets []int64, adj []Node) { return g.offsets, g.adj }

// FromCSR wraps pre-built CSR arrays into a Graph without copying: offsets
// must have length n+1 with offsets[0] == 0, be monotone non-decreasing,
// and end at len(adj), which must be even (every undirected edge appears in
// both directions). Adjacency content (sortedness, symmetry, no self-loops)
// is NOT verified here — it is the serializer's contract; call Validate for
// a full check. The Graph aliases the slices: they must stay immutable (and,
// for mmap-backed slices, mapped) for the Graph's lifetime.
func FromCSR(offsets []int64, adj []Node) (*Graph, error) {
	if len(offsets) == 0 {
		return nil, fmt.Errorf("graph: FromCSR needs offsets of length n+1, got 0")
	}
	if offsets[0] != 0 {
		return nil, fmt.Errorf("graph: offsets[0] = %d, want 0", offsets[0])
	}
	for i := 1; i < len(offsets); i++ {
		if offsets[i] < offsets[i-1] {
			return nil, fmt.Errorf("graph: offsets not monotone at %d", i)
		}
	}
	if last := offsets[len(offsets)-1]; last != int64(len(adj)) {
		return nil, fmt.Errorf("graph: offsets end at %d, adjacency has %d entries", last, len(adj))
	}
	if len(adj)%2 != 0 {
		return nil, fmt.Errorf("graph: odd adjacency length %d", len(adj))
	}
	return &Graph{offsets: offsets, adj: adj, m: int64(len(adj) / 2)}, nil
}

// Edges returns all undirected edges with U < V, in CSR order.
func (g *Graph) Edges() []Edge {
	edges := make([]Edge, 0, g.m)
	for u := Node(0); int(u) < g.NumNodes(); u++ {
		for _, v := range g.Neighbors(u) {
			if u < v {
				edges = append(edges, Edge{u, v})
			}
		}
	}
	return edges
}

// MaxDegree returns the maximum node degree (0 for an empty graph).
func (g *Graph) MaxDegree() int {
	max := 0
	for u := Node(0); int(u) < g.NumNodes(); u++ {
		if d := g.Degree(u); d > max {
			max = d
		}
	}
	return max
}

// DedupSorted returns a sorted copy of a with duplicate nodes removed. It is
// the shared normalization step for user-supplied target sets.
func DedupSorted(a []Node) []Node {
	out := make([]Node, len(a))
	copy(out, a)
	slices.Sort(out)
	w := 0
	for i, v := range out {
		if i == 0 || v != out[w-1] {
			out[w] = v
			w++
		}
	}
	return out[:w]
}

// IsDedupSorted reports whether a is already in DedupSorted form (strictly
// increasing). An allocation-free O(len) pre-check for callers that
// re-canonicalize potentially-canonical inputs on hot paths.
func IsDedupSorted(a []Node) bool {
	for i := 1; i < len(a); i++ {
		if a[i] <= a[i-1] {
			return false
		}
	}
	return true
}

// Builder accumulates edges and produces an immutable Graph. Duplicate edges
// and self-loops are silently dropped at Build time. The zero value is ready
// to use.
type Builder struct {
	n     int
	edges []Edge
}

// NewBuilder returns a Builder for a graph with at least n nodes.
func NewBuilder(n int) *Builder { return &Builder{n: n} }

// AddEdge records the undirected edge {u, v}. Nodes beyond the current node
// count grow the graph. Self-loops are ignored.
func (b *Builder) AddEdge(u, v Node) {
	if u == v {
		return
	}
	if int(u) >= b.n {
		b.n = int(u) + 1
	}
	if int(v) >= b.n {
		b.n = int(v) + 1
	}
	b.edges = append(b.edges, Edge{u, v})
}

// SetNumNodes raises the node count to at least n (isolated nodes allowed).
func (b *Builder) SetNumNodes(n int) {
	if n > b.n {
		b.n = n
	}
}

// Build constructs the CSR graph. The builder may be reused afterwards.
func (b *Builder) Build() *Graph {
	n := b.n
	offsets := make([]int64, n+1)
	for _, e := range b.edges {
		offsets[e.U+1]++
		offsets[e.V+1]++
	}
	for i := 0; i < n; i++ {
		offsets[i+1] += offsets[i]
	}
	// Scatter each edge into both endpoints' lists, then transpose: walking
	// owners u in ascending order and appending u to each neighbor's list
	// leaves every list sorted, because the adjacency multiset is symmetric.
	scattered := make([]Node, offsets[n])
	cursor := make([]int64, n)
	copy(cursor, offsets[:n])
	for _, e := range b.edges {
		scattered[cursor[e.U]] = e.V
		cursor[e.U]++
		scattered[cursor[e.V]] = e.U
		cursor[e.V]++
	}
	adj := make([]Node, offsets[n])
	copy(cursor, offsets[:n])
	for u := 0; u < n; u++ {
		for _, v := range scattered[offsets[u]:offsets[u+1]] {
			adj[cursor[v]] = Node(u)
			cursor[v]++
		}
	}
	// Remove duplicates in place, rewriting offsets as the lists shrink.
	w, lo := int64(0), int64(0)
	for u := 0; u < n; u++ {
		hi := offsets[u+1]
		offsets[u] = w
		var prev Node = -1
		for _, v := range adj[lo:hi] {
			if v != prev {
				adj[w] = v
				w++
				prev = v
			}
		}
		lo = hi
	}
	offsets[n] = w
	return &Graph{offsets: offsets, adj: adj[:w:w], m: w / 2}
}

// FromEdges builds a graph with n nodes from the given edge list.
func FromEdges(n int, edges []Edge) *Graph {
	b := NewBuilder(n)
	for _, e := range edges {
		b.AddEdge(e.U, e.V)
	}
	b.SetNumNodes(n)
	return b.Build()
}

// Validate checks structural invariants of the CSR representation. It is
// intended for tests and debugging; a graph produced by Builder always
// validates.
func (g *Graph) Validate() error {
	n := g.NumNodes()
	if len(g.offsets) != 0 && g.offsets[0] != 0 {
		return fmt.Errorf("graph: offsets[0] = %d, want 0", g.offsets[0])
	}
	var total int64
	for u := 0; u < n; u++ {
		if g.offsets[u] > g.offsets[u+1] {
			return fmt.Errorf("graph: offsets not monotone at node %d", u)
		}
		nbrs := g.Neighbors(Node(u))
		for i, v := range nbrs {
			if v < 0 || int(v) >= n {
				return fmt.Errorf("graph: node %d has out-of-range neighbor %d", u, v)
			}
			if v == Node(u) {
				return fmt.Errorf("graph: node %d has a self-loop", u)
			}
			if i > 0 && nbrs[i-1] >= v {
				return fmt.Errorf("graph: adjacency of node %d not strictly sorted", u)
			}
			if !g.HasEdge(v, Node(u)) {
				return fmt.Errorf("graph: edge (%d,%d) present but reverse missing", u, v)
			}
		}
		total += int64(len(nbrs))
	}
	if total != 2*g.m {
		return fmt.Errorf("graph: degree sum %d != 2m = %d", total, 2*g.m)
	}
	return nil
}
