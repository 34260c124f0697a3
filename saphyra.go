// Package saphyra is a Go implementation of SaPHyRa, the sample-space
// partitioning framework for ranking nodes in large networks by centrality
// (Thai, Thai, Vu, Dinh — ICDE 2022), together with everything its
// evaluation depends on: exact Brandes betweenness, the ABRA and KADABRA
// sampling baselines, k-path and closeness estimators, rank-quality
// metrics, and synthetic network generators.
//
// The API is built around two types: a Query names what to estimate — a
// measure (Betweenness, KPath, Closeness), an algorithm (AlgSaPHyRa, or the
// AlgABRA/AlgKADABRA baselines for betweenness), a target set, and the
// (eps, delta, seed) sampling contract — and a Ranker answers queries over
// one graph or one persisted view, caching the per-measure preprocessing
// across calls:
//
//	g, _, err := saphyra.LoadEdgeList("graph.txt")
//	r := saphyra.NewRanker(g)
//	res, err := r.Rank(ctx, saphyra.Query{
//		Measure: saphyra.Betweenness,
//		Targets: []saphyra.Node{5, 17, 99},
//		Epsilon: 0.05,
//		Delta:   0.01,
//	})
//	for i, v := range res.Nodes {
//		fmt.Println(res.Rank[i], v, res.Scores[i])
//	}
//
// Rank takes a context.Context with an all-or-nothing contract: a canceled
// or expired context aborts the computation at the next checkpoint with a
// typed cancellation error, and a completed result is bitwise-identical to
// one computed under a context that never fires — cancellation never
// produces partial estimates. Results are likewise independent of
// Query.Workers and of concurrency: equal Query.Canonical forms guarantee
// bitwise-equal results, and Query.Key is the matching cache-key digest
// (see internal/serve for the HTTP service built on it).
//
// SaPHyRa splits the shortest-path sample space into an exact subspace (all
// 2-hop paths through target nodes, computed exactly) and an approximate
// subspace (sampled with bi-component multistage sampling, adaptive
// empirical Bernstein stopping, and a personalized VC-dimension sample
// ceiling). The combination yields both the error guarantee and high rank
// quality for low-centrality nodes — in particular, no target with positive
// betweenness is ever estimated as zero.
package saphyra

import (
	"io"

	"saphyra/internal/bicomp"
	"saphyra/internal/exact"
	"saphyra/internal/graph"
	"saphyra/internal/query"
	"saphyra/internal/rank"
)

// Node is a graph vertex identifier in [0, NumNodes).
type Node = graph.Node

// Graph is an immutable undirected, unweighted graph in CSR form.
type Graph = graph.Graph

// Builder accumulates edges and produces a Graph.
type Builder = graph.Builder

// NewBuilder returns a Builder for a graph with at least n nodes.
func NewBuilder(n int) *Builder { return graph.NewBuilder(n) }

// LoadEdgeList reads a whitespace-separated edge-list file. Each line is
// split on Unicode whitespace (a trailing "\r" is dropped); a line that is
// blank or whose first non-space character is '#' or '%' is skipped, and
// any other line must start with two base-10 int64 node ids (an optional
// sign, leading zeros allowed; "-0" is 0, any other negative is an error),
// after which further fields are ignored. Lines are at most 1 MiB. Sparse
// node ids are compacted in first-seen order; the returned slice maps the
// new dense id back to the original.
func LoadEdgeList(path string) (*Graph, []int64, error) { return graph.LoadEdgeList(path) }

// ReadEdgeList parses an edge list from a reader. See LoadEdgeList.
func ReadEdgeList(r io.Reader) (*Graph, []int64, error) { return graph.ReadEdgeList(r) }

// Measure selects the centrality a Query estimates.
type Measure = query.Measure

// Available measures. Betweenness is the paper's headline instantiation;
// KPath and Closeness are the companion estimators.
const (
	Betweenness = query.Betweenness
	KPath       = query.KPath
	Closeness   = query.Closeness
)

// Algorithm selects a Query's estimation algorithm. AlgSaPHyRa is the
// paper's contribution; the two baselines exist only for Betweenness and
// always estimate the whole network regardless of the subset.
type Algorithm = query.Algorithm

// Available algorithms.
const (
	AlgSaPHyRa = query.AlgSaPHyRa
	AlgABRA    = query.AlgABRA
	AlgKADABRA = query.AlgKADABRA
)

// Query is one ranking request: measure, algorithm, targets (empty = the
// whole network), the k-path walk length K, and the (eps, delta, seed)
// sampling contract. Query.Canonical resolves defaults and strips the
// result-irrelevant Workers field; Query.Key digests the canonical form
// into the one cache key that identifies a query up to bitwise result
// equality.
type Query = query.Query

// Result is a centrality ranking of a target node set.
type Result = query.Result

// Ranker answers Queries over one graph or one View, lazily caching the
// per-measure preprocessing. Safe for concurrent use.
type Ranker = query.Ranker

// NewRanker returns a Ranker over an in-memory graph.
func NewRanker(g *Graph) *Ranker { return query.NewRanker(g) }

// View is the shared graph-view layer (DESIGN.md section 7): the
// block-annotated adjacency arrays that power the exact 2-hop phase, the
// sampler fast paths, and the k-path and closeness estimators. A View is
// built once per graph (BuildView), can be serialized to a versioned binary
// file (WriteFile), and reopened zero-copy by any number of serving
// processes (OpenView, mmap-backed where the platform supports it — the
// kernel then shares one physical copy of the arrays across all of them).
// Every engine produces bitwise-identical results on a reopened view.
type View struct {
	v   *bicomp.BlockCSR
	ids []int64        // dense id -> original id; nil means identity
	m   *bicomp.Mapped // non-nil when opened from a file
}

// BuildView runs the target-independent preprocessing (bi-component
// decomposition, out-reach tables, block-annotated CSR) and returns the
// resulting view — the build-once half of the build-once/serve-many flow.
// ids is the optional dense-id -> original-id map (as returned by
// LoadEdgeList); it is embedded on WriteFile so serving processes can keep
// reporting the original id space. Pass nil when node ids are already
// dense.
func BuildView(g *Graph, ids []int64) *View {
	return &View{v: bicomp.NewBlockCSR(g), ids: ids}
}

// WriteFile serializes the view (versioned binary format, native byte
// order; see DESIGN.md section 7), embedding the original-id map when the
// view carries one.
func (v *View) WriteFile(path string) error { return v.v.WriteFile(path, v.ids) }

// OpenView opens a view file written by WriteFile for zero-copy serving.
// The returned view (and anything ranked through it) is valid until Close.
func OpenView(path string) (*View, error) {
	m, err := bicomp.OpenMapped(path)
	if err != nil {
		return nil, err
	}
	return &View{v: m.View, ids: m.IDs, m: m}, nil
}

// IDs returns the view's dense-id -> original-id map, or nil when node ids
// are the original ids. For a mapped view the slice aliases the mapped
// file.
func (v *View) IDs() []int64 { return v.ids }

// Close releases the file mapping of a view opened with OpenView (a no-op
// for views built in memory). The view must not be used afterwards.
func (v *View) Close() error {
	v.ids = nil
	if v.m != nil {
		return v.m.Close()
	}
	return nil
}

// Graph returns the view's embedded graph. For a mapped view its CSR arrays
// alias the mapped file.
func (v *View) Graph() *Graph { return v.v.G }

// Ranker returns a Ranker serving all three measures from the view's
// arrays. Results are bitwise-identical to a Ranker over the graph the view
// was built from.
func (v *View) Ranker() *Ranker { return query.NewRankerView(v.v) }

// ExactBC computes exact betweenness centrality for every node with
// parallel Brandes (Eq 3 normalization). O(n*m): ground truth for small and
// medium graphs.
func ExactBC(g *Graph, workers int) []float64 { return exact.BCParallel(g, workers) }

// Spearman returns Spearman's rank correlation between truth and estimate
// (Eq 1), ties broken by the supplied ids as in the paper.
func Spearman(truth, estimate []float64, ids []int32) float64 {
	return rank.Spearman(truth, estimate, ids)
}

// KendallTau returns Kendall's rank correlation with the same conventions.
func KendallTau(truth, estimate []float64, ids []int32) float64 {
	return rank.KendallTau(truth, estimate, ids)
}

// Generate exposes the deterministic synthetic generators used by the
// examples and experiments.
var Generate = struct {
	BarabasiAlbert  func(n, k int, seed int64) *Graph
	PowerLawCluster func(n, k int, p float64, seed int64) *Graph
	ErdosRenyi      func(n int, m int64, seed int64) *Graph
	WattsStrogatz   func(n, k int, beta float64, seed int64) *Graph
	RoadNetwork     func(rows, cols int, drop float64, seed int64) *Graph
	Grid2D          func(rows, cols int) *Graph
	RandomTree      func(n int, seed int64) *Graph
}{
	BarabasiAlbert:  graph.BarabasiAlbert,
	PowerLawCluster: graph.PowerLawCluster,
	ErdosRenyi:      graph.ErdosRenyi,
	WattsStrogatz:   graph.WattsStrogatz,
	RoadNetwork:     graph.RoadNetwork,
	Grid2D:          graph.Grid2D,
	RandomTree:      graph.RandomTree,
}
