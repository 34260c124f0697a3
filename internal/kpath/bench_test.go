package kpath

import (
	"context"

	"testing"

	"saphyra/internal/bicomp"
	"saphyra/internal/graph"
)

// benchGraph matches the sampling-engine benchmark reference (see
// internal/core): a preferential-attachment graph of social-network shape.
func benchGraph() *graph.Graph {
	return graph.BarabasiAlbert(4000, 3, 42)
}

func benchTargets(g *graph.Graph, n int) []graph.Node {
	targets := make([]graph.Node, 0, n)
	for i := 0; i < n; i++ {
		targets = append(targets, graph.Node((int64(i)*2_654_435_761+7)%int64(g.NumNodes())))
	}
	return targets
}

var benchOpt = Options{K: 4, Epsilon: 0.1, Delta: 0.1, Seed: 7, Workers: 4}

// BenchmarkKPathPartitioned measures the partitioned estimator end to end
// (exact closed-form phase + virtual-worker walk sampling) on the raw
// graph. Compare it across an engine change with
// `go test -bench KPathPartitioned -count 10` on both sides.
func BenchmarkKPathPartitioned(b *testing.B) {
	g := benchGraph()
	targets := benchTargets(g, 100)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := EstimatePartitioned(context.Background(), g, targets, benchOpt); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkKPathPartitionedView is BenchmarkKPathPartitioned served from
// the shared BlockCSR view (the build-once/serve-many path); the view build
// is outside the timed loop, as it is in a serving process.
func BenchmarkKPathPartitionedView(b *testing.B) {
	g := benchGraph()
	d := bicomp.Decompose(g)
	view := bicomp.NewBlockCSR(d, bicomp.NewOutReach(d))
	targets := benchTargets(g, 100)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := EstimatePartitionedView(context.Background(), view, targets, benchOpt); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkKPathWalks isolates the sampler hot loop: one stream drawing
// batches of walks, no framework overhead.
func BenchmarkKPathWalks(b *testing.B) {
	g := benchGraph()
	targets := benchTargets(g, 100)
	nodes, aIndex, err := targetIndex(g, targets, &Options{K: 4})
	if err != nil {
		b.Fatal(err)
	}
	s := newWalkSampler(g, aIndex, 2, 4, 1)
	hits := make([]int64, len(nodes))
	b.ReportAllocs()
	b.ResetTimer()
	s.DrawBatch(int64(b.N), hits)
}

// TestWalksAllocateNothing pins the hot loop BenchmarkKPathWalks prices: a
// batch of walks allocates nothing.
func TestWalksAllocateNothing(t *testing.T) {
	g := benchGraph()
	targets := benchTargets(g, 100)
	nodes, aIndex, err := targetIndex(g, targets, &Options{K: 4})
	if err != nil {
		t.Fatal(err)
	}
	s := newWalkSampler(g, aIndex, 2, 4, 1)
	hits := make([]int64, len(nodes))
	if allocs := testing.AllocsPerRun(1, func() { s.DrawBatch(4096, hits) }); allocs != 0 {
		t.Errorf("DrawBatch(4096) allocates %.0f times, want 0", allocs)
	}
}
