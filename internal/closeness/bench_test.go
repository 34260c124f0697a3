package closeness

import (
	"context"

	"testing"

	"saphyra/internal/bicomp"
	"saphyra/internal/graph"
)

func benchGraph() *graph.Graph {
	return graph.BarabasiAlbert(2000, 3, 42)
}

func benchTargets(g *graph.Graph, n int) []graph.Node {
	targets := make([]graph.Node, 0, n)
	for i := 0; i < n; i++ {
		targets = append(targets, graph.Node((int64(i)*2_654_435_761+7)%int64(g.NumNodes())))
	}
	return targets
}

// benchOpt caps the sample budget so the row measures the pricing engine,
// not the Bernstein stopping point of one particular graph.
var benchOpt = Options{Epsilon: 0.1, Delta: 0.1, Seed: 7, Workers: 4, MaxSamples: 2000}

// BenchmarkCloseness measures the estimator end to end (virtual-worker
// MS-BFS pricing, deterministic merge) on the raw CSR in its serving
// configuration — Engine built once, workspaces pooled. It is not
// allocation-free: the per-round worker fan-out allocates (DESIGN.md
// section 11). bench/run.sh's rank-session workload is the recorded
// end-to-end number.
func BenchmarkCloseness(b *testing.B) {
	g := benchGraph()
	targets := benchTargets(g, 50)
	eng := NewEngine(g)
	var res Result
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := eng.EstimateInto(context.Background(), targets, benchOpt, &res); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkClosenessView is BenchmarkCloseness priced over the shared
// BlockCSR view's grouped adjacency (the build-once/serve-many path); the
// view build is outside the timed loop, as it is in a serving process.
func BenchmarkClosenessView(b *testing.B) {
	g := benchGraph()
	d := bicomp.Decompose(g)
	view := bicomp.NewBlockCSR(d, bicomp.NewOutReach(d))
	targets := benchTargets(g, 50)
	eng := NewEngineView(view)
	var res Result
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := eng.EstimateInto(context.Background(), targets, benchOpt, &res); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkClosenessLegacy pins the pre-MS-BFS engine — one scalar BFS per
// sampled source (legacy_test.go) — so the bit-parallel win stays
// measurable against BenchmarkCloseness after the production code moved on.
func BenchmarkClosenessLegacy(b *testing.B) {
	g := benchGraph()
	targets := benchTargets(g, 50)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := estimateLegacy(context.Background(), g, targets, benchOpt); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkClosenessSampleBatch isolates the pricing hot loop: one stream,
// sources priced 64 lanes per MS-BFS pass. Reported per sample.
func BenchmarkClosenessSampleBatch(b *testing.B) {
	g := benchGraph()
	targets := benchTargets(g, 50)
	eng := NewEngine(g)
	nodes := graph.DedupSorted(targets)
	sc := eng.acquire(nodes)
	defer eng.release(sc, nodes)
	s := sc.activate(eng, 0, benchOpt.Seed, len(nodes))
	b.ReportAllocs()
	b.ResetTimer()
	s.sampleBatch(context.Background(), eng, sc.aIndex, len(nodes), nil, int64(b.N))
	if s.err != nil {
		b.Fatal(s.err)
	}
}

// TestSampleBatchAllocatesNothing pins the hot loop
// BenchmarkClosenessSampleBatch prices: 4,096 samples — 64 MS-BFS passes
// with fresh random sources — allocate nothing.
func TestSampleBatchAllocatesNothing(t *testing.T) {
	g := benchGraph()
	targets := benchTargets(g, 50)
	eng := NewEngine(g)
	nodes := graph.DedupSorted(targets)
	sc := eng.acquire(nodes)
	defer eng.release(sc, nodes)
	s := sc.activate(eng, 0, benchOpt.Seed, len(nodes))
	allocs := testing.AllocsPerRun(1, func() {
		s.sampleBatch(context.Background(), eng, sc.aIndex, len(nodes), nil, 4096)
	})
	if s.err != nil {
		t.Fatal(s.err)
	}
	if allocs != 0 {
		t.Errorf("sampleBatch(4096) allocates %.0f times, want 0", allocs)
	}
}
