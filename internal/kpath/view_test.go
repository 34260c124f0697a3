package kpath

import (
	"context"

	"path/filepath"
	"testing"

	"saphyra/internal/bicomp"
	"saphyra/internal/graph"
)

func testView(t *testing.T, g *graph.Graph) *bicomp.BlockCSR {
	t.Helper()
	return bicomp.NewBlockCSR(g)
}

// TestWorkerCountBitwise: both estimators must produce bitwise-identical
// results for any worker count — the sample streams belong to fixed virtual
// workers, not to goroutines.
func TestWorkerCountBitwise(t *testing.T) {
	for _, tc := range []struct {
		name string
		g    *graph.Graph
	}{
		{"ba", graph.BarabasiAlbert(400, 3, 6)},
		{"road", graph.RoadNetwork(12, 12, 0.1, 2)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			a := []graph.Node{0, 3, 17, 99, 120}
			run := func(partitioned bool, workers int) *Result {
				opt := Options{K: 4, Epsilon: 0.05, Delta: 0.05, Seed: 9, Workers: workers}
				var res *Result
				var err error
				if partitioned {
					res, err = EstimatePartitioned(context.Background(), tc.g, a, opt)
				} else {
					res, err = Estimate(context.Background(), tc.g, a, opt)
				}
				if err != nil {
					t.Fatal(err)
				}
				return res
			}
			for _, partitioned := range []bool{false, true} {
				ref := run(partitioned, 1)
				if ref.Est.Samples == 0 {
					t.Fatal("reference run drew no samples; the test exercises nothing")
				}
				for _, workers := range []int{2, 8} {
					got := run(partitioned, workers)
					if got.Est.Samples != ref.Est.Samples {
						t.Fatalf("partitioned=%v workers=%d: samples %d != %d",
							partitioned, workers, got.Est.Samples, ref.Est.Samples)
					}
					for i := range ref.KPath {
						if got.KPath[i] != ref.KPath[i] {
							t.Fatalf("partitioned=%v workers=%d: KPath[%d] = %v, want %v",
								partitioned, workers, i, got.KPath[i], ref.KPath[i])
						}
					}
				}
			}
		})
	}
}

// TestViewMatchesGraph: the view-served estimators (in-memory and mmapped)
// must be bitwise-identical to the graph-served ones.
func TestViewMatchesGraph(t *testing.T) {
	g := graph.BarabasiAlbert(300, 3, 8)
	a := []graph.Node{1, 5, 42, 250}
	opt := Options{K: 4, Epsilon: 0.05, Delta: 0.05, Seed: 4, Workers: 3}

	view := testView(t, g)
	path := filepath.Join(t.TempDir(), "view.sbcv")
	if err := view.WriteFile(path, nil); err != nil {
		t.Fatal(err)
	}
	m, err := bicomp.OpenMapped(path)
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()

	for _, tc := range []struct {
		name string
		run  func() (*Result, error)
		want func() (*Result, error)
	}{
		{"plain", func() (*Result, error) { return EstimateView(context.Background(), m.View, a, opt) },
			func() (*Result, error) { return Estimate(context.Background(), g, a, opt) }},
		{"partitioned", func() (*Result, error) { return EstimatePartitionedView(context.Background(), m.View, a, opt) },
			func() (*Result, error) { return EstimatePartitioned(context.Background(), g, a, opt) }},
	} {
		got, err := tc.run()
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		want, err := tc.want()
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if got.Est.Samples != want.Est.Samples {
			t.Fatalf("%s: samples %d != %d", tc.name, got.Est.Samples, want.Est.Samples)
		}
		for i := range want.KPath {
			if got.KPath[i] != want.KPath[i] {
				t.Fatalf("%s: KPath[%d] = %v, want %v", tc.name, i, got.KPath[i], want.KPath[i])
			}
		}
	}
}

// TestPartitionedExactPhaseParallel: the chunked closed-form exact phase
// must not depend on the worker count, including on target sets large
// enough to actually split into chunks.
func TestPartitionedExactPhaseParallel(t *testing.T) {
	g := graph.BarabasiAlbert(2000, 3, 13)
	all := make([]graph.Node, g.NumNodes())
	for i := range all {
		all[i] = graph.Node(i)
	}
	build := func(workers int) []float64 {
		nodes, aIndex, err := targetIndex(g, all, &Options{K: 3})
		if err != nil {
			t.Fatal(err)
		}
		sp := &kpathSpace{g: g, k: 3, nodes: nodes, aIndex: aIndex, dim: 1, workers: workers}
		_, exact, _ := sp.ExactPhase(context.Background())
		return exact
	}
	ref := build(1)
	for _, workers := range []int{2, 8} {
		got := build(workers)
		for i := range ref {
			if got[i] != ref[i] {
				t.Fatalf("workers=%d: exact[%d] = %v, want %v", workers, i, got[i], ref[i])
			}
		}
	}
}
