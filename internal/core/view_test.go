package core

import (
	"context"

	"path/filepath"
	"testing"

	"saphyra/internal/bicomp"
	"saphyra/internal/graph"
)

// TestEstimateBCWorkerCountBitwise: with sampling driven through fixed
// virtual-worker streams, a fixed seed must give bitwise-identical BC
// estimates at any worker count — on a small-world graph and on a
// high-diameter road grid, whose distance >= 4 pairs go through the BFS
// engines.
func TestEstimateBCWorkerCountBitwise(t *testing.T) {
	for name, in := range map[string]struct {
		g *graph.Graph
		a []graph.Node
	}{
		"ba-600":     {graph.BarabasiAlbert(600, 3, 17), []graph.Node{2, 9, 51, 333, 599}},
		"road-18x18": {graph.RoadNetwork(18, 18, 0.3, 5), []graph.Node{0, 9, 40, 123, 200, 301}},
	} {
		t.Run(name, func(t *testing.T) {
			run := func(workers int) *BCResult {
				res, err := EstimateBC(context.Background(), in.g, in.a, BCOptions{Epsilon: 0.05, Delta: 0.05, Seed: 23, Workers: workers})
				if err != nil {
					t.Fatal(err)
				}
				return res
			}
			ref := run(1)
			if ref.Est == nil || ref.Est.Samples == 0 {
				t.Fatal("reference run drew no samples; the test exercises nothing")
			}
			for _, workers := range []int{2, 8} {
				got := run(workers)
				if got.Est.Samples != ref.Est.Samples {
					t.Fatalf("workers=%d: samples %d != %d", workers, got.Est.Samples, ref.Est.Samples)
				}
				for i := range ref.BC {
					if got.BC[i] != ref.BC[i] {
						t.Fatalf("workers=%d: BC[%d] = %v, want %v", workers, i, got.BC[i], ref.BC[i])
					}
				}
			}
		})
	}
}

// TestPreprocessBCFromMappedView: ranking through a view round-tripped over
// the serialized mmap path must be bitwise-identical to ranking on the
// in-memory preprocessing — the decomposition/out-reach tables rebuilt from
// the file's sections agree with the serialized annotations, and every
// engine reads the same bits.
func TestPreprocessBCFromMappedView(t *testing.T) {
	g := graph.BarabasiAlbert(500, 3, 29)
	p := PreprocessBC(g)

	path := filepath.Join(t.TempDir(), "view.sbcv")
	if err := p.View.WriteFile(path, nil); err != nil {
		t.Fatal(err)
	}
	m, err := bicomp.OpenMapped(path)
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	// The rebuilt decomposition must agree with the serialized
	// annotations — Validate cross-checks every run against D and O.
	if err := m.View.Validate(); err != nil {
		t.Fatalf("mapped view invalid: %v", err)
	}
	p2 := PreprocessBCFromView(m.View)

	a := []graph.Node{4, 44, 123, 400}
	opt := BCOptions{Epsilon: 0.05, Delta: 0.05, Seed: 31, Workers: 4}
	want, err := p.EstimateBC(context.Background(), a, opt)
	if err != nil {
		t.Fatal(err)
	}
	got, err := p2.EstimateBC(context.Background(), a, opt)
	if err != nil {
		t.Fatal(err)
	}
	if got.Est.Samples != want.Est.Samples {
		t.Fatalf("samples %d != %d", got.Est.Samples, want.Est.Samples)
	}
	for i := range want.BC {
		if got.BC[i] != want.BC[i] {
			t.Fatalf("BC[%d] = %v, want %v", i, got.BC[i], want.BC[i])
		}
		if got.BCA[i] != want.BCA[i] {
			t.Fatalf("BCA[%d] = %v, want %v", i, got.BCA[i], want.BCA[i])
		}
	}
}
