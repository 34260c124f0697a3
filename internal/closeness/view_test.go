package closeness

import (
	"context"

	"path/filepath"
	"testing"

	"saphyra/internal/bicomp"
	"saphyra/internal/graph"
)

// TestWorkerCountBitwise: the estimate must be bitwise-identical for any
// worker count — samples belong to fixed virtual-worker streams, and their
// losses add up as exact integers.
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
			run := func(workers int) *Result {
				res, err := Estimate(context.Background(), tc.g, a, Options{Epsilon: 0.05, Delta: 0.05, Seed: 9, Workers: workers})
				if err != nil {
					t.Fatal(err)
				}
				return res
			}
			ref := run(1)
			if ref.Samples == 0 {
				t.Fatal("reference run drew no samples")
			}
			for _, workers := range []int{2, 8} {
				got := run(workers)
				if got.Samples != ref.Samples || got.Rounds != ref.Rounds {
					t.Fatalf("workers=%d: samples/rounds %d/%d != %d/%d",
						workers, got.Samples, got.Rounds, ref.Samples, ref.Rounds)
				}
				for i := range ref.Closeness {
					if got.Closeness[i] != ref.Closeness[i] {
						t.Fatalf("workers=%d: Closeness[%d] = %v, want %v",
							workers, i, got.Closeness[i], ref.Closeness[i])
					}
				}
			}
		})
	}
}

// TestViewMatchesGraph: a view-backed Ranker prices closeness over the
// view's embedded graph, so estimating on a mapped view's G must be
// bitwise-identical to estimating on the in-memory graph it was built from.
func TestViewMatchesGraph(t *testing.T) {
	g := graph.BarabasiAlbert(300, 3, 8)
	a := []graph.Node{1, 5, 42, 250}
	opt := Options{Epsilon: 0.05, Delta: 0.05, Seed: 4, Workers: 3}

	want, err := Estimate(context.Background(), g, a, opt)
	if err != nil {
		t.Fatal(err)
	}

	path := filepath.Join(t.TempDir(), "view.sbcv")
	if err := bicomp.NewBlockCSR(g).WriteFile(path, nil); err != nil {
		t.Fatal(err)
	}
	m, err := bicomp.OpenMapped(path)
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()

	got, err := Estimate(context.Background(), m.View.G, a, opt)
	if err != nil {
		t.Fatal(err)
	}
	if got.Samples != want.Samples || got.Rounds != want.Rounds {
		t.Fatalf("samples/rounds %d/%d != %d/%d", got.Samples, got.Rounds, want.Samples, want.Rounds)
	}
	for i := range want.Closeness {
		if got.Closeness[i] != want.Closeness[i] {
			t.Fatalf("Closeness[%d] = %v, want %v", i, got.Closeness[i], want.Closeness[i])
		}
	}
}
