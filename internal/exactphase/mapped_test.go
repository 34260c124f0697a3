package exactphase

import (
	"context"

	"path/filepath"
	"testing"

	"saphyra/internal/bicomp"
	"saphyra/internal/graph"
)

// TestEngineOnMappedView: the engine must produce bitwise-identical
// (lambdaHat, exact) on a view round-tripped through the serialized mmap
// path — it only touches view arrays and the embedded graph, both of which
// round-trip bitwise.
func TestEngineOnMappedView(t *testing.T) {
	for _, tc := range []struct {
		name string
		g    *graph.Graph
	}{
		{"ba", graph.BarabasiAlbert(400, 3, 21)},
		{"road", graph.RoadNetwork(12, 12, 0.1, 5)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			g := tc.g
			view := bicomp.NewBlockCSR(g)

			path := filepath.Join(t.TempDir(), "view.sbcv")
			if err := view.WriteFile(path, nil); err != nil {
				t.Fatal(err)
			}
			m, err := bicomp.OpenMapped(path)
			if err != nil {
				t.Fatal(err)
			}
			defer m.Close()

			targets := []graph.Node{1, 7, 33, 120, graph.Node(g.NumNodes() - 1)}
			aIndex := make([]int32, g.NumNodes())
			for i := range aIndex {
				aIndex[i] = -1
			}
			for i, v := range targets {
				aIndex[v] = int32(i)
			}
			wA := view.O.WeightOfBlocks(view.O.BlocksOf(targets))

			wantLambda, wantExact, _ := New(view).Run(context.Background(), targets, aIndex, wA, 4)
			gotLambda, gotExact, _ := New(m.View).Run(context.Background(), targets, aIndex, wA, 4)
			if gotLambda != wantLambda {
				t.Fatalf("lambdaHat %v != %v", gotLambda, wantLambda)
			}
			for i := range wantExact {
				if gotExact[i] != wantExact[i] {
					t.Fatalf("exact[%d] = %v, want %v", i, gotExact[i], wantExact[i])
				}
			}
		})
	}
}
