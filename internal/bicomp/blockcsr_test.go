package bicomp

import (
	"testing"

	"saphyra/internal/graph"
	"saphyra/internal/testutil"
)

func buildView(t *testing.T, g *graph.Graph) *BlockCSR {
	t.Helper()
	v := NewBlockCSR(g)
	if err := v.D.Validate(); err != nil {
		t.Fatal(err)
	}
	if err := v.Validate(); err != nil {
		t.Fatal(err)
	}
	return v
}

func TestBlockCSRPathGraph(t *testing.T) {
	v := buildView(t, graph.Path(5))
	// Interior nodes are cutpoints with two size-2 blocks: two runs of one
	// edge each; endpoints have a single run.
	for u := graph.Node(1); u < 4; u++ {
		lo, hi := v.Runs(u)
		if hi-lo != 2 {
			t.Errorf("node %d: %d runs, want 2", u, hi-lo)
		}
	}
	lo, hi := v.Runs(0)
	if hi-lo != 1 {
		t.Errorf("node 0: %d runs, want 1", hi-lo)
	}
	_ = lo
}

func TestBlockCSRRandomGraphs(t *testing.T) {
	for seed := int64(0); seed < 8; seed++ {
		buildView(t, testutil.RandomConnectedGraph(120, 200, seed))
	}
	// pendant-heavy: a tree, every edge its own block
	buildView(t, graph.RandomTree(200, 3))
	// dense: one giant block
	buildView(t, graph.BarabasiAlbert(300, 4, 9))
	// disconnected with isolated nodes
	b := graph.NewBuilder(10)
	b.AddEdge(0, 1)
	b.AddEdge(1, 2)
	b.AddEdge(0, 2)
	b.AddEdge(5, 6)
	b.SetNumNodes(10)
	buildView(t, b.Build())
}

func TestBlockCSRFindRun(t *testing.T) {
	g := testutil.RandomConnectedGraph(80, 140, 4)
	v := buildView(t, g)
	d := v.D
	for u := graph.Node(0); int(u) < g.NumNodes(); u++ {
		for _, b := range d.NodeBlocks(u) {
			j := v.FindRun(u, b)
			if j < 0 {
				t.Fatalf("node %d block %d: FindRun returned -1", u, b)
			}
			if v.RunBlock[j] != b {
				t.Fatalf("node %d block %d: FindRun returned run of block %d", u, b, v.RunBlock[j])
			}
		}
		if j := v.FindRun(u, int32(d.NumBlocks)+5); j != -1 {
			t.Fatalf("node %d: FindRun for absent block returned %d", u, j)
		}
	}
}

// The grouped view must enumerate exactly the same in-block neighbor sets as
// a BlockOfEdge scan of the plain adjacency.
func TestBlockCSRMatchesEdgeBlockScan(t *testing.T) {
	g := testutil.RandomConnectedGraph(100, 180, 11)
	v := buildView(t, g)
	d := v.D
	for u := graph.Node(0); int(u) < g.NumNodes(); u++ {
		for _, b := range d.NodeBlocks(u) {
			var want []graph.Node
			for _, w := range g.Neighbors(u) {
				if d.BlockOfEdge(u, w) == b {
					want = append(want, w)
				}
			}
			j := v.FindRun(u, b)
			lo, hi := v.RunEdges(j)
			got := v.Nbr[lo:hi]
			if len(got) != len(want) {
				t.Fatalf("node %d block %d: run has %d neighbors, want %d", u, b, len(got), len(want))
			}
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("node %d block %d: run[%d] = %d, want %d", u, b, i, got[i], want[i])
				}
			}
		}
	}
}
