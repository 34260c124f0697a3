package shortestpath

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"saphyra/internal/graph"
	"saphyra/internal/testutil"
)

func TestDAGPathCounts(t *testing.T) {
	// 4-cycle: two shortest paths between opposite corners.
	g := graph.Cycle(4)
	d := NewDAG(4)
	d.Run(g, 0)
	if d.Sigma[2] != 2 {
		t.Errorf("sigma(0->2) = %g, want 2", d.Sigma[2])
	}
	if d.Sigma[1] != 1 || d.Sigma[3] != 1 {
		t.Errorf("sigma to neighbors = %g, %g, want 1, 1", d.Sigma[1], d.Sigma[3])
	}
	if d.Dist[2] != 2 {
		t.Errorf("dist(0->2) = %d, want 2", d.Dist[2])
	}
}

func TestSamplePathToUniformUnbalanced(t *testing.T) {
	// Diamond with one extra route: s=0; 0-1-3, 0-2-3 and 0-4-3 are the three
	// shortest paths. The DAG counts all three, and a path sampled from 0 to
	// 3 takes each w.p. 1/3.
	b := graph.NewBuilder(5)
	for _, e := range [][2]graph.Node{{0, 1}, {0, 2}, {0, 4}, {1, 3}, {2, 3}, {4, 3}} {
		b.AddEdge(e[0], e[1])
	}
	g := b.Build()
	d := NewDAG(5)
	d.Run(g, 0)
	if d.Sigma[3] != 3 || d.Dist[3] != 2 {
		t.Errorf("sigma(0->3) = %g at dist %d, want 3 at 2", d.Sigma[3], d.Dist[3])
	}
	bi := NewBiBFS(5)
	rng := rand.New(rand.NewSource(5))
	counts := map[graph.Node]int{}
	const N = 30000
	for i := 0; i < N; i++ {
		if _, sigma, ok := bi.Query(g, 0, 3); !ok || sigma != 3 {
			t.Fatalf("query 0->3: sigma %g ok %v, want 3 true", sigma, ok)
		}
		p := bi.SamplePath(g, rng)
		if len(p) != 3 || p[0] != 0 || p[2] != 3 {
			t.Fatalf("sampled path %v, want 0-x-3", p)
		}
		counts[p[1]]++
	}
	if len(counts) != 3 {
		t.Fatalf("observed middles %v, want 1, 2 and 4", counts)
	}
	for mid, c := range counts {
		frac := float64(c) / N
		if math.Abs(frac-1.0/3) > 0.02 {
			t.Errorf("middle %d frequency = %g, want ~1/3", mid, frac)
		}
	}
}

func TestDAGUnreachable(t *testing.T) {
	b := graph.NewBuilder(3)
	b.AddEdge(0, 1)
	g := b.Build()
	d := NewDAG(3)
	d.Run(g, 0)
	if d.Dist[2] != -1 || d.Sigma[2] != 0 {
		t.Errorf("unreachable node: dist=%d sigma=%g", d.Dist[2], d.Sigma[2])
	}
}

func TestDAGSigmaMatchesBruteForce(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 3 + rng.Intn(20)
		g := testutil.RandomConnectedGraph(n, rng.Intn(2*n), seed)
		d := NewDAG(n)
		s := graph.Node(rng.Intn(n))
		d.Run(g, s)
		for v := graph.Node(0); int(v) < n; v++ {
			if v == s {
				continue
			}
			want := testutil.CountShortestPaths(g, s, v)
			if math.Abs(d.Sigma[v]-want) > 1e-9 {
				t.Logf("seed %d: sigma(%d->%d) = %g, want %g", seed, s, v, d.Sigma[v], want)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestDAGOrderNonDecreasing(t *testing.T) {
	g := graph.BarabasiAlbert(200, 3, 4)
	d := NewDAG(200)
	d.Run(g, 0)
	for i := 1; i < len(d.Order); i++ {
		if d.Dist[d.Order[i]] < d.Dist[d.Order[i-1]] {
			t.Fatal("BFS order not sorted by distance")
		}
	}
	if len(d.Order) != 200 {
		t.Errorf("order covers %d nodes, want 200 (connected)", len(d.Order))
	}
}

// TestDAGDistMatchesBFS: Dist equals a plain BFS's distances from every
// source, and each node's Sigma is the sum of its predecessors' (the
// neighbors one level closer), which is the DAG every path count and
// dependency is read from.
func TestDAGDistMatchesBFS(t *testing.T) {
	g := testutil.RandomConnectedGraph(25, 30, 99)
	d := NewDAG(25)
	var want []int32
	for s := graph.Node(0); s < 25; s++ {
		d.Run(g, s)
		want = graph.BFSDistances(g, s, want)
		for v := graph.Node(0); v < 25; v++ {
			if d.Dist[v] != want[v] {
				t.Fatalf("source %d: Dist[%d] = %d, BFS %d", s, v, d.Dist[v], want[v])
			}
			if v == s {
				continue
			}
			var sig float64
			for _, w := range g.Neighbors(v) {
				if d.Dist[w] == d.Dist[v]-1 {
					sig += d.Sigma[w]
				}
			}
			if sig == 0 || sig != d.Sigma[v] {
				t.Fatalf("source %d: Sigma[%d] = %g, its predecessors sum to %g", s, v, d.Sigma[v], sig)
			}
		}
	}
}
