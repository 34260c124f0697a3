package saphyra

import (
	"context"
	"math"
	"strings"
	"testing"
)

// rankGraph answers q with a fresh Ranker over g.
func rankGraph(g *Graph, q Query) (*Result, error) {
	return NewRanker(g).Rank(context.Background(), q)
}

// compareBitwise fails unless two results carry identical nodes, scores
// (bit for bit), ranks, and sample counts.
func compareBitwise(t *testing.T, name string, got, want *Result) {
	t.Helper()
	if got.Samples != want.Samples {
		t.Fatalf("%s: samples %d != %d", name, got.Samples, want.Samples)
	}
	if len(got.Nodes) != len(want.Nodes) {
		t.Fatalf("%s: %d nodes, want %d", name, len(got.Nodes), len(want.Nodes))
	}
	for i := range want.Nodes {
		if got.Nodes[i] != want.Nodes[i] {
			t.Fatalf("%s: node[%d] = %d, want %d", name, i, got.Nodes[i], want.Nodes[i])
		}
		if got.Scores[i] != want.Scores[i] {
			t.Fatalf("%s: score[%d] = %v, want %v — not bitwise-identical", name, i, got.Scores[i], want.Scores[i])
		}
		if got.Rank[i] != want.Rank[i] {
			t.Fatalf("%s: rank[%d] = %d, want %d", name, i, got.Rank[i], want.Rank[i])
		}
	}
}

func TestRankSubsetSaPHyRa(t *testing.T) {
	g := Generate.BarabasiAlbert(200, 3, 1)
	truth := ExactBC(g, 2)
	targets := []Node{3, 50, 100, 150, 199}
	res, err := rankGraph(g, Query{Targets: targets, Epsilon: 0.05, Delta: 0.01, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Nodes) != 5 || len(res.Scores) != 5 || len(res.Rank) != 5 {
		t.Fatalf("result shape: %d nodes, %d scores, %d ranks", len(res.Nodes), len(res.Scores), len(res.Rank))
	}
	for i, v := range res.Nodes {
		if math.Abs(res.Scores[i]-truth[v]) > 0.05 {
			t.Errorf("node %d: score %g truth %g", v, res.Scores[i], truth[v])
		}
	}
	// ranks are a permutation of 1..5
	seen := map[int]bool{}
	for _, r := range res.Rank {
		if r < 1 || r > 5 || seen[r] {
			t.Fatalf("bad rank set %v", res.Rank)
		}
		seen[r] = true
	}
	if res.Duration <= 0 {
		t.Error("duration not recorded")
	}
}

func TestRankSubsetBaselines(t *testing.T) {
	g := Generate.BarabasiAlbert(100, 3, 2)
	truth := ExactBC(g, 2)
	for _, m := range []Algorithm{AlgABRA, AlgKADABRA} {
		res, err := rankGraph(g, Query{Algorithm: m, Targets: []Node{1, 20, 40}, Epsilon: 0.05, Delta: 0.01, Seed: 2})
		if err != nil {
			t.Fatalf("%v: %v", m, err)
		}
		for i, v := range res.Nodes {
			if math.Abs(res.Scores[i]-truth[v]) > 0.05 {
				t.Errorf("%v node %d: score %g truth %g", m, v, res.Scores[i], truth[v])
			}
		}
	}
}

func TestRankAll(t *testing.T) {
	g := Generate.ErdosRenyi(60, 150, 3)
	truth := ExactBC(g, 2)
	res, err := rankGraph(g, Query{Epsilon: 0.05, Delta: 0.01, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Nodes) != 60 {
		t.Fatalf("nodes = %d", len(res.Nodes))
	}
	for i, v := range res.Nodes {
		if math.Abs(res.Scores[i]-truth[v]) > 0.05 {
			t.Errorf("node %d: score %g truth %g", v, res.Scores[i], truth[v])
		}
	}
}

func TestRankSubsetErrors(t *testing.T) {
	g := Generate.Grid2D(3, 3)
	if _, err := rankGraph(g, Query{Targets: []Node{100}}); err == nil {
		t.Error("out of range: want error")
	}
	if _, err := rankGraph(g, Query{Algorithm: Algorithm(42), Targets: []Node{1}}); err == nil {
		t.Error("unknown algorithm: want error")
	}
}

func TestPreprocessedReuse(t *testing.T) {
	g := Generate.PowerLawCluster(150, 4, 0.3, 4)
	truth := ExactBC(g, 2)
	r := NewRanker(g)
	for trial := 0; trial < 3; trial++ {
		targets := []Node{Node(trial * 10), Node(trial*10 + 5), Node(trial*10 + 9)}
		res, err := r.Rank(context.Background(), Query{Targets: targets, Epsilon: 0.05, Delta: 0.01, Seed: int64(trial)})
		if err != nil {
			t.Fatal(err)
		}
		for i, v := range res.Nodes {
			if math.Abs(res.Scores[i]-truth[v]) > 0.05 {
				t.Errorf("trial %d node %d: score %g truth %g", trial, v, res.Scores[i], truth[v])
			}
		}
	}
}

func TestReadEdgeListFacade(t *testing.T) {
	g, orig, err := ReadEdgeList(strings.NewReader("0 1\n1 2\n2 3\n"))
	if err != nil {
		t.Fatal(err)
	}
	if g.NumNodes() != 4 || len(orig) != 4 {
		t.Fatalf("n = %d", g.NumNodes())
	}
}

func TestRankKPath(t *testing.T) {
	g := Generate.WattsStrogatz(80, 3, 0.1, 5)
	res, err := rankGraph(g, Query{Measure: KPath, Targets: []Node{1, 10, 20}, K: 3, Epsilon: 0.05, Delta: 0.05, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Scores) != 3 {
		t.Fatalf("scores = %d", len(res.Scores))
	}
	for _, s := range res.Scores {
		if s < 0 || s > 1 {
			t.Errorf("kpath score %g out of [0,1]", s)
		}
	}
}

func TestRankCloseness(t *testing.T) {
	g := Generate.BarabasiAlbert(90, 3, 6)
	res, err := rankGraph(g, Query{Measure: Closeness, Targets: []Node{0, 44, 89}, Epsilon: 0.05, Delta: 0.05, Seed: 6})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Scores) != 3 {
		t.Fatalf("scores = %d", len(res.Scores))
	}
}

func TestSpearmanFacade(t *testing.T) {
	truth := []float64{3, 2, 1}
	est := []float64{30, 20, 10}
	if rho := Spearman(truth, est, []int32{0, 1, 2}); rho != 1 {
		t.Errorf("rho = %g, want 1", rho)
	}
	if tau := KendallTau(truth, est, []int32{0, 1, 2}); tau != 1 {
		t.Errorf("tau = %g, want 1", tau)
	}
}

func TestRankingOrderMatchesTruthOnEasyCase(t *testing.T) {
	// Barbell: bridge nodes have enormous betweenness; clique interiors
	// almost none. Ranking must place the bridge first.
	g := func() *Graph {
		b := NewBuilder(0)
		// clique A: 0..4, clique B: 5..9, bridge node 10
		for i := Node(0); i < 5; i++ {
			for j := i + 1; j < 5; j++ {
				b.AddEdge(i, j)
			}
		}
		for i := Node(5); i < 10; i++ {
			for j := i + 1; j < 10; j++ {
				b.AddEdge(i, j)
			}
		}
		b.AddEdge(0, 10)
		b.AddEdge(10, 5)
		return b.Build()
	}()
	res, err := rankGraph(g, Query{Targets: []Node{1, 6, 10}, Epsilon: 0.05, Delta: 0.01, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range res.Nodes {
		if v == 10 && res.Rank[i] != 1 {
			t.Errorf("bridge node rank = %d, want 1", res.Rank[i])
		}
	}
}
