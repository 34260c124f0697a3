package graph

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestEmptyGraph(t *testing.T) {
	g := NewBuilder(0).Build()
	if g.NumNodes() != 0 {
		t.Errorf("NumNodes = %d, want 0", g.NumNodes())
	}
	if g.NumEdges() != 0 {
		t.Errorf("NumEdges = %d, want 0", g.NumEdges())
	}
	if err := g.Validate(); err != nil {
		t.Errorf("Validate: %v", err)
	}
}

func TestZeroValueGraph(t *testing.T) {
	var g Graph
	if g.NumNodes() != 0 || g.NumEdges() != 0 {
		t.Errorf("zero value graph not empty: n=%d m=%d", g.NumNodes(), g.NumEdges())
	}
}

func TestBuilderBasic(t *testing.T) {
	b := NewBuilder(4)
	b.AddEdge(0, 1)
	b.AddEdge(2, 1)
	b.AddEdge(3, 2)
	g := b.Build()
	if g.NumNodes() != 4 {
		t.Fatalf("NumNodes = %d, want 4", g.NumNodes())
	}
	if g.NumEdges() != 3 {
		t.Fatalf("NumEdges = %d, want 3", g.NumEdges())
	}
	wantDeg := []int{1, 2, 2, 1}
	for u, w := range wantDeg {
		if g.Degree(Node(u)) != w {
			t.Errorf("Degree(%d) = %d, want %d", u, g.Degree(Node(u)), w)
		}
	}
	if err := g.Validate(); err != nil {
		t.Errorf("Validate: %v", err)
	}
}

func TestBuilderDeduplicatesAndDropsSelfLoops(t *testing.T) {
	b := NewBuilder(3)
	b.AddEdge(0, 1)
	b.AddEdge(1, 0) // duplicate, reversed
	b.AddEdge(0, 1) // duplicate
	b.AddEdge(2, 2) // self loop
	b.AddEdge(1, 2)
	g := b.Build()
	if g.NumEdges() != 2 {
		t.Fatalf("NumEdges = %d, want 2 (dedup + self-loop drop)", g.NumEdges())
	}
	if g.HasEdge(2, 2) {
		t.Error("self loop survived")
	}
	if !g.HasEdge(0, 1) || !g.HasEdge(1, 0) {
		t.Error("edge {0,1} missing in some direction")
	}
}

func TestBuilderGrowsNodes(t *testing.T) {
	b := NewBuilder(2)
	b.AddEdge(0, 7)
	g := b.Build()
	if g.NumNodes() != 8 {
		t.Errorf("NumNodes = %d, want 8", g.NumNodes())
	}
}

func TestNeighborsSorted(t *testing.T) {
	b := NewBuilder(5)
	b.AddEdge(0, 4)
	b.AddEdge(0, 2)
	b.AddEdge(0, 3)
	b.AddEdge(0, 1)
	g := b.Build()
	nbrs := g.Neighbors(0)
	want := []Node{1, 2, 3, 4}
	if len(nbrs) != len(want) {
		t.Fatalf("len(Neighbors(0)) = %d, want %d", len(nbrs), len(want))
	}
	for i := range want {
		if nbrs[i] != want[i] {
			t.Errorf("Neighbors(0)[%d] = %d, want %d", i, nbrs[i], want[i])
		}
	}
}

func TestHasEdge(t *testing.T) {
	g := Cycle(5)
	cases := []struct {
		u, v Node
		want bool
	}{
		{0, 1, true}, {1, 0, true}, {4, 0, true}, {0, 2, false}, {2, 4, false},
	}
	for _, c := range cases {
		if got := g.HasEdge(c.u, c.v); got != c.want {
			t.Errorf("HasEdge(%d,%d) = %v, want %v", c.u, c.v, got, c.want)
		}
	}
}

func TestEdgesRoundTrip(t *testing.T) {
	g := BarabasiAlbert(100, 3, 42)
	edges := g.Edges()
	if int64(len(edges)) != g.NumEdges() {
		t.Fatalf("len(Edges) = %d, want %d", len(edges), g.NumEdges())
	}
	g2 := FromEdges(g.NumNodes(), edges)
	if g2.NumNodes() != g.NumNodes() || g2.NumEdges() != g.NumEdges() {
		t.Fatalf("round trip changed size: (%d,%d) vs (%d,%d)",
			g2.NumNodes(), g2.NumEdges(), g.NumNodes(), g.NumEdges())
	}
	for _, e := range edges {
		if !g2.HasEdge(e.U, e.V) {
			t.Fatalf("round trip lost edge %v", e)
		}
	}
}

func TestMaxDegree(t *testing.T) {
	if d := Star(10).MaxDegree(); d != 9 {
		t.Errorf("Star(10).MaxDegree = %d, want 9", d)
	}
	if d := Cycle(10).MaxDegree(); d != 2 {
		t.Errorf("Cycle(10).MaxDegree = %d, want 2", d)
	}
	if d := NewBuilder(0).Build().MaxDegree(); d != 0 {
		t.Errorf("empty MaxDegree = %d, want 0", d)
	}
}

// Property: any graph built from random edges validates, has degree sum 2m,
// and HasEdge is symmetric.
func TestBuilderInvariantsQuick(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(40)
		b := NewBuilder(n)
		for i := 0; i < rng.Intn(120); i++ {
			b.AddEdge(Node(rng.Intn(n)), Node(rng.Intn(n)))
		}
		g := b.Build()
		if err := g.Validate(); err != nil {
			t.Logf("seed %d: %v", seed, err)
			return false
		}
		var degSum int64
		for u := 0; u < g.NumNodes(); u++ {
			degSum += int64(g.Degree(Node(u)))
		}
		return degSum == 2*g.NumEdges()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// Property: HasEdge(u,v) == HasEdge(v,u) for random pairs on random graphs.
func TestHasEdgeSymmetricQuick(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(30)
		g := ErdosRenyi(n, int64(rng.Intn(3*n)), seed)
		for trial := 0; trial < 30; trial++ {
			u := Node(rng.Intn(n))
			v := Node(rng.Intn(n))
			if g.HasEdge(u, v) != g.HasEdge(v, u) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}
