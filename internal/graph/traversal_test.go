package graph

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestBFSDistancesPath(t *testing.T) {
	g := Path(5)
	dist := BFSDistances(g, 0, nil)
	for i, want := range []int32{0, 1, 2, 3, 4} {
		if dist[i] != want {
			t.Errorf("dist[%d] = %d, want %d", i, dist[i], want)
		}
	}
}

func TestBFSDistancesUnreachable(t *testing.T) {
	b := NewBuilder(4)
	b.AddEdge(0, 1)
	g := b.Build()
	dist := BFSDistances(g, 0, nil)
	if dist[2] != -1 || dist[3] != -1 {
		t.Errorf("unreachable nodes should be -1, got %v", dist)
	}
}

func TestBFSDistancesReuseBuffer(t *testing.T) {
	g := Cycle(6)
	buf := make([]int32, 6)
	dist := BFSDistances(g, 0, buf)
	if &dist[0] != &buf[0] {
		t.Error("buffer was not reused")
	}
	if dist[3] != 3 {
		t.Errorf("dist[3] = %d, want 3", dist[3])
	}
}

func TestEccentricity(t *testing.T) {
	g := Path(7)
	if e := Eccentricity(g, 0); e != 6 {
		t.Errorf("ecc(0) = %d, want 6", e)
	}
	if e := Eccentricity(g, 3); e != 3 {
		t.Errorf("ecc(3) = %d, want 3", e)
	}
}

func TestDiameterKnownGraphs(t *testing.T) {
	cases := []struct {
		name string
		g    *Graph
		want int32
	}{
		{"path10", Path(10), 9},
		{"cycle10", Cycle(10), 5},
		{"star20", Star(20), 2},
		{"K5", Complete(5), 1},
		{"grid3x4", Grid2D(3, 4), 5},
	}
	for _, c := range cases {
		if got := Diameter(c.g); got != c.want {
			t.Errorf("%s: diameter = %d, want %d", c.name, got, c.want)
		}
	}
}

func TestApproxDiameterIsLowerBoundAndTightOnPaths(t *testing.T) {
	g := Path(50)
	if got := ApproxDiameter(g, 3, 1); got != 49 {
		t.Errorf("double sweep on path = %d, want exact 49", got)
	}
	// Property: approx <= exact on random graphs.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 3 + rng.Intn(30)
		g := ErdosRenyi(n, int64(n+rng.Intn(2*n)), seed)
		lcc, _ := LargestComponent(g)
		return ApproxDiameter(lcc, 4, seed) <= Diameter(lcc)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}
