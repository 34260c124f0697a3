package vc

import (
	"math/rand"
	"testing"
	"testing/quick"

	"saphyra/internal/bicomp"
	"saphyra/internal/datasets"
	"saphyra/internal/graph"
	"saphyra/internal/testutil"
)

// The map-based Lemma 23 bound is the reference SubsetCapped is checked
// against: a direct transcription of the bound with an uncapped per-block
// BFS.

// SubsetBound computes the Lemma 23 upper bound on BS(A), the maximum
// number of A-nodes that are inner nodes of one intra-component shortest
// path:
//
//	BS(A) <= max_i min( VD(C_i)-1, VD(A ∩ C_i)+1, |A ∩ C_i| )
//
// over blocks i in I(A). Block and subset diameters are themselves upper
// bounds: block diameters come from Decomposition.BlockDiameterUpperBound
// (exact up to bicomp.ExactDiameterMaxBlock nodes, double-sweep 2*ecc
// above); subset diameters use the 2*max-distance bound of Section IV-C.
func SubsetBound(d *bicomp.Decomposition, a []graph.Node) int64 {
	if len(a) == 0 {
		return 0
	}
	// Group A by block, iterating a in caller order (not map order): the
	// first member of each group seeds the subset-diameter BFS below, so a
	// nondeterministic order would make the bound — and with it the sample
	// budget and the estimates — vary between identically-seeded runs.
	seen := make(map[graph.Node]struct{}, len(a))
	byBlock := make(map[int32][]graph.Node)
	for _, v := range a {
		if _, dup := seen[v]; dup {
			continue
		}
		seen[v] = struct{}{}
		for _, b := range d.NodeBlocks(v) {
			byBlock[b] = append(byBlock[b], v)
		}
	}
	var bs int64
	for b, members := range byBlock {
		// Cheap terms first; the per-block BFS work only runs when it could
		// still lower the running minimum.
		cand := int64(len(members))
		if v := int64(d.BlockDiameterUpperBound(b)) - 1; v < cand {
			cand = v
		}
		// subVD+1 >= 2 whenever |members| >= 2, so the subset-diameter BFS
		// can only tighten candidates above 2.
		if cand > 2 && len(members) >= 2 {
			if v := int64(subsetDiameterUB(d.G, members)) + 1; v < cand {
				cand = v
			}
		}
		if cand < 0 {
			cand = 0
		}
		if cand > bs {
			bs = cand
		}
	}
	return bs
}

// Subset returns the SaPHyRa_bc VC bound for an arbitrary target set A
// (Corollary 22 with Lemma 23): floor(log2(BS(A))) + 1.
func Subset(d *bicomp.Decomposition, a []graph.Node) int {
	return DimFromMaxInner(SubsetBound(d, a))
}

// subsetDiameterUB bounds the pairwise distance among nodes (all in one
// block, so graph distances equal block distances) by 2*max distance from
// the first member.
func subsetDiameterUB(g *graph.Graph, members []graph.Node) int32 {
	if len(members) < 2 {
		return 0
	}
	dist := graph.BFSDistances(g, members[0], nil)
	var far int32
	for _, t := range members {
		if d := dist[t]; d > far {
			far = d
		}
	}
	return 2 * far
}

func TestDimFromMaxInner(t *testing.T) {
	cases := []struct {
		pi   int64
		want int
	}{
		{0, 0}, {1, 1}, {2, 2}, {3, 2}, {4, 3}, {7, 3}, {8, 4}, {1023, 10}, {1024, 11},
	}
	for _, c := range cases {
		if got := DimFromMaxInner(c.pi); got != c.want {
			t.Errorf("DimFromMaxInner(%d) = %d, want %d", c.pi, got, c.want)
		}
	}
}

func TestRiondato(t *testing.T) {
	// complete graph: diameter 1 -> no inner nodes -> dim 0
	if got := Riondato(1); got != 0 {
		t.Errorf("Riondato(1) = %d, want 0", got)
	}
	// path of diameter 9: 8 inner nodes -> floor(log2 8)+1 = 4
	if got := Riondato(9); got != 4 {
		t.Errorf("Riondato(9) = %d, want 4", got)
	}
}

func TestLHop(t *testing.T) {
	// l=1: 2l+1 = 3 -> floor(log2 3)+1 = 2
	if got := LHop(1); got != 2 {
		t.Errorf("LHop(1) = %d, want 2", got)
	}
	if got := LHop(0); got != 1 {
		t.Errorf("LHop(0) = %d, want 1", got)
	}
}

func TestFullNetworkBeatsRiondatoOnTrees(t *testing.T) {
	// Tree: every block is an edge, BD = 1, so the SaPHyRa bound is 0 while
	// the Riondato bound grows with the diameter.
	g := graph.RandomTree(200, 4)
	d := bicomp.Decompose(g)
	full := FullNetwork(d.MaxBlockDiameterUpperBound())
	if full != 0 {
		t.Errorf("tree FullNetwork bound = %d, want 0", full)
	}
	diam := graph.Diameter(g)
	if r := Riondato(diam); r <= full {
		t.Errorf("Riondato %d should exceed SaPHyRa %d on trees", r, full)
	}
}

func TestSubsetBoundCappedBySubsetSize(t *testing.T) {
	g := graph.Cycle(64) // one block, diameter 32
	d := bicomp.Decompose(g)
	a := []graph.Node{0, 1}
	if bs := SubsetBound(d, a); bs > 2 {
		t.Errorf("BS bound = %d, want <= |A| = 2", bs)
	}
}

func TestSubsetBoundEmpty(t *testing.T) {
	g := graph.Cycle(8)
	d := bicomp.Decompose(g)
	if bs := SubsetBound(d, nil); bs != 0 {
		t.Errorf("BS(empty) = %d, want 0", bs)
	}
}

// The BS(A) bound must be a true upper bound on the actual maximum number of
// A-nodes that appear as inner nodes of a single intra-block shortest path.
func TestSubsetBoundIsUpperBound(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 4 + rng.Intn(16)
		g := testutil.RandomConnectedGraph(n, rng.Intn(n), seed)
		d := bicomp.Decompose(g)
		var a []graph.Node
		inA := make(map[graph.Node]bool)
		for len(a) < 3 {
			v := graph.Node(rng.Intn(n))
			if !inA[v] {
				inA[v] = true
				a = append(a, v)
			}
		}
		bound := SubsetBound(d, a)
		// brute: max over intra-block pairs and their shortest paths
		var actual int64
		for b := int32(0); int(b) < d.NumBlocks; b++ {
			members := d.Block(b)
			for _, s := range members {
				for _, u := range members {
					if s == u {
						continue
					}
					for _, p := range testutil.AllShortestPaths(g, s, u) {
						var c int64
						for _, v := range p[1 : len(p)-1] {
							if inA[v] {
								c++
							}
						}
						if c > actual {
							actual = c
						}
					}
				}
			}
		}
		if bound < actual {
			t.Logf("seed %d: bound %d < actual %d", seed, bound, actual)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestSubsetNeverExceedsFullNetwork(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 5 + rng.Intn(30)
		g := testutil.RandomConnectedGraph(n, rng.Intn(2*n), seed)
		d := bicomp.Decompose(g)
		var a []graph.Node
		for i := 0; i < 4; i++ {
			a = append(a, graph.Node(rng.Intn(n)))
		}
		// BS(A) <= BD - 1 by Lemma 23, so the dims are ordered too. Both
		// sides read the same per-block diameter bounds (exact here: no
		// block exceeds bicomp.ExactDiameterMaxBlock nodes).
		sub := Subset(d, a)
		full := FullNetwork(d.MaxBlockDiameterUpperBound())
		return sub <= full
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestTableIRow(t *testing.T) {
	g := graph.RoadNetwork(12, 12, 0.3, 5)
	d := bicomp.Decompose(g)
	row := TableI(d, []graph.Node{3, 70, 100}, graph.Diameter(g))
	if row.SaPHyRaSubset > row.SaPHyRaFull && row.SaPHyRaFull > 0 {
		t.Errorf("subset bound %d exceeds full bound %d", row.SaPHyRaSubset, row.SaPHyRaFull)
	}
	if row.SaPHyRaFull > row.RiondatoFull {
		t.Errorf("SaPHyRa full %d exceeds Riondato %d", row.SaPHyRaFull, row.RiondatoFull)
	}
}

// TestSubsetCappedMatchesSubset is the differential test of the capped BFS:
// on random subsets (sizes 2-200) and l-hop balls of the four stand-ins and
// of road grids, SubsetCapped must equal min(Subset, FullNetwork) exactly,
// with one scratch reused across every call.
func TestSubsetCappedMatchesSubset(t *testing.T) {
	graphs := map[string]*graph.Graph{
		"road-30x30": graph.RoadNetwork(30, 30, 0.3, 3),
		"grid-12x40": graph.Grid2D(12, 40),
	}
	for _, nw := range datasets.All {
		graphs[nw.Name] = nw.Build(0.25)
	}
	var s SubsetScratch
	var below, total int
	for name, g := range graphs {
		d := bicomp.Decompose(g)
		full := FullNetwork(d.MaxBlockDiameterUpperBound())
		n := g.NumNodes()
		rng := rand.New(rand.NewSource(int64(n)))
		var subsets [][]graph.Node
		for _, size := range []int{2, 3, 5, 8, 16, 40, 100, 200} {
			subsets = append(subsets, datasets.RandomSubsets(n, size, 3, rng.Int63())...)
		}
		for i := 0; i < 6; i++ {
			ball := datasets.LHopSubset(g, graph.Node(rng.Intn(n)), 1+i%3)
			if len(ball) > 200 {
				ball = ball[:200]
			}
			subsets = append(subsets, ball)
		}
		for _, a := range subsets {
			a = graph.DedupSorted(a)
			want := min(Subset(d, a), full)
			if got := SubsetCapped(d, a, full, &s); got != want {
				t.Fatalf("%s: |A| = %d: SubsetCapped = %d, min(Subset, FullNetwork) = %d", name, len(a), got, want)
			}
			total++
			if Subset(d, a) < full {
				below++
			}
		}
	}
	// The cap only earns its keep where the BFS lowers the answer; the set
	// must contain such subsets or the test says nothing about the cap.
	if below == 0 {
		t.Fatalf("none of %d subsets has a subset bound below the full-network bound", total)
	}
	t.Logf("%d subsets, %d below the full-network bound", total, below)
}
