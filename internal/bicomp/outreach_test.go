package bicomp

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"saphyra/internal/graph"
	"saphyra/internal/testutil"
)

func TestOutReachPathGraph(t *testing.T) {
	// Path 0-1-2: blocks {0,1} and {1,2}; cutpoint 1 has r = 2 in each.
	g := graph.Path(3)
	d := Decompose(g)
	o := NewOutReach(d)
	if err := o.CheckClaim9(); err != nil {
		t.Fatal(err)
	}
	for b := int32(0); int(b) < d.NumBlocks; b++ {
		if r := o.Of(b, 1); r != 2 {
			t.Errorf("r_%d(1) = %d, want 2", b, r)
		}
		for _, v := range d.Block(b) {
			if v != 1 {
				if r := o.Of(b, v); r != 1 {
					t.Errorf("r_%d(%d) = %d, want 1", b, v, r)
				}
			}
		}
	}
}

func TestOutReachPaperFig2(t *testing.T) {
	g, names := paperFig2()
	d := Decompose(g)
	o := NewOutReach(d)
	if err := o.CheckClaim9(); err != nil {
		t.Fatal(err)
	}
	// Cutpoint d belongs to C1={a..e}, C3={d,f}, C5={d,i}. With n=11:
	// out-reach of d w.r.t. C1 is {d, f, i, j, k} = 5.
	var c1 int32 = -1
	for _, b := range d.NodeBlocks(names['d']) {
		if d.BlockSize(b) == 5 {
			c1 = b
		}
	}
	if c1 < 0 {
		t.Fatal("C1 not found among d's blocks")
	}
	if r := o.Of(c1, names['d']); r != 5 {
		t.Errorf("r_C1(d) = %d, want 5", r)
	}
}

func TestOutReachMatchesBruteForce(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 3 + rng.Intn(22)
		g := testutil.RandomConnectedGraph(n, rng.Intn(n), seed)
		d := Decompose(g)
		o := NewOutReach(d)
		if err := o.CheckClaim9(); err != nil {
			t.Logf("seed %d: %v", seed, err)
			return false
		}
		for b := int32(0); int(b) < d.NumBlocks; b++ {
			for _, v := range d.Block(b) {
				want := testutil.BruteOutReach(g, d.Block(b), v)
				if got := o.Of(b, v); got != want {
					t.Logf("seed %d: r_%d(%d) = %d, brute %d", seed, b, v, got, want)
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestOutReachDisconnected(t *testing.T) {
	b := graph.NewBuilder(7)
	// component 1: path 0-1-2; component 2: triangle 3,4,5; node 6 isolated
	b.AddEdge(0, 1)
	b.AddEdge(1, 2)
	b.AddEdge(3, 4)
	b.AddEdge(4, 5)
	b.AddEdge(5, 3)
	g := b.Build()
	d := Decompose(g)
	o := NewOutReach(d)
	if err := o.CheckClaim9(); err != nil {
		t.Fatal(err)
	}
	// Claim 9 per component: sums are component sizes (3 and 3), not n=7.
	for bid := 0; bid < d.NumBlocks; bid++ {
		if o.S[bid] != 3 {
			t.Errorf("block %d: S = %d, want 3", bid, o.S[bid])
		}
	}
}

func TestBCAMatchesBruteForce(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 3 + rng.Intn(20)
		g := testutil.RandomConnectedGraph(n, rng.Intn(n), seed)
		d := Decompose(g)
		o := NewOutReach(d)
		for v := graph.Node(0); int(v) < n; v++ {
			want := testutil.BruteBCA(g, v)
			got := o.BCA(v)
			if math.Abs(got-want) > 1e-12 {
				t.Logf("seed %d: bca(%d) = %g, brute %g", seed, v, got, want)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestBCAZeroForNonCutpoints(t *testing.T) {
	g := graph.Cycle(8)
	d := Decompose(g)
	o := NewOutReach(d)
	for v := graph.Node(0); int(v) < 8; v++ {
		if o.BCA(v) != 0 {
			t.Errorf("bca(%d) = %g, want 0 on a cycle", v, o.BCA(v))
		}
	}
}

func TestGammaMatchesBruteForce(t *testing.T) {
	// gamma = sum over blocks of sum_{s != t in block} r(s) r(t) / (n(n-1)),
	// computed here with brute-force out-reach values.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 3 + rng.Intn(18)
		g := testutil.RandomConnectedGraph(n, rng.Intn(n), seed)
		d := Decompose(g)
		o := NewOutReach(d)
		var brute float64
		for b := int32(0); int(b) < d.NumBlocks; b++ {
			members := d.Block(b)
			for _, s := range members {
				for _, u := range members {
					if s == u {
						continue
					}
					brute += float64(testutil.BruteOutReach(g, members, s) * testutil.BruteOutReach(g, members, u))
				}
			}
		}
		brute /= float64(n) * float64(n-1)
		return math.Abs(o.Gamma()-brute) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestGammaOnBiconnectedGraphIsOne(t *testing.T) {
	// A single biconnected block covering the whole (connected) graph keeps
	// every shortest path intact: gamma = 1.
	for _, g := range []*graph.Graph{graph.Cycle(9), graph.Complete(5)} {
		d := Decompose(g)
		o := NewOutReach(d)
		if math.Abs(o.Gamma()-1) > 1e-12 {
			t.Errorf("gamma = %g, want 1", o.Gamma())
		}
	}
}

func TestGammaStarGraph(t *testing.T) {
	// Star K_{1,4} (n=5): every block is an edge {center, leaf} with
	// r(center)=4, r(leaf)=1 w.r.t. that block... wait: out-reach of center
	// w.r.t. edge-block {c, leaf} is all nodes except that leaf = 4.
	// w_block = (4+1)^2 - (16+1) = 8 per block, 4 blocks -> 32.
	// gamma = 32 / (5*4) = 1.6/2 = 0.8... computed: 32/20 = 1.6 -- that
	// exceeds 1 because ordered intra-block pair mass counts each broken
	// 2-hop path's two halves. Verify against the direct definition
	// instead: gamma = sum_i sum_{s!=t in C_i} q_st where
	// q_st = r(s)r(t)/(n(n-1)).
	g := graph.Star(5)
	d := Decompose(g)
	o := NewOutReach(d)
	want := 32.0 / 20.0
	if math.Abs(o.Gamma()-want) > 1e-12 {
		t.Errorf("gamma = %g, want %g", o.Gamma(), want)
	}
}

func TestEtaAndBlocksOf(t *testing.T) {
	g, names := paperFig2()
	d := Decompose(g)
	o := NewOutReach(d)
	// A = {j}: only block C4 (triangle i,j,k).
	blocks := o.BlocksOf([]graph.Node{names['j']})
	if len(blocks) != 1 {
		t.Fatalf("I({j}) = %v, want single block", blocks)
	}
	eta := o.Eta(blocks)
	if eta <= 0 || eta >= 1 {
		t.Errorf("eta = %g, want in (0,1)", eta)
	}
	// A = all nodes: eta = 1.
	var all []graph.Node
	for v := 0; v < g.NumNodes(); v++ {
		all = append(all, graph.Node(v))
	}
	if e := o.Eta(o.BlocksOf(all)); math.Abs(e-1) > 1e-12 {
		t.Errorf("eta(V) = %g, want 1", e)
	}
}

func TestBlocksOfDeduplicates(t *testing.T) {
	g := graph.Path(4) // blocks: {0,1},{1,2},{2,3}
	d := Decompose(g)
	o := NewOutReach(d)
	blocks := o.BlocksOf([]graph.Node{1, 2, 1}) // node 1 in 2 blocks, 2 in 2
	if len(blocks) != 3 {
		t.Errorf("I(A) = %v, want all 3 blocks deduped", blocks)
	}
	for i := 1; i < len(blocks); i++ {
		if blocks[i-1] >= blocks[i] {
			t.Error("BlocksOf not sorted")
		}
	}
}

func TestPairMass(t *testing.T) {
	g := graph.Path(3)
	d := Decompose(g)
	o := NewOutReach(d)
	b := d.NodeBlocks(0)[0] // block {0,1}
	// r(0)=1, r_b(1)=2
	if got := o.PairMass(b, 0, 1); got != 2 {
		t.Errorf("PairMass = %g, want 2", got)
	}
}

// Lemma 13 sanity on small graphs: bc(v) = gamma * E_{Dc}[g(v,p)] + bca(v).
// We verify by full enumeration: E_{Dc}[g(v,p)] computed from the explicit
// ISP distribution over intra-block pairs.
func TestLemma13Identity(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 3 + rng.Intn(14)
		g := testutil.RandomConnectedGraph(n, rng.Intn(n), seed)
		d := Decompose(g)
		o := NewOutReach(d)
		bc := testutil.BruteBC(g)
		nn := float64(n) * float64(n-1)
		// E_{Dc}[g(v,.)] * gamma = sum over blocks, intra-block ordered
		// pairs (s,t), shortest paths p of q'_st/(sigma nn) * inner(v, p).
		inner := make([]float64, n)
		for b := int32(0); int(b) < d.NumBlocks; b++ {
			members := d.Block(b)
			for _, s := range members {
				for _, u := range members {
					if s == u {
						continue
					}
					paths := testutil.AllShortestPaths(g, s, u)
					if len(paths) == 0 {
						continue
					}
					mass := o.PairMass(b, s, u) / (float64(len(paths)) * nn)
					for _, p := range paths {
						for _, v := range p[1 : len(p)-1] {
							inner[v] += mass
						}
					}
				}
			}
		}
		for v := 0; v < n; v++ {
			want := bc[v]
			got := inner[v] + o.BCA(graph.Node(v))
			if math.Abs(got-want) > 1e-9 {
				t.Logf("seed %d: node %d: gamma*E+bca = %g, bc = %g", seed, v, got, want)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}
