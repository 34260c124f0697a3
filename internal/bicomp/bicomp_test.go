package bicomp

import (
	"math/rand"
	"testing"
	"testing/quick"

	"saphyra/internal/graph"
	"saphyra/internal/testutil"
)

// paperFig2 builds the example graph of Fig 2 in the paper: nodes
// a..k mapped to 0..10, with five bi-components and cutpoints c, d, i.
func paperFig2() (*graph.Graph, map[byte]graph.Node) {
	names := map[byte]graph.Node{
		'a': 0, 'b': 1, 'c': 2, 'd': 3, 'e': 4, 'f': 5,
		'g': 6, 'h': 7, 'i': 8, 'j': 9, 'k': 10,
	}
	b := graph.NewBuilder(11)
	add := func(x, y byte) { b.AddEdge(names[x], names[y]) }
	// C1 = {b,a,c,d,e}: cycle-ish component containing a,b,c,d,e
	add('a', 'b')
	add('b', 'c')
	add('a', 'd')
	add('c', 'e')
	add('d', 'e')
	add('a', 'e')
	// C2 = {c,g,h}: triangle
	add('c', 'g')
	add('g', 'h')
	add('h', 'c')
	// C3 = {d,f}: bridge
	add('d', 'f')
	// C4 = {i,j,k}: triangle
	add('i', 'j')
	add('j', 'k')
	add('k', 'i')
	// C5 = {d,i}: bridge
	add('d', 'i')
	return b.Build(), names
}

func TestDecomposePaperFig2(t *testing.T) {
	g, names := paperFig2()
	d := Decompose(g)
	if err := d.Validate(); err != nil {
		t.Fatal(err)
	}
	if d.NumBlocks != 5 {
		t.Fatalf("NumBlocks = %d, want 5", d.NumBlocks)
	}
	wantCuts := []byte{'c', 'd', 'i'}
	for _, name := range wantCuts {
		if !d.IsCut(names[name]) {
			t.Errorf("%c should be a cutpoint", name)
		}
	}
	if numCuts := len(d.Cutpoints()); numCuts != 3 {
		t.Errorf("cutpoints = %d, want 3", numCuts)
	}
	// Block sizes: {5, 3, 2, 3, 2} in some order.
	sizes := map[int]int{}
	for b := 0; b < d.NumBlocks; b++ {
		sizes[d.BlockSize(int32(b))]++
	}
	if sizes[5] != 1 || sizes[3] != 2 || sizes[2] != 2 {
		t.Errorf("block size histogram = %v, want {5:1, 3:2, 2:2}", sizes)
	}
}

func TestDecomposeTree(t *testing.T) {
	g := graph.RandomTree(30, 3)
	d := Decompose(g)
	if err := d.Validate(); err != nil {
		t.Fatal(err)
	}
	if d.NumBlocks != 29 {
		t.Errorf("tree blocks = %d, want 29 (one per edge)", d.NumBlocks)
	}
	// Internal nodes are cutpoints, leaves are not.
	for v := 0; v < g.NumNodes(); v++ {
		wantCut := g.Degree(graph.Node(v)) > 1
		if d.IsCut(graph.Node(v)) != wantCut {
			t.Errorf("node %d (deg %d): IsCut = %v", v, g.Degree(graph.Node(v)), d.IsCut(graph.Node(v)))
		}
	}
}

func TestDecomposeCycle(t *testing.T) {
	g := graph.Cycle(12)
	d := Decompose(g)
	if d.NumBlocks != 1 {
		t.Fatalf("cycle blocks = %d, want 1", d.NumBlocks)
	}
	if len(d.Cutpoints()) != 0 {
		t.Error("cycle has no cutpoints")
	}
	if d.BlockSize(0) != 12 {
		t.Errorf("block size = %d, want 12", d.BlockSize(0))
	}
}

func TestDecomposeComplete(t *testing.T) {
	g := graph.Complete(6)
	d := Decompose(g)
	if d.NumBlocks != 1 {
		t.Errorf("K6 blocks = %d, want 1", d.NumBlocks)
	}
}

func TestDecomposeBarbell(t *testing.T) {
	g := graph.Barbell(4, 3)
	d := Decompose(g)
	if err := d.Validate(); err != nil {
		t.Fatal(err)
	}
	// 2 clique blocks + 3 bridge blocks
	if d.NumBlocks != 5 {
		t.Errorf("blocks = %d, want 5", d.NumBlocks)
	}
}

func TestDecomposeDisconnected(t *testing.T) {
	b := graph.NewBuilder(8)
	b.AddEdge(0, 1)
	b.AddEdge(1, 2)
	b.AddEdge(2, 0) // triangle
	b.AddEdge(4, 5) // lone edge; nodes 3, 6, 7 isolated
	g := b.Build()
	d := Decompose(g)
	if err := d.Validate(); err != nil {
		t.Fatal(err)
	}
	if d.NumBlocks != 2 {
		t.Fatalf("blocks = %d, want 2", d.NumBlocks)
	}
	if len(d.NodeBlocks(3)) != 0 || len(d.NodeBlocks(6)) != 0 {
		t.Error("isolated nodes should belong to no block")
	}
}

func TestCutpointsMatchBruteForce(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 3 + rng.Intn(25)
		g := testutil.RandomConnectedGraph(n, rng.Intn(n), seed)
		d := Decompose(g)
		if err := d.Validate(); err != nil {
			t.Logf("seed %d: %v", seed, err)
			return false
		}
		brute := testutil.BruteCutpoints(g)
		for v := 0; v < n; v++ {
			if d.IsCut(graph.Node(v)) != brute[v] {
				t.Logf("seed %d: node %d IsCut=%v brute=%v", seed, v, d.IsCut(graph.Node(v)), brute[v])
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestCommonBlockMatchesBruteForce(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 3 + rng.Intn(18)
		g := testutil.RandomConnectedGraph(n, rng.Intn(n), seed)
		d := Decompose(g)
		for trial := 0; trial < 25; trial++ {
			s := graph.Node(rng.Intn(n))
			u := graph.Node(rng.Intn(n))
			if s == u {
				continue
			}
			got := d.CommonBlock(s, u) >= 0
			want := testutil.SameBlock(g, s, u)
			if got != want {
				t.Logf("seed %d: pair (%d,%d) common=%v brute=%v", seed, s, u, got, want)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestBlockOfEdge(t *testing.T) {
	g, names := paperFig2()
	d := Decompose(g)
	// edges within the same block must share a block id
	if d.BlockOfEdge(names['i'], names['j']) != d.BlockOfEdge(names['j'], names['k']) {
		t.Error("triangle edges in different blocks")
	}
	// bridge edges get their own block
	if d.BlockOfEdge(names['d'], names['f']) == d.BlockOfEdge(names['d'], names['i']) {
		t.Error("distinct bridges share a block")
	}
	if d.BlockOfEdge(names['a'], names['k']) != -1 {
		t.Error("absent edge should map to -1")
	}
}

// bruteEdgeClasses partitions g's edges into blocks by brute force: two
// edges {v, a} and {v, b} that share a node v are in one block exactly when
// a and b are connected in G - v, and the blocks are the union-find closure
// of that relation. It returns the class of an edge, given its ends.
func bruteEdgeClasses(g *graph.Graph) func(u, v graph.Node) int {
	edges := g.Edges()
	index := map[graph.Edge]int{}
	for i, e := range edges {
		index[e] = i
	}
	edgeOf := func(u, v graph.Node) int { return index[graph.Edge{U: min(u, v), V: max(u, v)}] }
	parent := make([]int, len(edges))
	for i := range parent {
		parent[i] = i
	}
	var find func(int) int
	find = func(i int) int {
		if parent[i] != i {
			parent[i] = find(parent[i])
		}
		return parent[i]
	}
	n := g.NumNodes()
	label := make([]int, n)
	for v := graph.Node(0); int(v) < n; v++ {
		// Label the components of G - v by BFS.
		for i := range label {
			label[i] = -1
		}
		for s := graph.Node(0); int(s) < n; s++ {
			if s == v || label[s] >= 0 {
				continue
			}
			label[s] = int(s)
			queue := []graph.Node{s}
			for len(queue) > 0 {
				x := queue[0]
				queue = queue[1:]
				for _, y := range g.Neighbors(x) {
					if y != v && label[y] < 0 {
						label[y] = int(s)
						queue = append(queue, y)
					}
				}
			}
		}
		nbrs := g.Neighbors(v)
		for i, a := range nbrs {
			for _, b := range nbrs[i+1:] {
				if label[a] == label[b] {
					parent[find(edgeOf(v, a))] = find(edgeOf(v, b))
				}
			}
		}
	}
	return func(u, v graph.Node) int { return find(edgeOf(u, v)) }
}

// TestBlockOfEdgeMatchesBruteForce: BlockOfEdge partitions the edges into
// exactly the brute-force blocks, and every run of the view holds exactly
// its owner's edges of one block.
func TestBlockOfEdgeMatchesBruteForce(t *testing.T) {
	for seed := int64(0); seed < 12; seed++ {
		n := 8 + 3*int(seed)
		g := testutil.RandomConnectedGraph(n, int(seed%4)*n/3, seed)
		class := bruteEdgeClasses(g)
		v := NewBlockCSR(g)
		d := v.D
		// class -> block and block -> class must both be functions.
		blockOf, classOf := map[int]int32{}, map[int32]int{}
		for _, e := range g.Edges() {
			b, c := d.BlockOfEdge(e.U, e.V), class(e.U, e.V)
			if b < 0 {
				t.Fatalf("seed %d: edge %v has no block", seed, e)
			}
			if got, ok := blockOf[c]; ok && got != b {
				t.Fatalf("seed %d: edge %v in block %d, its brute-force class is in block %d", seed, e, b, got)
			}
			if got, ok := classOf[b]; ok && got != c {
				t.Fatalf("seed %d: block %d holds edges of two brute-force classes", seed, b)
			}
			blockOf[c], classOf[b] = b, c
		}
		if len(classOf) != d.NumBlocks {
			t.Fatalf("seed %d: %d brute-force classes, %d blocks", seed, len(classOf), d.NumBlocks)
		}
		for u := graph.Node(0); int(u) < n; u++ {
			lo, hi := v.Runs(u)
			for j := lo; j < hi; j++ {
				elo, ehi := v.RunEdges(j)
				run := class(u, v.Nbr[elo])
				for _, w := range v.Nbr[elo:ehi] {
					if class(u, w) != run {
						t.Fatalf("seed %d: node %d run %d mixes two blocks", seed, u, j-lo)
					}
				}
				var want int64
				for _, w := range g.Neighbors(u) {
					if class(u, w) == run {
						want++
					}
				}
				if want != ehi-elo {
					t.Fatalf("seed %d: node %d run %d holds %d edges of its block, the node has %d", seed, u, j-lo, ehi-elo, want)
				}
			}
		}
	}
}

func TestBlockDiameter(t *testing.T) {
	g := graph.Cycle(10)
	d := Decompose(g)
	if got := d.BlockDiameter(0); got != 5 {
		t.Errorf("cycle block diameter = %d, want 5", got)
	}
	lo, hi := d.BlockDiameterBounds(0)
	if lo > 5 || hi < 5 {
		t.Errorf("bounds (%d, %d) exclude true diameter 5", lo, hi)
	}
}

func TestMaxBlockDiameterUpperBound(t *testing.T) {
	// Barbell: clique blocks have diameter 1, bridges diameter 1.
	g := graph.Barbell(5, 2)
	d := Decompose(g)
	if got := d.MaxBlockDiameterUpperBound(); got < 1 || got > 2 {
		t.Errorf("barbell BD upper bound = %d, want in [1,2]", got)
	}
	// Property: the double-sweep maximum upper-bounds the exact maximum
	// block diameter, and with every block at most ExactDiameterMaxBlock
	// nodes the memoized bound is the exact maximum.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 4 + rng.Intn(20)
		g := testutil.RandomConnectedGraph(n, rng.Intn(2*n), seed)
		d := Decompose(g)
		var exact, swept int32
		for b := int32(0); int(b) < d.NumBlocks; b++ {
			exact = max(exact, d.BlockDiameter(b))
			_, hi := d.BlockDiameterBounds(b)
			swept = max(swept, hi)
		}
		return swept >= exact && d.MaxBlockDiameterUpperBound() == exact
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestDecomposeLongPathNoStackOverflow(t *testing.T) {
	// The iterative DFS must survive a 200k-node path.
	g := graph.Path(200_000)
	d := Decompose(g)
	if d.NumBlocks != 199_999 {
		t.Errorf("blocks = %d, want 199999", d.NumBlocks)
	}
}
