package shortestpath

import (
	"math"
	"math/rand"
	rand2 "math/rand/v2"
	"slices"
	"testing"
	"testing/quick"

	"saphyra/internal/datasets"
	"saphyra/internal/graph"
	"saphyra/internal/testutil"
)

func TestBiBFSMatchesUnidirectional(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 3 + rng.Intn(30)
		g := testutil.RandomConnectedGraph(n, rng.Intn(2*n), seed)
		bi := NewBiBFS(n)
		d := NewDAG(n)
		for trial := 0; trial < 20; trial++ {
			s := graph.Node(rng.Intn(n))
			u := graph.Node(rng.Intn(n))
			if s == u {
				continue
			}
			d.Run(g, s)
			dist, sigma, ok := bi.Query(g, s, u)
			if !ok {
				t.Logf("seed %d: (%d,%d) not ok on connected graph", seed, s, u)
				return false
			}
			if dist != d.Dist[u] {
				t.Logf("seed %d: dist(%d,%d) = %d, want %d", seed, s, u, dist, d.Dist[u])
				return false
			}
			if math.Abs(sigma-d.Sigma[u]) > 1e-9*math.Max(1, d.Sigma[u]) {
				t.Logf("seed %d: sigma(%d,%d) = %g, want %g", seed, s, u, sigma, d.Sigma[u])
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestBiBFSAdjacentPair(t *testing.T) {
	g := graph.Path(2)
	bi := NewBiBFS(2)
	dist, sigma, ok := bi.Query(g, 0, 1)
	if !ok || dist != 1 || sigma != 1 {
		t.Errorf("adjacent pair: dist=%d sigma=%g ok=%v", dist, sigma, ok)
	}
	p := bi.SamplePath(g, rand.New(rand.NewSource(1)))
	if len(p) != 2 || p[0] != 0 || p[1] != 1 {
		t.Errorf("path = %v, want [0 1]", p)
	}
}

func TestBiBFSSamePair(t *testing.T) {
	g := graph.Path(3)
	bi := NewBiBFS(3)
	if _, _, ok := bi.Query(g, 1, 1); ok {
		t.Error("s == t should not be ok")
	}
}

func TestBiBFSDisconnected(t *testing.T) {
	b := graph.NewBuilder(4)
	b.AddEdge(0, 1)
	b.AddEdge(2, 3)
	g := b.Build()
	bi := NewBiBFS(4)
	if _, _, ok := bi.Query(g, 0, 3); ok {
		t.Error("disconnected pair should not be ok")
	}
	// and a subsequent connected query still works (epoch reuse)
	if dist, _, ok := bi.Query(g, 0, 1); !ok || dist != 1 {
		t.Errorf("follow-up query broken: dist=%d ok=%v", dist, ok)
	}
}

func TestBiBFSSamplePathValid(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	g := testutil.RandomConnectedGraph(40, 60, 17)
	bi := NewBiBFS(40)
	for trial := 0; trial < 300; trial++ {
		s := graph.Node(rng.Intn(40))
		u := graph.Node(rng.Intn(40))
		if s == u {
			continue
		}
		dist, _, ok := bi.Query(g, s, u)
		if !ok {
			t.Fatal("connected pair not ok")
		}
		p := bi.SamplePath(g, rng)
		if int32(len(p)-1) != dist {
			t.Fatalf("path length %d != dist %d (pair %d,%d)", len(p)-1, dist, s, u)
		}
		if p[0] != s || p[len(p)-1] != u {
			t.Fatalf("endpoints %v, want %d..%d", p, s, u)
		}
		for i := 1; i < len(p); i++ {
			if !g.HasEdge(p[i-1], p[i]) {
				t.Fatalf("non-edge %d-%d in path", p[i-1], p[i])
			}
		}
	}
}

func TestBiBFSSamplePathUniform(t *testing.T) {
	// 6-cycle: two shortest paths between opposite nodes 0 and 3.
	g := graph.Cycle(6)
	bi := NewBiBFS(6)
	rng := rand.New(rand.NewSource(23))
	const N = 20000
	via1 := 0
	for i := 0; i < N; i++ {
		if _, _, ok := bi.Query(g, 0, 3); !ok {
			t.Fatal("query failed")
		}
		p := bi.SamplePath(g, rng)
		if p[1] == 1 {
			via1++
		}
	}
	frac := float64(via1) / N
	if math.Abs(frac-0.5) > 0.02 {
		t.Errorf("clockwise frequency = %g, want ~0.5", frac)
	}
}

func TestBiBFSSamplePathUniformOverAllPaths(t *testing.T) {
	// Verify per-path uniformity on a random graph by comparing empirical
	// frequencies of complete paths with 1/sigma.
	g := testutil.RandomConnectedGraph(12, 14, 5)
	bi := NewBiBFS(12)
	rng := rand.New(rand.NewSource(71))
	var s, u graph.Node
	var want [][]graph.Node
	// find a pair with at least 3 shortest paths
	for a := graph.Node(0); int(a) < 12 && len(want) < 3; a++ {
		for b := graph.Node(0); int(b) < 12; b++ {
			if a == b {
				continue
			}
			ps := testutil.AllShortestPaths(g, a, b)
			if len(ps) >= 3 {
				s, u, want = a, b, ps
				break
			}
		}
	}
	if len(want) < 3 {
		t.Skip("fixture has no pair with >= 3 shortest paths")
	}
	key := func(p []graph.Node) string {
		out := make([]byte, 0, len(p))
		for _, v := range p {
			out = append(out, byte(v))
		}
		return string(out)
	}
	counts := map[string]int{}
	const N = 30000
	for i := 0; i < N; i++ {
		bi.Query(g, s, u)
		counts[key(bi.SamplePath(g, rng))]++
	}
	if len(counts) != len(want) {
		t.Fatalf("observed %d distinct paths, want %d", len(counts), len(want))
	}
	exp := 1.0 / float64(len(want))
	for k, c := range counts {
		frac := float64(c) / N
		if math.Abs(frac-exp) > 0.025 {
			t.Errorf("path %q frequency %g, want ~%g", k, frac, exp)
		}
	}
}

func TestBiBFSEpochWraparound(t *testing.T) {
	g := graph.Cycle(5)
	bi := NewBiBFS(5)
	bi.epoch = ^uint32(0) - 1 // force wrap soon
	for i := 0; i < 5; i++ {
		if dist, _, ok := bi.Query(g, 0, 2); !ok || dist != 2 {
			t.Fatalf("query %d after wrap: dist=%d ok=%v", i, dist, ok)
		}
	}
}

// refBiBFS is the bidirectional BFS as it was before the meeting level
// stopped discovering nodes: it stamps, queues and prices every node of the
// meeting level, rescans that whole frontier for the meeting cut and counts
// each step's total weight on the path walk. TestBiBFSMatchesReference
// holds BiBFS to it bit for bit.
type refBiBFS struct {
	node           []biNode
	epoch          uint32
	frontF, frontB []graph.Node
	nextF, nextB   []graph.Node
	meet           []graph.Node
	dist           int32
	meetTotal      float64
}

func (b *refBiBFS) Query(g *graph.Graph, s, t graph.Node) (int32, float64, bool) {
	if s == t {
		return 0, 0, false
	}
	b.epoch++
	ns, nt := &b.node[s], &b.node[t]
	ns.stampF, ns.distF, ns.sigF = b.epoch, 0, 1
	nt.stampB, nt.distB, nt.sigB = b.epoch, 0, 1
	b.frontF = append(b.frontF[:0], s)
	b.frontB = append(b.frontB[:0], t)
	levelF, levelB := int32(0), int32(0)
	costF, costB := int64(g.Degree(s)), int64(g.Degree(t))
	for len(b.frontF) > 0 && len(b.frontB) > 0 {
		if costF <= costB {
			b.nextF = b.nextF[:0]
			newLevel := levelF + 1
			met := false
			best := int32(1 << 30)
			var nextCost int64
			for _, u := range b.frontF {
				su := b.node[u].sigF
				for _, v := range g.Neighbors(u) {
					nv := &b.node[v]
					if nv.stampF != b.epoch {
						nv.stampF, nv.distF, nv.sigF = b.epoch, newLevel, su
						b.nextF = append(b.nextF, v)
						nextCost += int64(g.Degree(v))
						if nv.stampB == b.epoch {
							met = true
							best = min(best, newLevel+nv.distB)
						}
					} else if nv.distF == newLevel {
						nv.sigF += su
					}
				}
			}
			levelF = newLevel
			b.frontF, b.nextF = b.nextF, b.frontF
			costF = nextCost
			if met {
				return b.finish(newLevel, best, 0)
			}
		} else {
			b.nextB = b.nextB[:0]
			newLevel := levelB + 1
			met := false
			best := int32(1 << 30)
			var nextCost int64
			for _, u := range b.frontB {
				su := b.node[u].sigB
				for _, v := range g.Neighbors(u) {
					nv := &b.node[v]
					if nv.stampB != b.epoch {
						nv.stampB, nv.distB, nv.sigB = b.epoch, newLevel, su
						b.nextB = append(b.nextB, v)
						nextCost += int64(g.Degree(v))
						if nv.stampF == b.epoch {
							met = true
							best = min(best, newLevel+nv.distF)
						}
					} else if nv.distB == newLevel {
						nv.sigB += su
					}
				}
			}
			levelB = newLevel
			b.frontB, b.nextB = b.nextB, b.frontB
			costB = nextCost
			if met {
				return b.finish(newLevel, best, 1)
			}
		}
	}
	return 0, 0, false
}

func (b *refBiBFS) finish(cutLevel, d int32, side int8) (int32, float64, bool) {
	b.dist = d
	b.meet = b.meet[:0]
	b.meetTotal = 0
	front := b.frontF
	if side == 1 {
		front = b.frontB
	}
	other := d - cutLevel
	for _, u := range front {
		nu := &b.node[u]
		if side == 0 && nu.stampB == b.epoch && nu.distB == other ||
			side == 1 && nu.stampF == b.epoch && nu.distF == other {
			b.meet = append(b.meet, u)
			b.meetTotal += nu.sigF * nu.sigB
		}
	}
	return b.dist, b.meetTotal, true
}

func (b *refBiBFS) SamplePathAppend(g *graph.Graph, rng Rand, buf []graph.Node) []graph.Node {
	if len(b.meet) == 0 {
		return nil
	}
	target := rng.Float64() * b.meetTotal
	var acc float64
	u := b.meet[len(b.meet)-1]
	for _, v := range b.meet {
		acc += b.node[v].sigF * b.node[v].sigB
		if acc >= target {
			u = v
			break
		}
	}
	path := append(buf[:0], make([]graph.Node, b.dist+1)...)
	path[b.node[u].distF] = u
	x := u
	for b.node[x].distF > 0 {
		x = b.stepDown(g, x, rng, true)
		path[b.node[x].distF] = x
	}
	x = u
	for b.node[x].distB > 0 {
		x = b.stepDown(g, x, rng, false)
		path[b.dist-b.node[x].distB] = x
	}
	return path
}

func (b *refBiBFS) stepDown(g *graph.Graph, x graph.Node, rng Rand, forward bool) graph.Node {
	in := func(w graph.Node) (float64, bool) {
		nw := &b.node[w]
		if forward {
			return nw.sigF, nw.stampF == b.epoch && nw.distF == b.node[x].distF-1
		}
		return nw.sigB, nw.stampB == b.epoch && nw.distB == b.node[x].distB-1
	}
	var total float64
	for _, w := range g.Neighbors(x) {
		if sig, ok := in(w); ok {
			total += sig
		}
	}
	target := rng.Float64() * total
	var acc float64
	var last graph.Node = -1
	for _, w := range g.Neighbors(x) {
		if sig, ok := in(w); ok {
			acc += sig
			last = w
			if acc >= target {
				return w
			}
		}
	}
	return last
}

// layeredHub is s, then layers consecutive layers of 4 to 6 nodes each
// joined to the next by random edges (every node keeps a parent, and ids are
// shuffled within a layer, so the order a wave adds up a node's parents
// differs from its sorted adjacency), then t with hub leaves. t's frontier
// is dearer than any layer's, so the forward wave crosses every layer alone
// and its path counts pass 2^53 on the way: the path walk's counting pass
// runs there, and nowhere on a grid, whose waves meet halfway at counts of
// at most C(33, 16) on Grid2D(34, 34).
func layeredHub(layers, hub int, seed uint64) *graph.Graph {
	rng := rand2.New(rand2.NewPCG(seed, 0))
	var sizes []int
	n := 1
	for range layers {
		sizes = append(sizes, 4+rng.IntN(3))
		n += sizes[len(sizes)-1]
	}
	t := graph.Node(n)
	b := graph.NewBuilder(n + 1 + hub)
	prev := []graph.Node{0}
	first := graph.Node(1)
	for _, w := range sizes {
		cur := make([]graph.Node, w)
		for i, p := range rng.Perm(w) {
			cur[i] = first + graph.Node(p)
		}
		first += graph.Node(w)
		for _, v := range cur {
			b.AddEdge(prev[rng.IntN(len(prev))], v)
			for _, u := range prev {
				if rng.IntN(4) != 0 {
					b.AddEdge(u, v)
				}
			}
		}
		prev = cur
	}
	for _, u := range prev {
		b.AddEdge(u, t)
	}
	for i := range hub {
		b.AddEdge(t, t+1+graph.Node(i))
	}
	return b.Build()
}

// TestBiBFSMatchesReference runs BiBFS and refBiBFS on the same random
// pairs and requires equal answers bit for bit: ok, distance and σ bits,
// the meeting cut in order, the sampled path from identically seeded RNGs
// and the RNG state after the draw.
func TestBiBFSMatchesReference(t *testing.T) {
	disconnected := func() *graph.Graph {
		b := graph.NewBuilder(60)
		for i := 0; i < 20; i++ {
			b.AddEdge(graph.Node(i), graph.Node((i+1)%20)) // a 20-cycle
		}
		for i := 20; i < 39; i++ {
			b.AddEdge(graph.Node(i), graph.Node(i+1)) // a 20-node path
		}
		for i := 41; i < 55; i++ {
			b.AddEdge(40, graph.Node(i)) // a star; 55..59 isolated
		}
		return b.Build()
	}()
	cases := []struct {
		name     string
		g        *graph.Graph
		fallback bool // some path count must reach 2^53
	}{
		{"barabasi-albert", graph.BarabasiAlbert(2000, 3, 5), false},
		{"flickr-sim", datasets.Flickr.Build(0.25), false},
		{"usaroad-sim", datasets.USARoad.Build(0.25), false},
		{"grid-34x34", graph.Grid2D(34, 34), false},
		{"layered-hub", layeredHub(60, 400, 9), true},
		{"star", graph.Star(300), false},
		{"cycle", graph.Cycle(301), false},
		{"disconnected", disconnected, false},
	}
	const pairs = 4000
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			n := c.g.NumNodes()
			got := NewBiBFS(n)
			ref := &refBiBFS{node: make([]biNode, n)}
			pick := rand.New(rand.NewSource(int64(n)))
			var pathGot, pathRef []graph.Node
			okPairs, counted := 0, 0
			for i := range pairs {
				s, u := graph.Node(pick.Intn(n)), graph.Node(pick.Intn(n))
				switch {
				case i%20 == 0: // the far corners, end to end
					s, u = 0, graph.Node(n-1)
				case i%20 == 1:
					s, u = graph.Node(n-1), 0
				}
				d1, sg1, ok1 := got.Query(c.g, s, u)
				d2, sg2, ok2 := ref.Query(c.g, s, u)
				if ok1 != ok2 || d1 != d2 || math.Float64bits(sg1) != math.Float64bits(sg2) {
					t.Fatalf("pair (%d,%d): got (%d, %g, %v), reference (%d, %g, %v)", s, u, d1, sg1, ok1, d2, sg2, ok2)
				}
				if !ok1 {
					continue
				}
				okPairs++
				if !slices.Equal(got.meet, ref.meet) {
					t.Fatalf("pair (%d,%d): meeting cut %v, reference %v", s, u, got.meet, ref.meet)
				}
				seed := uint64(i)
				pcg1, pcg2 := rand2.NewPCG(seed, 1), rand2.NewPCG(seed, 1)
				pathGot = got.SamplePathAppend(c.g, rand2.New(pcg1), pathGot)
				pathRef = ref.SamplePathAppend(c.g, rand2.New(pcg2), pathRef)
				if !slices.Equal(pathGot, pathRef) {
					t.Fatalf("pair (%d,%d): path %v, reference %v", s, u, pathGot, pathRef)
				}
				st1, _ := pcg1.MarshalBinary()
				st2, _ := pcg2.MarshalBinary()
				if !slices.Equal(st1, st2) {
					t.Fatalf("pair (%d,%d): RNG state differs after the draw", s, u)
				}
				counted += checkParentSigma(t, c.g, got)
			}
			t.Logf("%d of %d pairs connected, %d counts above 2^53 added up again", okPairs, pairs, counted)
			if c.fallback && counted == 0 {
				t.Fatal("no count reached 2^53: the counting pass went untested")
			}
		})
	}
}

// checkParentSigma requires parentSigma of every node a wave of the last
// query reached, past its source, to equal its parents' counts added up in
// adjacency order, bit for bit: the total the reference path walk draws
// against. It returns how many of those totals were added up again.
func checkParentSigma(t *testing.T, g *graph.Graph, b *BiBFS) (recounted int) {
	t.Helper()
	for x := range b.node {
		nx := b.node[x]
		for _, forward := range []bool{true, false} {
			stamp, dist, sig := nx.stampF, nx.distF, nx.sigF
			if !forward {
				stamp, dist, sig = nx.stampB, nx.distB, nx.sigB
			}
			if stamp != b.epoch || dist == 0 {
				continue
			}
			var want float64
			for _, w := range g.Neighbors(graph.Node(x)) {
				nw := b.node[w]
				if forward && nw.stampF == b.epoch && nw.distF == dist-1 {
					want += nw.sigF
				} else if !forward && nw.stampB == b.epoch && nw.distB == dist-1 {
					want += nw.sigB
				}
			}
			if got := b.parentSigma(g, graph.Node(x), forward); math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("node %d (forward %v): parent total %g, added up %g", x, forward, got, want)
			}
			if sig >= exactSigma {
				recounted++
			}
		}
	}
	return recounted
}

// BenchmarkBiBFSPairs times one far pair, Query plus SamplePathAppend, over
// a fixed list of pairs at distance 4 or more (the pairs the bc sampler
// serves with BiBFS) on the Flickr stand-in at scale 4, the benchmark's
// graph, and on the road stand-in, whose waves are thin and long.
func BenchmarkBiBFSPairs(b *testing.B) {
	for _, c := range []struct {
		net   datasets.Network
		scale float64
	}{{datasets.Flickr, 4}, {datasets.USARoad, 0.25}} {
		b.Run(c.net.Name, func(b *testing.B) {
			g := c.net.Build(c.scale)
			n := g.NumNodes()
			bi := NewBiBFS(n)
			pick := rand2.New(rand2.NewPCG(1, 1))
			var pairs [][2]graph.Node
			for len(pairs) < 4096 {
				s, u := graph.Node(pick.IntN(n)), graph.Node(pick.IntN(n))
				if d, _, ok := bi.Query(g, s, u); ok && d >= 4 {
					pairs = append(pairs, [2]graph.Node{s, u})
				}
			}
			rng := rand2.New(rand2.NewPCG(2, 2))
			var path []graph.Node
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				p := pairs[i%len(pairs)]
				d, _, ok := bi.Query(g, p[0], p[1])
				path = bi.SamplePathAppend(g, rng, path)
				if !ok || len(path) != int(d)+1 || path[0] != p[0] || path[d] != p[1] {
					b.Fatalf("pair %v: dist %d ok %v, path %v", p, d, ok, path)
				}
			}
		})
	}
}
