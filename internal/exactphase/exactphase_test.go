package exactphase

import (
	"context"

	"math"
	"math/rand/v2"
	"sync"
	"testing"

	"saphyra/internal/bicomp"
	"saphyra/internal/graph"
)

func newEngine(t testing.TB, g *graph.Graph) *Engine {
	t.Helper()
	v := bicomp.NewBlockCSR(g)
	if err := v.Validate(); err != nil {
		t.Fatal(err)
	}
	return New(v)
}

// fixture returns a target set, its index map, and w_A for the graph.
func fixture(g *graph.Graph, stride int) (targets []graph.Node, aIndex []int32, wA float64, o *bicomp.OutReach) {
	d := bicomp.Decompose(g)
	o = bicomp.NewOutReach(d)
	n := g.NumNodes()
	aIndex = make([]int32, n)
	for i := range aIndex {
		aIndex[i] = -1
	}
	for v := 0; v < n; v += stride {
		aIndex[v] = int32(len(targets))
		targets = append(targets, graph.Node(v))
	}
	wA = o.WeightOfBlocks(o.BlocksOf(targets))
	return targets, aIndex, wA, o
}

// bruteExact is the naive reference: enumerate every ordered node pair (s,t)
// at distance exactly 2, count sigma_st as the number of common neighbors,
// and for every common middle v in A whose two edges share a block,
// accumulate r_b(s) r_b(t) / (sigma_st wA). Written pair-first — the
// opposite iteration order of the engine — straight from Eq 29.
func bruteExact(g *graph.Graph, o *bicomp.OutReach, aIndex []int32, wA float64, k int) (float64, []float64) {
	d := o.D
	n := g.NumNodes()
	exact := make([]float64, k)
	var lambda float64
	for s := graph.Node(0); int(s) < n; s++ {
		for t := graph.Node(0); int(t) < n; t++ {
			if s == t || g.HasEdge(s, t) {
				continue
			}
			var commons []graph.Node
			for _, v := range g.Neighbors(s) {
				if g.HasEdge(v, t) {
					commons = append(commons, v)
				}
			}
			if len(commons) == 0 {
				continue
			}
			sigma := float64(len(commons))
			for _, v := range commons {
				ai := aIndex[v]
				if ai < 0 {
					continue
				}
				b := d.BlockOfEdge(s, v)
				if b < 0 || b != d.BlockOfEdge(v, t) {
					continue
				}
				mass := float64(o.Of(b, s)) * float64(o.Of(b, t)) / (sigma * wA)
				exact[ai] += mass
				lambda += mass
			}
		}
	}
	return lambda, exact
}

// pendantHeavy attaches leaf chains to a small core: most blocks are size-2
// pendant edges and most nodes are cutpoints — the regime the run-length
// grouping targets.
func pendantHeavy(n int, seed uint64) *graph.Graph {
	rng := rand.New(rand.NewPCG(seed, 0x9e3779b97f4a7c15))
	core := n / 4
	b := graph.NewBuilder(n)
	for i := 1; i < core; i++ {
		b.AddEdge(graph.Node(i), graph.Node(rng.IntN(i)))
	}
	for e := 0; e < core; e++ {
		b.AddEdge(graph.Node(rng.IntN(core)), graph.Node(rng.IntN(core)))
	}
	for v := core; v < n; v++ {
		b.AddEdge(graph.Node(v), graph.Node(rng.IntN(core)))
	}
	return b.Build()
}

// TestEngineMatchesBruteForce is the differential test: the run-length
// engine must agree with the naive pair-first enumerator on every graph
// family the paper evaluates (scale-free, road-like, pendant-heavy).
func TestEngineMatchesBruteForce(t *testing.T) {
	cases := []struct {
		name string
		g    *graph.Graph
	}{
		{"ba", graph.BarabasiAlbert(220, 3, 1)},
		{"road", graph.RoadNetwork(14, 14, 0.3, 2)},
		{"pendant", pendantHeavy(240, 3)},
		{"tree", graph.RandomTree(150, 4)},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			for _, stride := range []int{1, 3, 7} {
				targets, aIndex, wA, o := fixture(tc.g, stride)
				if wA == 0 {
					t.Fatalf("stride %d: degenerate fixture", stride)
				}
				e := newEngine(t, tc.g)
				gotL, gotE, _ := e.Run(context.Background(), targets, aIndex, wA, 4)
				wantL, wantE := bruteExact(tc.g, o, aIndex, wA, len(targets))
				if math.Abs(gotL-wantL) > 1e-9*(1+math.Abs(wantL)) {
					t.Errorf("stride %d: lambdaHat %g, brute force %g", stride, gotL, wantL)
				}
				for i := range gotE {
					if math.Abs(gotE[i]-wantE[i]) > 1e-9*(1+wantE[i]) {
						t.Errorf("stride %d: exact[%d] = %g, brute force %g", stride, i, gotE[i], wantE[i])
					}
				}
			}
		})
	}
}

// TestEngineWorkerCountBitwise: any worker count must produce
// bitwise-identical output — the chunking is worker-independent and the
// merge is in chunk order.
func TestEngineWorkerCountBitwise(t *testing.T) {
	for _, g := range []*graph.Graph{
		graph.BarabasiAlbert(400, 4, 7),
		pendantHeavy(400, 8),
		graph.RoadNetwork(18, 18, 0.25, 9),
	} {
		targets, aIndex, wA, _ := fixture(g, 5)
		e := newEngine(t, g)
		refL, refE, _ := e.Run(context.Background(), targets, aIndex, wA, 1)
		for _, workers := range []int{2, 8} {
			l, ex, _ := e.Run(context.Background(), targets, aIndex, wA, workers)
			if l != refL {
				t.Errorf("workers=%d: lambdaHat %v != %v (not bitwise identical)", workers, l, refL)
			}
			for i := range ex {
				if ex[i] != refE[i] {
					t.Errorf("workers=%d: exact[%d] %v != %v", workers, i, ex[i], refE[i])
				}
			}
		}
		// and repeated runs through the pooled scratch stay identical
		l, _, _ := e.Run(context.Background(), targets, aIndex, wA, 8)
		if l != refL {
			t.Errorf("repeat run: lambdaHat %v != %v", l, refL)
		}
	}
}

// TestEngineRunIntoReuse: RunInto must zero the destination and match Run.
func TestEngineRunIntoReuse(t *testing.T) {
	g := graph.BarabasiAlbert(300, 3, 5)
	targets, aIndex, wA, _ := fixture(g, 4)
	e := newEngine(t, g)
	wantL, wantE, _ := e.Run(context.Background(), targets, aIndex, wA, 2)
	dst := make([]float64, len(targets))
	for i := range dst {
		dst[i] = math.NaN() // must be overwritten
	}
	gotL, _ := e.RunInto(context.Background(), dst, targets, aIndex, wA, 2)
	if gotL != wantL {
		t.Fatalf("RunInto lambda %v != Run %v", gotL, wantL)
	}
	for i := range dst {
		if dst[i] != wantE[i] {
			t.Fatalf("RunInto exact[%d] %v != %v", i, dst[i], wantE[i])
		}
	}
}

// TestEngineConcurrentRuns exercises the cost-weighted scheduler and the
// scratch pools under the race detector: several goroutines run overlapping
// multi-worker evaluations on one shared engine.
func TestEngineConcurrentRuns(t *testing.T) {
	g := graph.BarabasiAlbert(500, 4, 11)
	e := newEngine(t, g)
	targets, aIndex, wA, _ := fixture(g, 3)
	refL, refE, _ := e.Run(context.Background(), targets, aIndex, wA, 1)
	var wg sync.WaitGroup
	for r := 0; r < 6; r++ {
		wg.Add(1)
		go func(workers int) {
			defer wg.Done()
			l, ex, _ := e.Run(context.Background(), targets, aIndex, wA, workers)
			if l != refL {
				t.Errorf("concurrent run (workers=%d): lambda %v != %v", workers, l, refL)
			}
			for i := range ex {
				if ex[i] != refE[i] {
					t.Errorf("concurrent run (workers=%d): exact[%d] differs", workers, i)
					break
				}
			}
		}(1 + r%4)
	}
	wg.Wait()
}

// TestEngineEdgeCases: empty targets, isolated nodes, zero mass.
func TestEngineEdgeCases(t *testing.T) {
	b := graph.NewBuilder(6)
	b.AddEdge(0, 1)
	b.AddEdge(1, 2)
	b.SetNumNodes(6) // nodes 3..5 isolated
	g := b.Build()
	e := newEngine(t, g)
	aIndex := make([]int32, 6)
	for i := range aIndex {
		aIndex[i] = -1
	}
	if l := mustRun(t, e, nil, aIndex, 1.0); l != 0 {
		t.Errorf("empty targets: lambda %v", l)
	}
	aIndex[4] = 0
	if l := mustRun(t, e, []graph.Node{4}, aIndex, 1.0); l != 0 {
		t.Errorf("isolated target: lambda %v", l)
	}
	aIndex[4] = -1
	aIndex[1] = 0
	if l := mustRun(t, e, []graph.Node{1}, aIndex, 0); l != 0 {
		t.Errorf("zero wA: lambda %v", l)
	}
}

func mustRun(t *testing.T, e *Engine, targets []graph.Node, aIndex []int32, wA float64) float64 {
	t.Helper()
	l, _, _ := e.Run(context.Background(), targets, aIndex, wA, 2)
	return l
}
