package baselines

import (
	"context"

	"math"
	"testing"

	"saphyra/internal/exact"
	"saphyra/internal/graph"
	"saphyra/internal/testutil"
)

func checkWithinEps(t *testing.T, name string, got, want []float64, eps float64) {
	t.Helper()
	for v := range want {
		if math.Abs(got[v]-want[v]) > eps {
			t.Errorf("%s: node %d est %g truth %g (> eps %g)", name, v, got[v], want[v], eps)
		}
	}
}

func TestABRAWithinEpsilon(t *testing.T) {
	for seed := int64(0); seed < 5; seed++ {
		g := testutil.RandomConnectedGraph(40, 50, seed)
		truth := exact.BC(g)
		res, err := ABRA(context.Background(), g, Options{Epsilon: 0.05, Delta: 0.01, Seed: seed, Workers: 2})
		if err != nil {
			t.Fatal(err)
		}
		checkWithinEps(t, "abra", res.BC, truth, 0.05)
	}
}

func TestKADABRAWithinEpsilon(t *testing.T) {
	for seed := int64(0); seed < 5; seed++ {
		g := testutil.RandomConnectedGraph(40, 50, seed)
		truth := exact.BC(g)
		res, err := KADABRA(context.Background(), g, Options{Epsilon: 0.05, Delta: 0.01, Seed: seed, Workers: 2})
		if err != nil {
			t.Fatal(err)
		}
		checkWithinEps(t, "kadabra", res.BC, truth, 0.05)
	}
}

func TestABRAStar(t *testing.T) {
	g := graph.Star(15)
	truth := exact.BC(g)
	res, err := ABRA(context.Background(), g, Options{Epsilon: 0.05, Delta: 0.01, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.BC[0]-truth[0]) > 0.05 {
		t.Errorf("center est %g truth %g", res.BC[0], truth[0])
	}
	for v := 1; v < 15; v++ {
		if res.BC[v] != 0 {
			t.Errorf("leaf %d est %g, want 0", v, res.BC[v])
		}
	}
}

func TestKADABRADisconnected(t *testing.T) {
	b := graph.NewBuilder(10)
	for i := 0; i < 4; i++ {
		b.AddEdge(graph.Node(i), graph.Node(i+1))
	}
	b.AddEdge(6, 7)
	b.AddEdge(7, 8)
	g := b.Build()
	truth := exact.BC(g)
	res, err := KADABRA(context.Background(), g, Options{Epsilon: 0.05, Delta: 0.01, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	checkWithinEps(t, "kadabra", res.BC, truth, 0.05)
}

func TestABRADisconnected(t *testing.T) {
	b := graph.NewBuilder(8)
	b.AddEdge(0, 1)
	b.AddEdge(1, 2)
	b.AddEdge(4, 5)
	b.AddEdge(5, 6)
	g := b.Build()
	truth := exact.BC(g)
	res, err := ABRA(context.Background(), g, Options{Epsilon: 0.05, Delta: 0.01, Seed: 8})
	if err != nil {
		t.Fatal(err)
	}
	checkWithinEps(t, "abra", res.BC, truth, 0.05)
}

func TestBaselinesRejectBadOptions(t *testing.T) {
	g := graph.Cycle(5)
	for _, opt := range []Options{
		{Epsilon: -0.1, Delta: 0.1},
		{Epsilon: 0.1, Delta: 2},
	} {
		if _, err := ABRA(context.Background(), g, opt); err == nil {
			t.Errorf("ABRA %+v: want error", opt)
		}
		if _, err := KADABRA(context.Background(), g, opt); err == nil {
			t.Errorf("KADABRA %+v: want error", opt)
		}
	}
}

func TestBaselinesTinyGraph(t *testing.T) {
	g := graph.Path(2)
	for name, f := range map[string]func(context.Context, *graph.Graph, Options) (*Result, error){"abra": ABRA, "kadabra": KADABRA} {
		res, err := f(context.Background(), g, Options{Epsilon: 0.1, Delta: 0.1, Seed: 1})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if res.BC[0] != 0 || res.BC[1] != 0 {
			t.Errorf("%s: P2 bc = %v, want zeros", name, res.BC)
		}
	}
	empty := graph.NewBuilder(1).Build()
	if res, err := ABRA(context.Background(), empty, Options{Epsilon: 0.1, Delta: 0.1}); err != nil || len(res.BC) != 1 {
		t.Errorf("single-node graph: res=%v err=%v", res, err)
	}
}

// TestKADABRADeterministic holds both baselines to the virtual-worker
// contract: a fixed seed gives the same bits at every worker count. At
// eps 0.02 the first round draws several thousand samples, so every round
// is split across all the streams and run on several goroutines.
func TestKADABRADeterministic(t *testing.T) {
	graphs := []struct {
		name string
		g    *graph.Graph
	}{
		{"ba-500", graph.BarabasiAlbert(500, 3, 11)},
		{"road-18x18", graph.RoadNetwork(18, 18, 0.3, 5)},
	}
	algs := []struct {
		name string
		run  func(context.Context, *graph.Graph, Options) (*Result, error)
	}{
		{"abra", ABRA},
		{"kadabra", KADABRA},
	}
	for _, alg := range algs {
		for _, tg := range graphs {
			t.Run(alg.name+"/"+tg.name, func(t *testing.T) {
				var ref *Result
				for _, w := range []int{1, 2, 3, 8} {
					res, err := alg.run(context.Background(), tg.g, Options{Epsilon: 0.02, Delta: 0.05, Seed: 9, Workers: w})
					if err != nil {
						t.Fatal(err)
					}
					if ref == nil {
						ref = res
						continue
					}
					if res.Samples != ref.Samples || res.Rounds != ref.Rounds {
						t.Fatalf("workers %d: %d samples in %d rounds, workers 1: %d in %d", w, res.Samples, res.Rounds, ref.Samples, ref.Rounds)
					}
					for v := range ref.BC {
						if math.Float64bits(res.BC[v]) != math.Float64bits(ref.BC[v]) {
							t.Fatalf("workers %d: node %d est %v, workers 1: %v", w, v, res.BC[v], ref.BC[v])
						}
					}
				}
			})
		}
	}
}

func TestABRAMaxSamplesCap(t *testing.T) {
	g := graph.BarabasiAlbert(60, 3, 1)
	res, err := ABRA(context.Background(), g, Options{Epsilon: 0.01, Delta: 0.01, Seed: 1, MaxSamples: 200})
	if err != nil {
		t.Fatal(err)
	}
	if res.Samples > 200 {
		t.Errorf("samples = %d exceeds cap", res.Samples)
	}
}

// The false-zero phenomenon (Fig 6): on a low-centrality-heavy graph at
// coarse epsilon, the baselines must estimate many positive-bc nodes as
// exactly zero. This is the behaviour SaPHyRa eliminates; the test pins it
// so the Fig 6 reproduction stays meaningful.
func TestKADABRAProducesFalseZeros(t *testing.T) {
	g := graph.RoadNetwork(20, 20, 0.3, 4)
	truth := exact.BC(g)
	res, err := KADABRA(context.Background(), g, Options{Epsilon: 0.1, Delta: 0.1, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	falseZeros := 0
	positives := 0
	for v := range truth {
		if truth[v] > 0 {
			positives++
			if res.BC[v] == 0 {
				falseZeros++
			}
		}
	}
	if positives == 0 {
		t.Fatal("fixture degenerate")
	}
	if falseZeros == 0 {
		t.Error("expected some false zeros from KADABRA at coarse epsilon")
	}
}

// TestABRASampleAllocatesNothing: once its level buckets have grown, an
// ABRA sample (a BFS truncated at t's level and the two walks of the s-t
// sub-DAG) allocates nothing.
func TestABRASampleAllocatesNothing(t *testing.T) {
	g := graph.BarabasiAlbert(2000, 3, 5)
	a := newABRAScratch(g)
	rng := newRNG(3)
	acc, accSq := make([]float64, g.NumNodes()), make([]float64, g.NumNodes())
	for range 2000 {
		a.sample(rng, acc, accSq)
	}
	if allocs := testing.AllocsPerRun(200, func() { a.sample(rng, acc, accSq) }); allocs != 0 {
		t.Errorf("ABRA sample allocates %.2f times, want 0", allocs)
	}
}
