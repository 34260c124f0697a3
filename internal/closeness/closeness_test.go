package closeness

import (
	"context"

	"math"
	"testing"

	"saphyra/internal/graph"
	"saphyra/internal/rank"
	"saphyra/internal/testutil"
)

func TestExactPath(t *testing.T) {
	// P3: ends have (1 + 1/2)/2 = 0.75, middle has (1+1)/2 = 1.
	g := graph.Path(3)
	c := Exact(g)
	if math.Abs(c[0]-0.75) > 1e-12 || math.Abs(c[2]-0.75) > 1e-12 {
		t.Errorf("ends = %g, %g, want 0.75", c[0], c[2])
	}
	if math.Abs(c[1]-1) > 1e-12 {
		t.Errorf("middle = %g, want 1", c[1])
	}
}

func TestExactDisconnected(t *testing.T) {
	b := graph.NewBuilder(4)
	b.AddEdge(0, 1)
	g := b.Build()
	c := Exact(g)
	// each of {0,1} reaches only the other: 1/(n-1) = 1/3
	if math.Abs(c[0]-1.0/3) > 1e-12 {
		t.Errorf("c[0] = %g, want 1/3", c[0])
	}
	if c[2] != 0 || c[3] != 0 {
		t.Error("isolated nodes should have closeness 0")
	}
}

func TestEstimateWithinEpsilon(t *testing.T) {
	for seed := int64(0); seed < 4; seed++ {
		g := testutil.RandomConnectedGraph(40, 40, seed)
		truth := Exact(g)
		var a []graph.Node
		for v := 0; v < 40; v += 4 {
			a = append(a, graph.Node(v))
		}
		res, err := Estimate(context.Background(), g, a, Options{Epsilon: 0.05, Delta: 0.01, Seed: seed, Workers: 2})
		if err != nil {
			t.Fatal(err)
		}
		for i, v := range res.Nodes {
			if math.Abs(res.Closeness[i]-truth[v]) > 0.05 {
				t.Errorf("seed %d node %d: est %g truth %g", seed, v, res.Closeness[i], truth[v])
			}
		}
	}
}

func TestEstimateRankQuality(t *testing.T) {
	g := graph.BarabasiAlbert(200, 3, 6)
	truth := Exact(g)
	var a []graph.Node
	var truthA []float64
	var ids []int32
	for v := 0; v < 200; v += 5 {
		a = append(a, graph.Node(v))
		truthA = append(truthA, truth[v])
		ids = append(ids, int32(v))
	}
	res, err := Estimate(context.Background(), g, a, Options{Epsilon: 0.02, Delta: 0.01, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	rho := rank.Spearman(truthA, res.Closeness, ids)
	if rho < 0.9 {
		t.Errorf("closeness rank correlation = %g, want >= 0.9", rho)
	}
}

func TestEstimateErrors(t *testing.T) {
	g := graph.Cycle(5)
	if _, err := Estimate(context.Background(), g, nil, Options{}); err == nil {
		t.Error("empty targets: want error")
	}
	if _, err := Estimate(context.Background(), g, []graph.Node{0}, Options{Epsilon: 2}); err == nil {
		t.Error("bad epsilon: want error")
	}
	tiny := graph.NewBuilder(1).Build()
	if _, err := Estimate(context.Background(), tiny, []graph.Node{0}, Options{}); err == nil {
		t.Error("tiny graph: want error")
	}
}

func TestEstimateMaxSamplesCap(t *testing.T) {
	g := graph.Cycle(30)
	res, err := Estimate(context.Background(), g, []graph.Node{0, 7, 15}, Options{Epsilon: 0.01, Delta: 0.01, Seed: 1, MaxSamples: 100})
	if err != nil {
		t.Fatal(err)
	}
	if res.Samples > 100 {
		t.Errorf("samples = %d exceeds cap", res.Samples)
	}
}

// TestBudgetSaturatesAtTinyEps: below eps 1e-9 the uncapped budget is past
// 2^63. It must saturate: a first round of more than one sample, a cap at
// or above it, and no negative count.
func TestBudgetSaturatesAtTinyEps(t *testing.T) {
	for _, eps := range []float64{1e-9, 3e-10, 1e-12} {
		n0, nmax := budget(eps, 0.01, 2, 0)
		if n0 <= 1 || nmax < n0 {
			t.Errorf("eps %g: n0 %d, nmax %d; want n0 > 1 and nmax >= n0", eps, n0, nmax)
		}
	}
}

// TestEstimateTinyEpsDrawsMaxSamples: at eps 1e-10 the budget is past 2^63,
// so the call must run to its MaxSamples cap. A budget that wrapped to one
// sample returned after a single draw with 0.5 for a true 0.75.
func TestEstimateTinyEpsDrawsMaxSamples(t *testing.T) {
	res, err := Estimate(context.Background(), graph.Cycle(5), []graph.Node{0, 1},
		Options{Epsilon: 1e-10, Delta: 0.01, Seed: 1, MaxSamples: 4096})
	if err != nil {
		t.Fatal(err)
	}
	if res.Samples != 4096 {
		t.Errorf("samples = %d, want the cap 4096", res.Samples)
	}
}

func TestEstimateDeterministic(t *testing.T) {
	g := graph.BarabasiAlbert(100, 3, 4)
	opt := Options{Epsilon: 0.05, Delta: 0.05, Seed: 21, Workers: 2}
	a := []graph.Node{1, 2, 3}
	r1, err := Estimate(context.Background(), g, a, opt)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := Estimate(context.Background(), g, a, opt)
	if err != nil {
		t.Fatal(err)
	}
	for i := range r1.Closeness {
		if r1.Closeness[i] != r2.Closeness[i] {
			t.Error("nondeterministic closeness estimate")
		}
	}
}

// TestEstimateUnbiased: the estimate's mean over seeds converges to c(v)
// as Exact and the package doc define it, with 1/(n-1). Sources are drawn
// from all n nodes, the target itself included, so an estimator that
// averaged 1/d over the samples alone would converge to (n-1)/n * c(v):
// on Cycle(10) at eps 0.005 that read a mean of 0.43694 against an exact
// 0.48519, many standard errors away. Each target's mean over the seeds
// must lie within 5 standard errors of Exact (plus 1e-9 for the
// fixed-point rounding). A star's center has only distance-1 sources, all
// counted exactly, so its estimate is exactly 1 at every seed.
func TestEstimateUnbiased(t *testing.T) {
	const runs = 40
	for _, tc := range []struct {
		name string
		g    *graph.Graph
		eps  float64
	}{
		{"cycle-10", graph.Cycle(10), 0.005},
		{"ba-60", graph.BarabasiAlbert(60, 2, 3), 0.02},
		{"star-12", graph.Star(12), 0.02},
	} {
		t.Run(tc.name, func(t *testing.T) {
			truth := Exact(tc.g)
			a := allNodes(tc.g)
			eng := NewEngine(tc.g)
			sum, sumSq := make([]float64, len(a)), make([]float64, len(a))
			var res Result
			for r := range runs {
				opt := Options{Epsilon: tc.eps, Delta: 0.1, Seed: int64(r + 1), Workers: 1}
				if err := eng.EstimateInto(context.Background(), a, opt, &res); err != nil {
					t.Fatal(err)
				}
				for i, x := range res.Closeness {
					sum[i] += x
					sumSq[i] += x * x
					if tc.g.Degree(a[i]) == len(a)-1 && x != 1 {
						t.Fatalf("seed %d: node %d neighbors every node but reads %v, want exactly 1", r+1, a[i], x)
					}
				}
			}
			worst := 0.0
			for i, v := range a {
				mean := sum[i] / runs
				sd := math.Sqrt(max(sumSq[i]/runs-mean*mean, 0) * runs / (runs - 1))
				ratio := math.Abs(mean-truth[v]) / (sd/math.Sqrt(runs) + 1e-9)
				worst = max(worst, ratio)
				if ratio > 5 {
					t.Errorf("node %d: mean of %d estimates %.6f, exact %.6f, sd %.3g: %.1f standard errors off",
						v, runs, mean, truth[v], sd, ratio)
				}
			}
			t.Logf("worst |mean - exact| over %d targets: %.2f standard errors", len(a), worst)
		})
	}
}
