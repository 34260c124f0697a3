//go:build conformance

package core

import (
	"context"
	"fmt"
	"math"
	"testing"

	"saphyra/internal/datasets"
	"saphyra/internal/exact"
	"saphyra/internal/graph"
	"saphyra/internal/testutil"
)

// TestConformanceBCFailureRate tests the paper's guarantee as a statistic:
// every SaPHyRa_bc estimate is within eps of exact betweenness with
// probability at least 1-delta. For each stand-in and eps it runs R seeds,
// each on its own random 100-node subset, counts the runs where any target
// misses by more than eps, and requires that count to stay within the
// 99.9% quantile of Binomial(R, delta): delta*R plus the binomial's upper
// deviation. Run with
//
//	go test -tags conformance -run Conformance ./internal/core/
func TestConformanceBCFailureRate(t *testing.T) {
	const (
		scale = 0.25
		size  = 100
		runs  = 40
		delta = 0.01
		level = 0.999
	)
	limit := testutil.BinomialQuantile(runs, delta, level)
	t.Logf("R = %d, delta = %g: at most %d failing runs allowed (delta*R = %g)", runs, delta, limit, delta*runs)
	for _, nw := range datasets.All {
		g := nw.Build(scale)
		truth := exact.BC(g)
		prep := PreprocessBC(g)
		subsets := datasets.RandomSubsets(g.NumNodes(), size, runs, 17)
		for _, eps := range []float64{0.05, 0.2} {
			t.Run(fmt.Sprintf("%s/eps=%g", nw.Name, eps), func(t *testing.T) {
				failed := 0
				worst := 0.0
				var samples int64
				for r, a := range subsets {
					res, err := prep.EstimateBC(context.Background(), a, BCOptions{Epsilon: eps, Delta: delta, Seed: int64(r + 1), Workers: 2})
					if err != nil {
						t.Fatal(err)
					}
					if res.Est != nil {
						samples += res.Est.Samples
					}
					miss := false
					for i, v := range res.Nodes {
						d := math.Abs(res.BC[i] - truth[v])
						worst = math.Max(worst, d)
						miss = miss || d > eps
					}
					if miss {
						failed++
					}
				}
				t.Logf("%d nodes: %d/%d runs failed, max |error|/eps = %.4f, mean samples %d",
					g.NumNodes(), failed, runs, worst/eps, samples/runs)
				if failed > limit {
					t.Errorf("%d of %d runs missed eps = %g; the binomial 99.9%% bound at delta = %g allows %d",
						failed, runs, eps, delta, limit)
				}
			})
		}
	}
}

// TestConformanceBCUnbiased tests the sampler's mean, not just its spread:
// over R seeds on one stand-in and one fixed 100-target subset, the mean
// SaPHyRa_bc estimate of each target must sit within 5 standard errors of
// its exact betweenness. The road stand-in puts most sampled pairs at
// distance >= 4, where stage 4 runs a bidirectional BFS. The absolute
// floor, eps/5000, covers targets so rarely hit that only a few of the R
// runs see a hit at all: there the sample sd misjudges the spread of the
// mean.
// A change to how stage 4 draws a path that favored some shortest paths
// over others would shift these means while every single run still met
// eps.
func TestConformanceBCUnbiased(t *testing.T) {
	const (
		scale = 0.25
		size  = 100
		runs  = 200
		eps   = 0.05
		delta = 0.01
		floor = eps / 5000
	)
	g := datasets.USARoad.Build(scale)
	truth := exact.BC(g)
	prep := PreprocessBC(g)
	a := datasets.RandomSubsets(g.NumNodes(), size, 1, 29)[0]
	var sum, sumSq []float64
	var nodes []graph.Node
	for r := range runs {
		res, err := prep.EstimateBC(context.Background(), a, BCOptions{Epsilon: eps, Delta: delta, Seed: int64(r + 1), Workers: 2})
		if err != nil {
			t.Fatal(err)
		}
		if nodes == nil {
			nodes = res.Nodes
			sum = make([]float64, len(nodes))
			sumSq = make([]float64, len(nodes))
		}
		for i, v := range res.BC {
			sum[i] += v
			sumSq[i] += v * v
		}
	}
	worst := 0.0
	for i, v := range nodes {
		mean := sum[i] / runs
		sd := math.Sqrt(max(0, (sumSq[i]-runs*mean*mean)/(runs-1)))
		tol := 5*sd/math.Sqrt(runs) + floor
		d := math.Abs(mean - truth[v])
		worst = math.Max(worst, d/tol)
		if d > tol {
			t.Errorf("node %d: mean estimate %.6g over %d seeds, exact %.6g, |diff| %.3g > 5 sd/sqrt(R) + %g = %.3g",
				v, mean, runs, truth[v], d, floor, tol)
		}
	}
	t.Logf("%d nodes, %d targets, R = %d: max |mean - exact| / tolerance = %.3f", g.NumNodes(), len(nodes), runs, worst)
}
