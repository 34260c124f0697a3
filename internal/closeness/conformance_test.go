//go:build conformance

package closeness

import (
	"context"
	"fmt"
	"math"
	"testing"

	"saphyra/internal/datasets"
	"saphyra/internal/graph"
	"saphyra/internal/testutil"
)

// TestConformanceClosenessFailureRate tests the estimator's guarantee as a
// statistic: every harmonic closeness estimate is within eps of the exact
// value with probability at least 1-delta. For each stand-in and eps it
// runs R seeds, each on its own random 100-node subset, counts the runs
// where any target misses by more than eps, and requires that count to stay
// within the 99.9% quantile of Binomial(R, delta). Run with
//
//	go test -tags conformance -run Conformance ./internal/closeness/
func TestConformanceClosenessFailureRate(t *testing.T) {
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
		truth := Exact(g)
		eng := NewEngine(g)
		subsets := datasets.RandomSubsets(g.NumNodes(), size, runs, 17)
		for _, eps := range []float64{0.05, 0.2} {
			t.Run(fmt.Sprintf("%s/eps=%g", nw.Name, eps), func(t *testing.T) {
				failed := 0
				worst := 0.0
				var samples int64
				var res Result
				for r, a := range subsets {
					if err := eng.EstimateInto(context.Background(), a, Options{Epsilon: eps, Delta: delta, Seed: int64(r + 1), Workers: 2}, &res); err != nil {
						t.Fatal(err)
					}
					samples += res.Samples
					miss := false
					for i, v := range res.Nodes {
						d := math.Abs(res.Closeness[i] - truth[v])
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

// TestConformanceClosenessUnbiased tests that the estimator converges to
// c(v) itself, the exact distance-1 term included: the mean estimate over
// R seeds, on one fixed 100-target subset of a social and a road stand-in
// at scale 0.25, must lie within 5 standard errors of Exact for every
// target. The fixed-point loss sits below 1/d by less than 2^-32, so the
// tolerance has a 1e-9 floor, which also covers targets whose sampled loss
// never varies. A miss names a bias the (eps, delta) check would hide
// behind eps. Run with
//
//	go test -tags conformance -run Conformance ./internal/closeness/
func TestConformanceClosenessUnbiased(t *testing.T) {
	const (
		scale = 0.25
		size  = 100
		runs  = 200
		eps   = 0.05
		delta = 0.01
		floor = 1e-9
	)
	for _, nw := range []datasets.Network{datasets.Flickr, datasets.USARoad} {
		t.Run(nw.Name, func(t *testing.T) {
			g := nw.Build(scale)
			truth := Exact(g)
			eng := NewEngine(g)
			a := datasets.RandomSubsets(g.NumNodes(), size, 1, 31)[0]
			var sum, sumSq []float64
			var nodes []graph.Node
			var res Result
			var samples int64
			for r := range runs {
				if err := eng.EstimateInto(context.Background(), a, Options{Epsilon: eps, Delta: delta, Seed: int64(r + 1), Workers: 2}, &res); err != nil {
					t.Fatal(err)
				}
				if nodes == nil {
					nodes = append(nodes, res.Nodes...)
					sum = make([]float64, len(nodes))
					sumSq = make([]float64, len(nodes))
				}
				samples += res.Samples
				for i, x := range res.Closeness {
					sum[i] += x
					sumSq[i] += x * x
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
			t.Logf("%d nodes, %d targets, R = %d, mean samples %d: max |mean - exact| / tolerance = %.3f",
				g.NumNodes(), len(nodes), runs, samples/runs, worst)
		})
	}
}
