//go:build conformance

package closeness

import (
	"context"
	"fmt"
	"math"
	"testing"

	"saphyra/internal/datasets"
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
