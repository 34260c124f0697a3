//go:build conformance

package core

import (
	"context"
	"fmt"
	"math"
	"testing"

	"saphyra/internal/datasets"
	"saphyra/internal/exact"
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
	limit := binomialQuantile(runs, delta, level)
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

// binomialQuantile returns the smallest c with P(X <= c) >= q for
// X ~ Binomial(n, p).
func binomialQuantile(n int, p, q float64) int {
	lg, _ := math.Lgamma(float64(n + 1))
	cdf := 0.0
	for c := 0; c <= n; c++ {
		lc, _ := math.Lgamma(float64(c + 1))
		lr, _ := math.Lgamma(float64(n - c + 1))
		cdf += math.Exp(lg - lc - lr + float64(c)*math.Log(p) + float64(n-c)*math.Log1p(-p))
		if cdf >= q {
			return c
		}
	}
	return n
}
