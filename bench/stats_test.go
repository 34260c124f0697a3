package main

import (
	"math"
	"slices"
	"testing"
)

func TestTailPercentileRule(t *testing.T) {
	// A tail percentile needs ten samples beyond it: p90 from 100 samples,
	// p95 from 200, p99 from 1,000.
	for _, c := range []struct {
		n    int
		q    float64
		want int
	}{{100, 0.9, 10}, {99, 0.9, 9}, {200, 0.95, 10}, {1000, 0.99, 10}, {999, 0.99, 9}} {
		if got := beyond(c.n, c.q); got != c.want {
			t.Errorf("beyond(%d, %g) = %d, want %d", c.n, c.q, got, c.want)
		}
	}

	// Failures enter as +Inf: 10 of 1000 failing put p99 at the slowest
	// success, 11 put it at +Inf.
	for _, c := range []struct {
		failed int
		inf    bool
	}{{10, false}, {11, true}} {
		v := make([]float64, 1000)
		for i := range v {
			v[i] = float64(i)
		}
		for i := 0; i < c.failed; i++ {
			v[i] = math.Inf(1)
		}
		slices.Sort(v)
		if got := quantile(v, 0.99); math.IsInf(got, 1) != c.inf {
			t.Errorf("%d failures: p99 = %g", c.failed, got)
		}
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// Reference values from Python's statistics.quantiles(v, n=4).
	for _, c := range []struct {
		v    []float64
		want [3]float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{1, 2, 3}, [3]float64{1, 2, 3}},
		{[]float64{3, 1}, [3]float64{0.5, 2, 3.5}},
		{[]float64{5, 1.5, 2.25, 9, 4, 7.5, 3}, [3]float64{2.25, 4, 7.5}},
	} {
		if got := quartiles(c.v); got != c.want {
			t.Errorf("quartiles(%v) = %v, want %v", c.v, got, c.want)
		}
		if got := median(c.v); got != c.want[1] {
			t.Errorf("median(%v) = %g, want %g", c.v, got, c.want[1])
		}
	}
}
