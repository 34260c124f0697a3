package closeness

import (
	"math"
	"testing"
)

// meanVar is the float accumulator of the estimator before its sums became
// fixed point: a running sum and sum of squares of bounded samples, for
// the mean and the unbiased sample variance. Only the float reference
// (floatAccs) uses it.
type meanVar struct {
	n          int64
	sum, sumSq float64
}

// Add records one sample.
func (m *meanVar) Add(x float64) {
	m.n++
	m.sum += x
	m.sumSq += x * x
}

// N returns the number of recorded samples.
func (m *meanVar) N() int64 { return m.n }

// Mean returns the sample mean (0 when empty).
func (m *meanVar) Mean() float64 {
	if m.n == 0 {
		return 0
	}
	return m.sum / float64(m.n)
}

// Variance returns the unbiased sample variance (0 for n < 2).
func (m *meanVar) Variance() float64 {
	if m.n < 2 {
		return 0
	}
	v := (m.sumSq - m.sum*m.sum/float64(m.n)) / float64(m.n-1)
	if v < 0 { // float round-off
		return 0
	}
	return v
}

// Merge folds another accumulator into m (for parallel workers).
func (m *meanVar) Merge(o *meanVar) {
	m.n += o.n
	m.sum += o.sum
	m.sumSq += o.sumSq
}

func TestMeanVarBasics(t *testing.T) {
	var m meanVar
	for _, x := range []float64{1, 2, 3, 4} {
		m.Add(x)
	}
	if m.N() != 4 {
		t.Errorf("N = %d", m.N())
	}
	if math.Abs(m.Mean()-2.5) > 1e-15 {
		t.Errorf("mean = %g", m.Mean())
	}
	// sample variance of 1..4 = 5/3
	if math.Abs(m.Variance()-5.0/3) > 1e-12 {
		t.Errorf("var = %g, want %g", m.Variance(), 5.0/3)
	}
}

func TestMeanVarMerge(t *testing.T) {
	var a, b, all meanVar
	xs := []float64{0.2, 0.9, 0.4, 0.7, 0.1, 0.5}
	for i, x := range xs {
		all.Add(x)
		if i%2 == 0 {
			a.Add(x)
		} else {
			b.Add(x)
		}
	}
	a.Merge(&b)
	if a.N() != all.N() {
		t.Fatalf("merged N = %d, want %d", a.N(), all.N())
	}
	if math.Abs(a.Mean()-all.Mean()) > 1e-15 || math.Abs(a.Variance()-all.Variance()) > 1e-12 {
		t.Error("merge result differs from direct accumulation")
	}
}

func TestMeanVarEmpty(t *testing.T) {
	var m meanVar
	if m.Mean() != 0 || m.Variance() != 0 {
		t.Error("empty accumulator should be zeros")
	}
}
