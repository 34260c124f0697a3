// Package stats implements the statistical machinery of the SaPHyRa
// framework: the empirical Bernstein inequality (Lemma 3, from Maurer &
// Pontil [13]), the VC sample-size bound (Lemma 4), and small accumulators
// used by the adaptive sampler.
package stats

import (
	"math"
)

// VCConstant is the constant c of Lemma 4 ("approximately 0.5").
const VCConstant = 0.5

// EpsilonBernstein returns the one-sided empirical Bernstein deviation bound
// of Lemma 3 for N samples with sample variance v and failure probability
// delta0:
//
//	eps = sqrt(2 v ln(2/delta0) / N) + 7 ln(2/delta0) / (3N).
//
// It panics on invalid inputs only via math functions (callers validate).
func EpsilonBernstein(n int64, delta0, variance float64) float64 {
	if n <= 0 || delta0 <= 0 {
		return math.Inf(1)
	}
	// ln(2/delta0) computed as ln 2 - ln delta0: the naive quotient
	// overflows to +Inf for subnormal delta0, which a union-bound split of
	// a tiny delta over many hypotheses and rounds can produce.
	l := math.Ln2 - math.Log(delta0)
	return math.Sqrt(2*variance*l/float64(n)) + 7*l/(3*float64(n))
}

// VCSampleSize returns the Lemma 4 sample budget sufficient for an
// (eps, delta)-estimation of a hypothesis class with VC dimension dim:
//
//	N = ceil( c/eps^2 * (dim + ln(1/delta)) ),  c = VCConstant.
func VCSampleSize(eps, delta float64, dim int) int64 {
	if eps <= 0 {
		return math.MaxInt64
	}
	n := VCConstant / (eps * eps) * (float64(dim) + math.Log(1/delta))
	if n < 1 {
		return 1
	}
	return int64(math.Ceil(n))
}

// UnionSampleSize returns the direct-estimation budget of Section II-A for k
// hypotheses: O(1/eps^2 (ln k + ln 1/delta)) with the same constant c, via a
// Hoeffding + union bound argument.
func UnionSampleSize(eps, delta float64, k int) int64 {
	if eps <= 0 {
		return math.MaxInt64
	}
	if k < 1 {
		k = 1
	}
	n := VCConstant / (eps * eps) * (math.Log(float64(k)) + math.Log(1/delta))
	if n < 1 {
		return 1
	}
	return int64(math.Ceil(n))
}

// BernoulliSampleVariance returns the unbiased sample variance of a 0/1
// vector with the given number of ones among n draws. It equals the paper's
// pairwise form Var(z) = sum_{j1<j2} (z_j1 - z_j2)^2 / (N(N-1)).
func BernoulliSampleVariance(ones, n int64) float64 {
	if n < 2 {
		return 0
	}
	return float64(ones) * float64(n-ones) / (float64(n) * float64(n-1))
}

// MeanVar is an accumulator of bounded samples supporting mean and unbiased
// sample variance. The zero value is ready to use.
type MeanVar struct {
	n          int64
	sum, sumSq float64
}

// Add records one sample.
func (m *MeanVar) Add(x float64) {
	m.n++
	m.sum += x
	m.sumSq += x * x
}

// AddWeighted records `count` identical samples of value x (used to fold in
// Bernoulli batches cheaply).
func (m *MeanVar) AddWeighted(x float64, count int64) {
	m.n += count
	m.sum += x * float64(count)
	m.sumSq += x * x * float64(count)
}

// N returns the number of recorded samples.
func (m *MeanVar) N() int64 { return m.n }

// Mean returns the sample mean (0 when empty).
func (m *MeanVar) Mean() float64 {
	if m.n == 0 {
		return 0
	}
	return m.sum / float64(m.n)
}

// Variance returns the unbiased sample variance (0 for n < 2).
func (m *MeanVar) Variance() float64 {
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
func (m *MeanVar) Merge(o *MeanVar) {
	m.n += o.n
	m.sum += o.sum
	m.sumSq += o.sumSq
}
