// Package stats implements the statistical machinery of the SaPHyRa
// framework: the empirical Bernstein inequality (Lemma 3, from Maurer &
// Pontil [13]), the VC sample-size bound (Lemma 4) and the union-bound
// budget, with the saturating conversion every sample count goes through.
package stats

import (
	"math"
)

// VCConstant is the constant c of Lemma 4 ("approximately 0.5").
const VCConstant = 0.5

// EpsilonBernstein returns the one-sided empirical Bernstein deviation bound
// of Lemma 3 for N samples of a loss with range r (values in an interval of
// length r), sample variance v and failure probability delta0:
//
//	eps = sqrt(2 v ln(2/delta0) / N) + 7 r ln(2/delta0) / (3N).
//
// The paper's losses have r = 1; a loss scaled into [0, r] has variance
// r^2 times its [0, 1] form, so only the linear term carries r. It panics
// on invalid inputs only via math functions (callers validate).
func EpsilonBernstein(n int64, delta0, variance, r float64) float64 {
	if n <= 0 || delta0 <= 0 {
		return math.Inf(1)
	}
	// ln(2/delta0) computed as ln 2 - ln delta0: the naive quotient
	// overflows to +Inf for subnormal delta0, which a union-bound split of
	// a tiny delta over many hypotheses and rounds can produce.
	l := math.Ln2 - math.Log(delta0)
	return math.Sqrt(2*variance*l/float64(n)) + 7*r*l/(3*float64(n))
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
	return SampleCount(n)
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
	return SampleCount(n)
}

// SampleCount returns ceil(x) as a sample count, saturating at
// math.MaxInt64 when x is at or above 2^63 (or NaN). Go leaves the
// conversion of an out-of-range float to int64 undefined, and on amd64 a
// budget for a tiny eps came out negative and was clamped to one sample; a
// saturated budget keeps the (eps, delta) argument, and the run stops on
// its Bernstein check or its MaxSamples cap.
func SampleCount(x float64) int64 {
	if !(x < 1<<63) {
		return math.MaxInt64
	}
	return int64(math.Ceil(x))
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
