package stats

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestEpsilonBernsteinKnownValue(t *testing.T) {
	// n=1000, delta0=0.05, v=0.25: eps = sqrt(2*0.25*ln40/1000) + 7 ln40/3000
	l := math.Log(2 / 0.05)
	want := math.Sqrt(2*0.25*l/1000) + 7*l/3000
	got := EpsilonBernstein(1000, 0.05, 0.25, 1)
	if math.Abs(got-want) > 1e-15 {
		t.Errorf("got %g, want %g", got, want)
	}
}

func TestEpsilonBernsteinMonotonicity(t *testing.T) {
	// decreasing in n, increasing in variance, decreasing in delta0
	if EpsilonBernstein(100, 0.1, 0.2, 1) <= EpsilonBernstein(1000, 0.1, 0.2, 1) {
		t.Error("eps should shrink with more samples")
	}
	if EpsilonBernstein(100, 0.1, 0.1, 1) >= EpsilonBernstein(100, 0.1, 0.3, 1) {
		t.Error("eps should grow with variance")
	}
	if EpsilonBernstein(100, 0.2, 0.2, 1) >= EpsilonBernstein(100, 0.01, 0.2, 1) {
		t.Error("eps should grow as delta0 shrinks")
	}
}

func TestEpsilonBernsteinZeroVariance(t *testing.T) {
	// with zero variance only the 7L/(3N) term remains
	l := math.Log(2 / 0.1)
	want := 7 * l / (3 * 500)
	if got := EpsilonBernstein(500, 0.1, 0, 1); math.Abs(got-want) > 1e-15 {
		t.Errorf("got %g, want %g", got, want)
	}
}

// TestEpsilonBernsteinRange: a loss of range r is r times a loss of range
// 1, with r^2 times its variance, so its bound is r times the range-1
// bound; and r = 1 gives the paper's bound bit for bit.
func TestEpsilonBernsteinRange(t *testing.T) {
	for _, r := range []float64{0.5, 0.25, 1.0 / 3} {
		for _, v := range []float64{0, 0.01, 0.2} {
			got := EpsilonBernstein(922, 1e-4, r*r*v, r)
			want := r * EpsilonBernstein(922, 1e-4, v, 1)
			if math.Abs(got-want) > 1e-15 {
				t.Errorf("r %g, v %g: got %g, want r times the range-1 bound %g", r, v, got, want)
			}
		}
	}
	l := math.Ln2 - math.Log(0.05)
	want := math.Sqrt(2*0.25*l/float64(1000)) + 7*l/(3*float64(1000))
	if got := EpsilonBernstein(1000, 0.05, 0.25, 1); got != want {
		t.Errorf("r = 1: got %v, want %v bit for bit", got, want)
	}
}

func TestEpsilonBernsteinNoSamples(t *testing.T) {
	if !math.IsInf(EpsilonBernstein(0, 0.1, 0.2, 1), 1) {
		t.Error("n=0 should give +Inf")
	}
}

func TestVCSampleSize(t *testing.T) {
	n := VCSampleSize(0.1, 0.01, 3)
	want := int64(math.Ceil(0.5 / 0.01 * (3 + math.Log(100))))
	if n != want {
		t.Errorf("got %d, want %d", n, want)
	}
	if VCSampleSize(0.1, 0.01, 5) <= VCSampleSize(0.1, 0.01, 1) {
		t.Error("sample size should grow with dimension")
	}
	if VCSampleSize(0.01, 0.01, 1) <= VCSampleSize(0.1, 0.01, 1) {
		t.Error("sample size should grow as eps shrinks")
	}
}

func TestUnionSampleSize(t *testing.T) {
	if UnionSampleSize(0.1, 0.01, 1000) <= UnionSampleSize(0.1, 0.01, 10) {
		t.Error("sample size should grow with k")
	}
	if UnionSampleSize(0.1, 0.01, 0) < 1 {
		t.Error("degenerate k should still give >= 1")
	}
}

func TestBernoulliSampleVariance(t *testing.T) {
	// direct check against the definitional pairwise sum on a small vector:
	// z = (1,1,0,0,0): pairs differing = 2*3 = 6 of 10 -> var = 6/ (5*4) *2?
	// Paper form: sum_{j1<j2} (z_j1-z_j2)^2 / (N(N-1)) = 6/20 = 0.3.
	got := BernoulliSampleVariance(2, 5)
	if math.Abs(got-0.3) > 1e-15 {
		t.Errorf("got %g, want 0.3", got)
	}
	if BernoulliSampleVariance(0, 5) != 0 || BernoulliSampleVariance(5, 5) != 0 {
		t.Error("constant vectors have zero variance")
	}
	if BernoulliSampleVariance(1, 1) != 0 {
		t.Error("n<2 variance should be 0")
	}
}

// TestBernoulliSampleVarianceMatchesMeanVar checks the closed form against
// the unbiased sample variance computed from its definition, two passes
// over the 0/1 vector: the mean, then the squared deviations over n-1.
func TestBernoulliSampleVarianceMatchesMeanVar(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := int64(2 + rng.Intn(500))
		ones := int64(rng.Intn(int(n) + 1))
		mean := float64(ones) / float64(n)
		var ss float64
		for j := int64(0); j < n; j++ {
			z := 0.0
			if j < ones {
				z = 1
			}
			ss += (z - mean) * (z - mean)
		}
		return math.Abs(ss/float64(n-1)-BernoulliSampleVariance(ones, n)) < 1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// TestSampleCountSaturates: a count at or above 2^63 (or NaN) is
// math.MaxInt64, never a wrapped or undefined conversion; below that it is
// the ceiling.
func TestSampleCountSaturates(t *testing.T) {
	for _, c := range []struct {
		x    float64
		want int64
	}{
		{0.5, 1}, {1, 1}, {1.25, 2}, {1e6, 1e6},
		{1 << 62, 1 << 62},
		{math.Nextafter(1<<63, 0), 1<<63 - 1024},
		{1 << 63, math.MaxInt64}, {1e30, math.MaxInt64}, {math.Inf(1), math.MaxInt64}, {math.NaN(), math.MaxInt64},
	} {
		if got := SampleCount(c.x); got != c.want {
			t.Errorf("SampleCount(%g) = %d, want %d", c.x, got, c.want)
		}
	}
}

// TestSampleSizesSaturateAtTinyEps: at eps 1e-9 and below the Lemma 4 and
// union budgets are above 10^18, and at or past 2^63 they saturate at
// math.MaxInt64 rather than wrap to a small or negative count.
func TestSampleSizesSaturateAtTinyEps(t *testing.T) {
	for _, eps := range []float64{1e-9, 3e-10, 1e-12} {
		vc, union := VCSampleSize(eps, 0.01, 20), UnionSampleSize(eps, 0.01, 100)
		if vc < 1e18 || union < 1e18 {
			t.Errorf("eps %g: VCSampleSize %d, UnionSampleSize %d, want both above 10^18", eps, vc, union)
		}
	}
	if got := VCSampleSize(1e-12, 0.01, 20); got != math.MaxInt64 {
		t.Errorf("VCSampleSize(1e-12) = %d, want math.MaxInt64", got)
	}
}

// Empirical coverage check: the Bernstein bound must hold with probability
// >= 1 - 2*delta0 over repeated Bernoulli experiments.
func TestEpsilonBernsteinCoverage(t *testing.T) {
	rng := rand.New(rand.NewSource(123))
	const trials = 2000
	const n = 400
	const p = 0.3
	const delta0 = 0.05
	violations := 0
	for trial := 0; trial < trials; trial++ {
		var ones int64
		for i := 0; i < n; i++ {
			if rng.Float64() < p {
				ones++
			}
		}
		mean := float64(ones) / n
		eps := EpsilonBernstein(n, delta0, BernoulliSampleVariance(ones, n), 1)
		if math.Abs(mean-p) > eps {
			violations++
		}
	}
	frac := float64(violations) / trials
	if frac > 2*delta0 {
		t.Errorf("coverage violated in %g of trials, budget %g", frac, 2*delta0)
	}
}
