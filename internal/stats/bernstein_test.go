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
	got := EpsilonBernstein(1000, 0.05, 0.25)
	if math.Abs(got-want) > 1e-15 {
		t.Errorf("got %g, want %g", got, want)
	}
}

func TestEpsilonBernsteinMonotonicity(t *testing.T) {
	// decreasing in n, increasing in variance, decreasing in delta0
	if EpsilonBernstein(100, 0.1, 0.2) <= EpsilonBernstein(1000, 0.1, 0.2) {
		t.Error("eps should shrink with more samples")
	}
	if EpsilonBernstein(100, 0.1, 0.1) >= EpsilonBernstein(100, 0.1, 0.3) {
		t.Error("eps should grow with variance")
	}
	if EpsilonBernstein(100, 0.2, 0.2) >= EpsilonBernstein(100, 0.01, 0.2) {
		t.Error("eps should grow as delta0 shrinks")
	}
}

func TestEpsilonBernsteinZeroVariance(t *testing.T) {
	// with zero variance only the 7L/(3N) term remains
	l := math.Log(2 / 0.1)
	want := 7 * l / (3 * 500)
	if got := EpsilonBernstein(500, 0.1, 0); math.Abs(got-want) > 1e-15 {
		t.Errorf("got %g, want %g", got, want)
	}
}

func TestEpsilonBernsteinNoSamples(t *testing.T) {
	if !math.IsInf(EpsilonBernstein(0, 0.1, 0.2), 1) {
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

func TestBernoulliSampleVarianceMatchesMeanVar(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := int64(2 + rng.Intn(500))
		ones := int64(rng.Intn(int(n) + 1))
		var mv MeanVar
		mv.AddWeighted(1, ones)
		mv.AddWeighted(0, n-ones)
		return math.Abs(mv.Variance()-BernoulliSampleVariance(ones, n)) < 1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestMeanVarBasics(t *testing.T) {
	var m MeanVar
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
	var a, b, all MeanVar
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
	var m MeanVar
	if m.Mean() != 0 || m.Variance() != 0 {
		t.Error("empty accumulator should be zeros")
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
		eps := EpsilonBernstein(n, delta0, BernoulliSampleVariance(ones, n))
		if math.Abs(mean-p) > eps {
			violations++
		}
	}
	frac := float64(violations) / trials
	if frac > 2*delta0 {
		t.Errorf("coverage violated in %g of trials, budget %g", frac, 2*delta0)
	}
}
