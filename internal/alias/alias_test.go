package alias

import (
	"math"
	"math/rand/v2"
	"testing"
)

func TestEmpty(t *testing.T) {
	tab := New(nil)
	if tab.Len() != 0 {
		t.Fatalf("Len() = %d, want 0", tab.Len())
	}
}

func TestSingleColumn(t *testing.T) {
	tab := New([]float64{3.5})
	for _, u := range []float64{0, 0.25, 0.5, 0.9999999} {
		if got := tab.Draw(u); got != 0 {
			t.Fatalf("Draw(%g) = %d, want 0", u, got)
		}
	}
}

func TestZeroWeightsUniform(t *testing.T) {
	tab := New([]float64{0, 0, 0, 0})
	counts := make([]int, 4)
	rng := rand.New(rand.NewPCG(1, 2))
	const n = 40000
	for i := 0; i < n; i++ {
		counts[tab.Draw(rng.Float64())]++
	}
	for i, c := range counts {
		if math.Abs(float64(c)/n-0.25) > 0.02 {
			t.Errorf("column %d frequency %g, want ~0.25", i, float64(c)/n)
		}
	}
}

func TestZeroWeightColumnNeverDrawn(t *testing.T) {
	tab := New([]float64{1, 0, 1, 0, 2})
	rng := rand.New(rand.NewPCG(3, 4))
	for i := 0; i < 100000; i++ {
		switch tab.Draw(rng.Float64()) {
		case 1, 3:
			t.Fatal("drew a zero-weight column")
		}
	}
}

// TestMatchesWeights checks empirical frequencies against the weight vector
// for a skewed distribution (the r(s)(S-r(s)) shape on a hub-and-spoke
// block: one huge weight, many tiny ones).
func TestMatchesWeights(t *testing.T) {
	w := []float64{100, 1, 2, 3, 0.5, 10, 1, 1, 1, 0.25}
	var total float64
	for _, x := range w {
		total += x
	}
	tab := New(w)
	counts := make([]float64, len(w))
	rng := rand.New(rand.NewPCG(5, 6))
	const n = 2_000_000
	for i := 0; i < n; i++ {
		counts[tab.Draw(rng.Float64())]++
	}
	for i := range w {
		want := w[i] / total
		got := counts[i] / n
		// 4-sigma binomial tolerance plus an absolute floor
		tol := 4*math.Sqrt(want*(1-want)/n) + 1e-4
		if math.Abs(got-want) > tol {
			t.Errorf("column %d frequency %g, want %g (tol %g)", i, got, want, tol)
		}
	}
}

func TestNegativeClampedToZero(t *testing.T) {
	tab := New([]float64{-5, 1})
	rng := rand.New(rand.NewPCG(7, 8))
	for i := 0; i < 10000; i++ {
		if got := tab.Draw(rng.Float64()); got != 1 {
			t.Fatalf("Draw = %d, want 1 (negative weight must not be drawn)", got)
		}
	}
}

func TestDeterministic(t *testing.T) {
	w := []float64{1, 2, 3, 4, 5}
	a, b := New(w), New(w)
	for u := 0.0; u < 1; u += 1e-3 {
		if a.Draw(u) != b.Draw(u) {
			t.Fatalf("tables built from identical weights disagree at u=%g", u)
		}
	}
}

func BenchmarkDraw(b *testing.B) {
	w := make([]float64, 1024)
	for i := range w {
		w[i] = float64(i%17) + 0.5
	}
	tab := New(w)
	rng := rand.New(rand.NewPCG(9, 10))
	b.ReportAllocs()
	b.ResetTimer()
	var sink int
	for i := 0; i < b.N; i++ {
		sink += tab.Draw(rng.Float64())
	}
	_ = sink
}

// TestBuildMatchesNew: a table built into caller-owned storage draws exactly
// what New's table draws, column for column.
func TestBuildMatchesNew(t *testing.T) {
	w := []float64{100, 1, 2, 3, 0.5, 10, 1, 1, 1, 0.25}
	ref := New(w)
	got := Build(make([]float64, len(w)), make([]int32, len(w)), w)
	rng := rand.New(rand.NewPCG(5, 6))
	for i := 0; i < 10000; i++ {
		u := rng.Float64()
		if a, b := ref.Draw(u), got.Draw(u); a != b {
			t.Fatalf("Draw(%g): New %d, Build %d", u, a, b)
		}
	}
}
