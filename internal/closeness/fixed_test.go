package closeness

import (
	"context"
	"math"
	"math/big"
	"math/rand/v2"
	"testing"

	"saphyra/internal/datasets"
)

// TestLossFixed: the fixed-point loss of a target at depth d >= 2 is
// floor(2^32/d) units of 2^-32, so 0 <= 1/d - loss'(d) < 2^-32; at depth 0
// (the source, or unreached) and depth 1 (counted exactly, not sampled) it
// is 0. Scaled by d*2^32 that is r*d <= 2^32 < (r+1)*d, which integers
// check exactly, through the memo and past it.
func TestLossFixed(t *testing.T) {
	for d := int32(0); d <= 1; d++ {
		if r := lossFixed(d); r != 0 {
			t.Fatalf("lossFixed(%d) = %d, want 0", d, r)
		}
	}
	for d := int32(2); d <= 1<<20; d++ {
		r, du := lossFixed(d), uint64(d)
		if r*du > fixedOne || (r+1)*du <= fixedOne {
			t.Fatalf("lossFixed(%d) = %d: not floor(2^32/d)", d, r)
		}
	}
}

// TestSumsDoNotOverflow: budget returns an int64, so no call draws more
// than 2^63 - 1 samples. At that many samples of the largest loss (d = 1),
// added at once, split across two accumulators and merged, or ending in one
// settle's 64 lanes, the 128-bit sums hold the exact totals, and so do
// random adds of every size against a big.Int reference.
func TestSumsDoNotOverflow(t *testing.T) {
	const n = math.MaxInt64
	var whole, split, merged, other sums
	whole.add(n, fixedOne)
	split.add(n-64, fixedOne)
	split.add(64, fixedOne)
	merged.add(n/2, fixedOne)
	other.add(n-n/2, fixedOne)
	merged.merge(&other)
	wantS := new(big.Int).Lsh(big.NewInt(n), 32)
	wantQ := new(big.Int).Lsh(big.NewInt(n), 64)
	for name, a := range map[string]sums{"whole": whole, "split": split, "merged": merged} {
		if s, q := sumsBig(a); s.Cmp(wantS) != 0 || q.Cmp(wantQ) != 0 {
			t.Errorf("%s: sums (%v, %v), want (%v, %v)", name, s, q, wantS, wantQ)
		}
		if mean, variance := a.moments(n); mean != 1 || variance != 0 {
			t.Errorf("%s: mean %v, variance %v; want 1, 0", name, mean, variance)
		}
	}

	rng := rand.New(rand.NewPCG(3, 4))
	var a sums
	s, q := new(big.Int), new(big.Int)
	var total uint64
	for range 10_000 {
		c := rng.Uint64N(1 << rng.IntN(56))
		if total+c > n {
			break
		}
		total += c
		r := lossFixed(int32(1 + rng.IntN(1000)))
		a.add(c, r)
		cr := new(big.Int).Mul(new(big.Int).SetUint64(c), new(big.Int).SetUint64(r))
		s.Add(s, cr)
		q.Add(q, cr.Mul(cr, new(big.Int).SetUint64(r)))
	}
	if gs, gq := sumsBig(a); gs.Cmp(s) != 0 || gq.Cmp(q) != 0 {
		t.Errorf("random adds: sums (%v, %v), want (%v, %v)", gs, gq, s, q)
	}
}

// sumsBig returns a's two 128-bit sums as big integers.
func sumsBig(a sums) (s, q *big.Int) {
	join := func(hi, lo uint64) *big.Int {
		x := new(big.Int).Lsh(new(big.Int).SetUint64(hi), 64)
		return x.Or(x, new(big.Int).SetUint64(lo))
	}
	return join(a.sHi, a.sLo), join(a.qHi, a.qLo)
}

// TestMatchesFloatReference: on the Flickr stand-in, whole network, at the
// daemon's eps and delta, the fixed-point estimator draws the samples and
// rounds of the float one (1/d added to a meanVar, stopping at eps)
// and every estimate agrees with it within 1e-9: each loss moves by less
// than 2^-32, so a mean moves by less than that.
func TestMatchesFloatReference(t *testing.T) {
	g := datasets.Flickr.Build(1)
	a := allNodes(g)
	opt := Options{Epsilon: 0.05, Delta: 0.01, Seed: 5, Workers: 2}
	want, err := estimateFloat(context.Background(), g, a, opt)
	if err != nil {
		t.Fatal(err)
	}
	got, err := NewEngine(g).Estimate(context.Background(), a, opt)
	if err != nil {
		t.Fatal(err)
	}
	if got.Samples != want.Samples || got.Rounds != want.Rounds {
		t.Fatalf("samples/rounds %d/%d, float reference %d/%d", got.Samples, got.Rounds, want.Samples, want.Rounds)
	}
	worst := 0.0
	for i := range want.Closeness {
		worst = max(worst, math.Abs(got.Closeness[i]-want.Closeness[i]))
	}
	if worst > 1e-9 {
		t.Fatalf("largest |fixed - float| = %g over %d targets, want at most 1e-9", worst, len(a))
	}
	t.Logf("%d targets, %d samples in %d rounds: largest |fixed - float| = %.3g", len(a), got.Samples, got.Rounds, worst)
}
