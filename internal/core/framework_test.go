package core

import (
	"context"

	"math"
	"math/rand"
	"sync/atomic"
	"testing"
)

// coinSpace is a synthetic Space: hypothesis i has loss 1 with probability
// approxRisk[i] on an approximate-subspace sample (independent coins), and
// an exact subspace of mass lambdaHat carrying exact risks.
type coinSpace struct {
	lambdaHat  float64
	exactRisk  []float64
	approxRisk []float64
	dim        int
}

func (c *coinSpace) NumHypotheses() int { return len(c.approxRisk) }
func (c *coinSpace) VCDim() int         { return c.dim }
func (c *coinSpace) ExactPhase(context.Context) (float64, []float64, error) {
	e := make([]float64, len(c.exactRisk))
	copy(e, c.exactRisk)
	return c.lambdaHat, e, nil
}
func (c *coinSpace) NewSampler(seed int64) Sampler {
	rng := rand.New(rand.NewSource(seed))
	hits := make([]int32, 0, len(c.approxRisk))
	return drawFunc(func() []int32 {
		hits = hits[:0]
		for i, p := range c.approxRisk {
			if rng.Float64() < p {
				hits = append(hits, int32(i))
			}
		}
		return hits
	})
}

// drawFunc adapts a one-sample draw, returning the indices of the hit
// hypotheses, to Sampler for the test fakes.
type drawFunc func() []int32

func (f drawFunc) DrawBatch(n int64, hits []int64) {
	for j := int64(0); j < n; j++ {
		for _, i := range f() {
			hits[i]++
		}
	}
}

// trueRisk returns the combined risk of hypothesis i.
func (c *coinSpace) trueRisk(i int) float64 {
	return c.exactRisk[i] + (1-c.lambdaHat)*c.approxRisk[i]
}

func TestRunRejectsBadOptions(t *testing.T) {
	sp := &coinSpace{approxRisk: []float64{0.1}, exactRisk: []float64{0}, dim: 1}
	for _, opt := range []Options{
		{Epsilon: 0, Delta: 0.1},
		{Epsilon: 1.5, Delta: 0.1},
		{Epsilon: 0.1, Delta: 0},
		{Epsilon: 0.1, Delta: 1},
	} {
		if _, err := Run(context.Background(), sp, opt); err == nil {
			t.Errorf("opt %+v: want error", opt)
		}
	}
	empty := &coinSpace{dim: 1}
	if _, err := Run(context.Background(), empty, Options{Epsilon: 0.1, Delta: 0.1}); err == nil {
		t.Error("empty hypothesis class: want error")
	}
}

func TestRunEstimatesWithinEpsilon(t *testing.T) {
	sp := &coinSpace{
		lambdaHat:  0.3,
		exactRisk:  []float64{0.02, 0, 0.1, 0.25},
		approxRisk: []float64{0.5, 0.03, 0.2, 0.4},
		dim:        3,
	}
	const eps = 0.05
	est, err := Run(context.Background(), sp, Options{Epsilon: eps, Delta: 0.01, Workers: 4, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	for i := range sp.approxRisk {
		if diff := math.Abs(est.Risks[i] - sp.trueRisk(i)); diff > eps {
			t.Errorf("hypothesis %d: |est-true| = %g > eps", i, diff)
		}
	}
	if est.Samples <= 0 || est.Samples > est.NMax {
		t.Errorf("samples = %d, nmax = %d", est.Samples, est.NMax)
	}
	if est.LambdaHat != 0.3 {
		t.Errorf("lambdaHat = %g", est.LambdaHat)
	}
}

func TestRunRepeatedCoverage(t *testing.T) {
	// Across many independent runs, the fraction violating eps must stay
	// under delta. The uniform delta split gives each hypothesis the least
	// at large k, so the table covers a realistic subset size too.
	spread := make([]float64, 100)
	for i := range spread {
		spread[i] = 0.4 * float64(i) / float64(len(spread)-1)
	}
	for _, tc := range []struct {
		name string
		sp   *coinSpace
	}{
		{"k=2", &coinSpace{exactRisk: make([]float64, 2), approxRisk: []float64{0.3, 0.05}, dim: 2}},
		// VC dimension of a finite class of k hypotheses is at most log2 k.
		{"k=100", &coinSpace{exactRisk: make([]float64, len(spread)), approxRisk: spread, dim: 7}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			sp := tc.sp
			const eps, delta = 0.08, 0.1
			const runs = 60
			bad, early := 0, 0
			worst := 0.0
			for r := 0; r < runs; r++ {
				est, err := Run(context.Background(), sp, Options{Epsilon: eps, Delta: delta, Workers: 2, Seed: int64(1000 + r)})
				if err != nil {
					t.Fatal(err)
				}
				if est.StoppedEarly {
					early++
				}
				violated := false
				for i := range sp.approxRisk {
					d := math.Abs(est.Risks[i] - sp.trueRisk(i))
					worst = math.Max(worst, d)
					violated = violated || d > eps
				}
				if violated {
					bad++
				}
			}
			t.Logf("%d/%d runs violated eps, %d stopped early, max |error|/eps = %.3f", bad, runs, early, worst/eps)
			if frac := float64(bad) / runs; frac > delta {
				t.Errorf("violations in %g of runs, budget %g", frac, delta)
			}
		})
	}
}

func TestRunAllMassExact(t *testing.T) {
	sp := &coinSpace{
		lambdaHat:  1,
		exactRisk:  []float64{0.7, 0.1},
		approxRisk: []float64{0.9, 0.9}, // must be ignored
		dim:        5,
	}
	est, err := Run(context.Background(), sp, Options{Epsilon: 0.01, Delta: 0.01, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if est.Samples != 0 {
		t.Errorf("samples = %d, want 0", est.Samples)
	}
	for i, want := range sp.exactRisk {
		if est.Risks[i] != want {
			t.Errorf("risk[%d] = %g, want %g", i, est.Risks[i], want)
		}
	}
}

func TestRunEarlyStoppingOnLowVariance(t *testing.T) {
	// All-zero risks: variance 0, Bernstein certifies immediately, so the
	// adaptive run must stop far below the VC ceiling.
	sp := &coinSpace{
		lambdaHat:  0,
		exactRisk:  make([]float64, 3),
		approxRisk: make([]float64, 3),
		dim:        10, // large ceiling
	}
	est, err := Run(context.Background(), sp, Options{Epsilon: 0.01, Delta: 0.01, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	if !est.StoppedEarly {
		t.Error("expected early stopping with zero variance")
	}
	if est.Samples >= est.NMax {
		t.Errorf("samples = %d should be < nmax = %d", est.Samples, est.NMax)
	}
}

func TestRunDisableAdaptiveDrawsFullBudget(t *testing.T) {
	sp := &coinSpace{
		lambdaHat:  0,
		exactRisk:  make([]float64, 2),
		approxRisk: []float64{0, 0},
		dim:        4,
	}
	est, err := Run(context.Background(), sp, Options{Epsilon: 0.05, Delta: 0.05, Seed: 2, DisableAdaptive: true})
	if err != nil {
		t.Fatal(err)
	}
	if est.StoppedEarly {
		t.Error("adaptive disabled but StoppedEarly set")
	}
	if est.Samples != est.NMax {
		t.Errorf("samples = %d, want nmax = %d", est.Samples, est.NMax)
	}
}

func TestRunMaxSamplesCap(t *testing.T) {
	sp := &coinSpace{
		lambdaHat:  0,
		exactRisk:  make([]float64, 2),
		approxRisk: []float64{0.5, 0.5},
		dim:        8,
	}
	est, err := Run(context.Background(), sp, Options{Epsilon: 0.01, Delta: 0.01, Seed: 3, MaxSamples: 500, DisableAdaptive: true})
	if err != nil {
		t.Fatal(err)
	}
	if est.Samples > 500 {
		t.Errorf("samples = %d exceeds cap", est.Samples)
	}
}

// TestScheduleSaturatesAtTinyEps: below eps 1e-9 the Lemma 4 budget is
// past 2^63 and must saturate rather than wrap: a first round of more than
// one sample, a ceiling at or above it, a positive round count.
func TestScheduleSaturatesAtTinyEps(t *testing.T) {
	for _, eps := range []float64{1e-9, 3e-10, 1e-12} {
		n0, nmax, rounds := Schedule(eps, 0.01, 8, 0)
		if n0 <= 1 || nmax < n0 || rounds < 1 {
			t.Errorf("eps %g: n0 %d, nmax %d, rounds %d; want n0 > 1, nmax >= n0, rounds >= 1", eps, n0, nmax, rounds)
		}
	}
}

func TestRunDeterministic(t *testing.T) {
	sp := &coinSpace{
		lambdaHat:  0.2,
		exactRisk:  []float64{0.01, 0.05},
		approxRisk: []float64{0.3, 0.6},
		dim:        3,
	}
	opt := Options{Epsilon: 0.05, Delta: 0.05, Workers: 3, Seed: 77}
	a, err := Run(context.Background(), sp, opt)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(context.Background(), sp, opt)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.Risks {
		if a.Risks[i] != b.Risks[i] {
			t.Errorf("risk[%d]: %g vs %g (nondeterministic)", i, a.Risks[i], b.Risks[i])
		}
	}
	if a.Samples != b.Samples {
		t.Errorf("samples differ: %d vs %d", a.Samples, b.Samples)
	}
}

// countingSampler counts every sample drawn through it, on any stream.
type countingSampler struct {
	Sampler
	drawn *atomic.Int64
}

func (c countingSampler) DrawBatch(n int64, hits []int64) {
	c.drawn.Add(n)
	c.Sampler.DrawBatch(n, hits)
}

// TestRunDrawsNoPilot pins that Run draws exactly the samples it reports:
// no sampling happens outside the doubling rounds, whether the run stops
// early, draws the full VC budget, or hits the sample cap.
func TestRunDrawsNoPilot(t *testing.T) {
	coins := &coinSpace{exactRisk: make([]float64, 3), approxRisk: []float64{0, 0.01, 0.05}, dim: 20}
	for _, tc := range []struct {
		name string
		opt  Options
		stop func(*Estimate) bool // the stopping shape the case must exercise
	}{
		{"adaptive", Options{Epsilon: 0.05, Delta: 0.01},
			func(e *Estimate) bool { return e.StoppedEarly && e.Samples < e.NMax }},
		{"full budget", Options{Epsilon: 0.02, Delta: 0.01, DisableAdaptive: true},
			func(e *Estimate) bool { return e.Samples == e.NMax && e.Rounds > 1 }},
		{"max samples", Options{Epsilon: 0.01, Delta: 0.01, MaxSamples: 3000},
			func(e *Estimate) bool { return e.Samples == 3000 }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var drawn atomic.Int64
			ds := &DirectSpace{K: 3, Dim: coins.dim, Make: func(seed int64) Sampler {
				return countingSampler{coins.NewSampler(seed), &drawn}
			}}
			opt := tc.opt
			opt.Workers, opt.Seed = 2, 11
			est, err := Run(context.Background(), ds, opt)
			if err != nil {
				t.Fatal(err)
			}
			if !tc.stop(est) {
				t.Fatalf("run did not take the %s path: samples %d of nmax %d in %d rounds, stopped early %v",
					tc.name, est.Samples, est.NMax, est.Rounds, est.StoppedEarly)
			}
			if got := drawn.Load(); got != est.Samples {
				t.Errorf("drew %d samples, estimate reports %d", got, est.Samples)
			}
		})
	}
}

func TestDirectSpace(t *testing.T) {
	ds := &DirectSpace{
		K:   2,
		Dim: 1,
		Make: func(seed int64) Sampler {
			rng := rand.New(rand.NewSource(seed))
			return drawFunc(func() []int32 {
				if rng.Float64() < 0.25 {
					return []int32{0}
				}
				return nil
			})
		},
	}
	est, err := Run(context.Background(), ds, Options{Epsilon: 0.05, Delta: 0.05, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(est.Risks[0]-0.25) > 0.05 {
		t.Errorf("risk[0] = %g, want ~0.25", est.Risks[0])
	}
	if math.Abs(est.Risks[1]) > 0.05 {
		t.Errorf("risk[1] = %g, want ~0", est.Risks[1])
	}
}
