package exactphase

import (
	"context"

	"math"
	"testing"

	"saphyra/internal/bicomp"
	"saphyra/internal/graph"
)

// benchGraph mirrors the sampler benchmarks' reference workload (their
// skewedGraph): a preferential-attachment graph whose degree skew makes the
// legacy push-phase sigma sweep expensive, with 100 scattered targets.
func benchGraph() *graph.Graph {
	return graph.BarabasiAlbert(4000, 3, 42)
}

func benchFixture(tb testing.TB) (*Engine, *bicomp.OutReach, []graph.Node, []int32, float64) {
	tb.Helper()
	g := benchGraph()
	d := bicomp.Decompose(g)
	o := bicomp.NewOutReach(d)
	view := bicomp.NewBlockCSR(d, o)
	n := g.NumNodes()
	aIndex := make([]int32, n)
	for i := range aIndex {
		aIndex[i] = -1
	}
	var targets []graph.Node
	for i := 0; i < 100; i++ {
		v := graph.Node((int64(i)*2_654_435_761 + 7) % int64(n))
		if aIndex[v] < 0 {
			aIndex[v] = int32(len(targets))
			targets = append(targets, v)
		}
	}
	wA := o.WeightOfBlocks(o.BlocksOf(targets))
	return New(view), o, targets, aIndex, wA
}

// legacyExact replicates the pre-BlockCSR exact phase verbatim (PR 1's
// exactBCRange): per-pair EdgeBlock resolution via AdjOffset side-table
// indexing and per-endpoint OutReach.Of lookups, full push-phase sigma
// counting, scratch allocated per call. It is the reference the ISSUE's
// >= 3x acceptance criterion compares against — keep it honest when the
// engine changes again.
func legacyExact(o *bicomp.OutReach, targets []graph.Node, aIndex []int32, wA float64) (float64, []float64) {
	d := o.D
	g := d.G
	n := g.NumNodes()
	exact := make([]float64, len(targets))
	var lambdaHat float64

	endpoint := make([]bool, n)
	var endpoints []graph.Node
	for _, v := range targets {
		for _, s := range g.Neighbors(v) {
			if !endpoint[s] {
				endpoint[s] = true
				endpoints = append(endpoints, s)
			}
		}
	}

	sigma := make([]int32, n)
	stamp := make([]int32, n)
	isNbr := make([]int32, n)
	for i := range stamp {
		stamp[i] = -1
		isNbr[i] = -1
	}
	for epoch, s := range endpoints {
		e := int32(epoch)
		for _, v := range g.Neighbors(s) {
			isNbr[v] = e
		}
		for _, v := range g.Neighbors(s) {
			for _, t := range g.Neighbors(v) {
				if t == s || isNbr[t] == e {
					continue
				}
				if stamp[t] != e {
					stamp[t] = e
					sigma[t] = 0
				}
				sigma[t]++
			}
		}
		sBase := g.AdjOffset(s)
		for i, v := range g.Neighbors(s) {
			ai := aIndex[v]
			if ai < 0 {
				continue
			}
			bSV := d.EdgeBlock[sBase+int64(i)]
			rS := float64(o.Of(bSV, s))
			vBase := g.AdjOffset(v)
			for j, t := range g.Neighbors(v) {
				if t == s || isNbr[t] == e {
					continue
				}
				if d.EdgeBlock[vBase+int64(j)] != bSV {
					continue
				}
				mass := rS * float64(o.Of(bSV, t)) / (float64(sigma[t]) * wA)
				exact[ai] += mass
				lambdaHat += mass
			}
		}
	}
	return lambdaHat, exact
}

// The legacy reference and the engine must agree (it anchors the benchmark
// comparison, so it has to compute the same thing).
func TestLegacyReferenceMatchesEngine(t *testing.T) {
	e, o, targets, aIndex, wA := benchFixture(t)
	gotL, gotE, _ := e.Run(context.Background(), targets, aIndex, wA, 1)
	wantL, wantE := legacyExact(o, targets, aIndex, wA)
	if math.Abs(gotL-wantL) > 1e-9*(1+wantL) {
		t.Fatalf("lambdaHat %g, legacy %g", gotL, wantL)
	}
	for i := range gotE {
		if math.Abs(gotE[i]-wantE[i]) > 1e-9*(1+wantE[i]) {
			t.Fatalf("exact[%d] = %g, legacy %g", i, gotE[i], wantE[i])
		}
	}
}

// BenchmarkExactPhaseBuild measures the one-time BlockCSR construction that
// core.PreprocessBC adds on top of Decompose + NewOutReach.
func BenchmarkExactPhaseBuild(b *testing.B) {
	g := benchGraph()
	d := bicomp.Decompose(g)
	o := bicomp.NewOutReach(d)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = bicomp.NewBlockCSR(d, o)
	}
}

// BenchmarkExactPhaseRange measures one full exact-phase evaluation on the
// run-length engine (single worker, pooled scratch: 0 allocs/op in steady
// state). Compare ns/op against BenchmarkExactPhaseRangeLegacy.
func BenchmarkExactPhaseRange(b *testing.B) {
	e, _, targets, aIndex, wA := benchFixture(b)
	exact := make([]float64, len(targets))
	lambda, _ := e.RunInto(context.Background(), exact, targets, aIndex, wA, 1) // warm the pools
	b.ReportMetric(lambda, "lambdaHat")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.RunInto(context.Background(), exact, targets, aIndex, wA, 1)
	}
}

// BenchmarkExactPhaseRangeLegacy measures the faithful PR 1 path on the same
// workload.
func BenchmarkExactPhaseRangeLegacy(b *testing.B) {
	_, o, targets, aIndex, wA := benchFixture(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		legacyExact(o, targets, aIndex, wA)
	}
}

// TestRunIntoAllocatesNothing pins the steady state
// BenchmarkExactPhaseRange prices: a single-worker RunInto on pooled
// scratch allocates nothing.
func TestRunIntoAllocatesNothing(t *testing.T) {
	e, _, targets, aIndex, wA := benchFixture(t)
	exact := make([]float64, len(targets))
	if allocs := testing.AllocsPerRun(1, func() {
		e.RunInto(context.Background(), exact, targets, aIndex, wA, 1)
	}); allocs != 0 {
		t.Errorf("RunInto at 1 worker allocates %.0f times, want 0", allocs)
	}
}
