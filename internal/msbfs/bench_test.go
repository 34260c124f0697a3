package msbfs

import (
	"math/rand/v2"
	"testing"

	"saphyra/internal/graph"
)

// BenchmarkMSBFSPass prices one full 64-lane pass over the closeness bench
// graph — the unit the estimator's ~(samples/64) inner cost is built from.
// Must stay 0 allocs/op: the workspace is the pooled steady state.
func BenchmarkMSBFSPass(b *testing.B) {
	g := graph.BarabasiAlbert(2000, 3, 42)
	off, nbr := g.CSR()
	n := g.NumNodes()
	rng := rand.New(rand.NewPCG(1, 2))
	srcs := make([]graph.Node, MaxLanes)
	for i := range srcs {
		srcs[i] = graph.Node(rng.IntN(n))
	}
	tr := New(n)
	onSettle := func(u graph.Node, lanes uint64, depth int32) {}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := tr.Run(off, nbr, srcs, nil, onSettle); err != nil {
			b.Fatal(err)
		}
	}
}

// TestRunAllocatesNothing pins the pooled steady state BenchmarkMSBFSPass
// prices: on its graph, 64 passes with fresh random sources allocate
// nothing. Fresh sources matter: one fixed batch can miss the level shapes
// that would overflow a frontier buffer.
func TestRunAllocatesNothing(t *testing.T) {
	g := graph.BarabasiAlbert(2000, 3, 42)
	off, nbr := g.CSR()
	n := g.NumNodes()
	rng := rand.New(rand.NewPCG(1, 2))
	srcs := make([]graph.Node, MaxLanes)
	tr := New(n)
	onSettle := func(u graph.Node, lanes uint64, depth int32) {}
	allocs := testing.AllocsPerRun(1, func() {
		for pass := 0; pass < 64; pass++ {
			for i := range srcs {
				srcs[i] = graph.Node(rng.IntN(n))
			}
			if err := tr.Run(off, nbr, srcs, nil, onSettle); err != nil {
				t.Fatal(err)
			}
		}
	})
	if allocs != 0 {
		t.Errorf("64 passes allocate %.0f times, want 0", allocs)
	}
}
