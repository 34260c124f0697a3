package core

import (
	"context"

	"math"
	"testing"

	"saphyra/internal/graph"
	"saphyra/internal/testutil"
)

// Parallel Exact_bc must return bit-identical results to the sequential
// path for every worker count (worker-independent cost-weighted chunking,
// chunk-order merge).
func TestExactBCParallelMatchesSequential(t *testing.T) {
	g := testutil.RandomConnectedGraph(200, 400, 5)
	p := PreprocessBC(g)
	var nodes []graph.Node
	for v := 0; v < 200; v += 7 {
		nodes = append(nodes, graph.Node(v))
	}
	aIndex := make([]int32, 200)
	for i := range aIndex {
		aIndex[i] = -1
	}
	for i, v := range nodes {
		aIndex[v] = int32(i)
	}
	blocksA := p.O.BlocksOf(nodes)
	wA := p.O.WeightOfBlocks(blocksA)
	if wA == 0 {
		t.Fatal("degenerate fixture")
	}
	seqLambda, seqExact, _ := p.Exact.Run(context.Background(), nodes, aIndex, wA, 1)
	for _, workers := range []int{2, 3, 8, 100} {
		lambda, exact, _ := p.Exact.Run(context.Background(), nodes, aIndex, wA, workers)
		if lambda != seqLambda {
			t.Errorf("workers=%d: lambdaHat %g != %g (not bitwise identical)", workers, lambda, seqLambda)
		}
		for i := range exact {
			if exact[i] != seqExact[i] {
				t.Errorf("workers=%d: exact[%d] %g != %g", workers, i, exact[i], seqExact[i])
			}
		}
	}
}

// Deterministic repeated runs with the same worker count.
func TestExactBCParallelDeterministic(t *testing.T) {
	g := testutil.RandomConnectedGraph(150, 250, 8)
	p := PreprocessBC(g)
	nodes := []graph.Node{3, 17, 42, 99, 120}
	aIndex := make([]int32, 150)
	for i := range aIndex {
		aIndex[i] = -1
	}
	for i, v := range nodes {
		aIndex[v] = int32(i)
	}
	wA := p.O.WeightOfBlocks(p.O.BlocksOf(nodes))
	l1, e1, _ := p.Exact.Run(context.Background(), nodes, aIndex, wA, 4)
	l2, e2, _ := p.Exact.Run(context.Background(), nodes, aIndex, wA, 4)
	if l1 != l2 {
		t.Errorf("lambdaHat not deterministic: %g vs %g", l1, l2)
	}
	for i := range e1 {
		if e1[i] != e2[i] {
			t.Errorf("exact[%d] not deterministic", i)
		}
	}
}

// lambdaHat must always be a probability.
func TestExactBCLambdaInRange(t *testing.T) {
	for seed := int64(0); seed < 10; seed++ {
		g := testutil.RandomConnectedGraph(30, 60, seed)
		p := PreprocessBC(g)
		var nodes []graph.Node
		for v := 0; v < 30; v += 3 {
			nodes = append(nodes, graph.Node(v))
		}
		aIndex := make([]int32, 30)
		for i := range aIndex {
			aIndex[i] = -1
		}
		for i, v := range nodes {
			aIndex[v] = int32(i)
		}
		wA := p.O.WeightOfBlocks(p.O.BlocksOf(nodes))
		if wA == 0 {
			continue
		}
		lambda, exact, _ := p.Exact.Run(context.Background(), nodes, aIndex, wA, 0)
		if lambda < 0 || lambda > 1+1e-9 {
			t.Errorf("seed %d: lambdaHat %g outside [0,1]", seed, lambda)
		}
		var sum float64
		for _, x := range exact {
			if x < 0 {
				t.Errorf("seed %d: negative exact risk %g", seed, x)
			}
			sum += x
		}
		if math.Abs(sum-lambda) > 1e-9 {
			t.Errorf("seed %d: sum of exact risks %g != lambdaHat %g", seed, sum, lambda)
		}
	}
}

// Claim 8 (variance reduction): removing the exact-subspace mass must not
// increase — and on leafy graphs strictly decreases — the per-hypothesis
// sampling variance, measured here by comparing empirical hit variances of
// the Gen_bc sampler with the partition on and off.
func TestClaim8VarianceReduction(t *testing.T) {
	// flickr-like shape: hubs plus many degree-1/2 nodes whose entire
	// betweenness lives in 2-hop paths.
	g := testutil.RandomConnectedGraph(300, 80, 4)
	p := PreprocessBC(g)
	var nodes []graph.Node
	for v := 0; v < 300; v += 5 {
		nodes = append(nodes, graph.Node(v))
	}
	nodesDedup := graph.DedupSorted(nodes)
	blocksA := p.O.BlocksOf(nodesDedup)
	wA := p.O.WeightOfBlocks(blocksA)
	if wA == 0 {
		t.Skip("degenerate fixture")
	}
	const N = 30000
	sampleVar := func(disable bool) float64 {
		sp, err := newBCSpace(context.Background(), p, nodesDedup, blocksA, wA, BCOptions{
			Epsilon: 0.1, Delta: 0.1, DisableExactSubspace: disable,
		})
		if err != nil {
			t.Fatal(err)
		}
		smp := sp.NewSampler(42).(*bcSampler)
		hits := make([]int64, len(nodesDedup))
		for i := 0; i < N; i++ {
			for _, h := range smp.Draw() {
				hits[h]++
			}
		}
		lambdaHat, _, _ := sp.ExactPhase(context.Background())
		scale := 1 - lambdaHat // variance contribution rescaled to D^(A)
		var total float64
		for _, h := range hits {
			m := float64(h) / N
			total += scale * scale * m * (1 - m)
		}
		return total
	}
	withPartition := sampleVar(false)
	without := sampleVar(true)
	if withPartition > without*1.05 {
		t.Errorf("Claim 8 violated: partitioned variance %g > unpartitioned %g", withPartition, without)
	}
}
