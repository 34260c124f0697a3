package kpath

import (
	"context"

	"math"
	"testing"

	"saphyra/internal/core"
	"saphyra/internal/graph"
	"saphyra/internal/testutil"
)

func TestPartitionedMatchesExact(t *testing.T) {
	for seed := int64(0); seed < 4; seed++ {
		g := testutil.RandomConnectedGraph(15, 10, seed)
		truth := Exact(g, 3)
		var a []graph.Node
		for v := 0; v < 15; v += 2 {
			a = append(a, graph.Node(v))
		}
		res, err := Estimate(context.Background(), g, a, Options{K: 3, Epsilon: 0.05, Delta: 0.01, Seed: seed, Workers: 2})
		if err != nil {
			t.Fatal(err)
		}
		for i, v := range res.Nodes {
			if math.Abs(res.KPath[i]-truth[v]) > 0.05 {
				t.Errorf("seed %d node %d: est %g truth %g", seed, v, res.KPath[i], truth[v])
			}
		}
	}
}

func TestPartitionedExactPhaseClosedForm(t *testing.T) {
	// Star(5), k=2, target = center: first-step visit probability of the
	// center is (1/n) * sum_{leaves} 1/1 = 4/5; lhat = (1/(n k)) * 4 = 0.4.
	g := graph.Star(5)
	sp := &kpathSpace{g: g, k: 2, nodes: []graph.Node{0}, aIndex: []int32{0, -1, -1, -1, -1}, dim: 1}
	lambdaHat, exact, _ := sp.ExactPhase(context.Background())
	if lambdaHat != 0.5 {
		t.Errorf("lambdaHat = %g, want 1/k = 0.5", lambdaHat)
	}
	if math.Abs(exact[0]-0.4) > 1e-12 {
		t.Errorf("lhat(center) = %g, want 0.4", exact[0])
	}
}

func TestPartitionedKOne(t *testing.T) {
	// k = 1: the exact subspace is the whole space; no sampling, exact
	// answers.
	g := graph.Star(6)
	truth := Exact(g, 1)
	var a []graph.Node
	for v := 0; v < 6; v++ {
		a = append(a, graph.Node(v))
	}
	res, err := Estimate(context.Background(), g, a, Options{K: 1, Epsilon: 0.05, Delta: 0.01, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.Est.Samples != 0 {
		t.Errorf("samples = %d, want 0 for k=1", res.Est.Samples)
	}
	for i, v := range res.Nodes {
		if math.Abs(res.KPath[i]-truth[v]) > 1e-12 {
			t.Errorf("node %d: est %g truth %g (k=1 must be exact)", v, res.KPath[i], truth[v])
		}
	}
}

func TestPartitionedAgreesWithDirect(t *testing.T) {
	// The partitioned estimator and the unpartitioned one — core.Run over
	// the whole walk space, lengths uniform in {1..k}, with an empty exact
	// subspace — target the same quantity; with tight epsilon their outputs
	// must be close.
	g := testutil.RandomConnectedGraph(40, 50, 6)
	a := []graph.Node{1, 5, 9, 20, 33}
	opt := Options{K: 4, Epsilon: 0.02, Delta: 0.01, Seed: 2}
	direct, err := estimateDirect(g, a, opt)
	if err != nil {
		t.Fatal(err)
	}
	part, err := Estimate(context.Background(), g, a, opt)
	if err != nil {
		t.Fatal(err)
	}
	for i := range direct.Nodes {
		if math.Abs(direct.KPath[i]-part.KPath[i]) > 0.04 {
			t.Errorf("node %d: direct %g vs partitioned %g", direct.Nodes[i], direct.KPath[i], part.KPath[i])
		}
	}
}

// estimateDirect is the unpartitioned reference estimator: every walk length
// in {1..k} is sampled and nothing is counted exactly.
func estimateDirect(g *graph.Graph, a []graph.Node, opt Options) (*Result, error) {
	nodes, aIndex, err := targetIndex(g, a, &opt)
	if err != nil {
		return nil, err
	}
	space := &core.DirectSpace{
		K:   len(nodes),
		Dim: walkVCDim(opt.K, len(nodes)),
		Make: func(seed int64) core.Sampler {
			return newWalkSampler(g, aIndex, 1, opt.K, seed)
		},
	}
	est, err := core.Run(context.Background(), space, core.Options{
		Epsilon: opt.Epsilon, Delta: opt.Delta, Workers: opt.Workers, Seed: opt.Seed,
	})
	if err != nil {
		return nil, err
	}
	return &Result{Nodes: nodes, KPath: est.Risks, Est: est}, nil
}

func TestPartitionedNoFalseZeroForConnectedTargets(t *testing.T) {
	// Every target with at least one neighbor has positive 1-step mass, so
	// the partitioned estimate is never zero — the k-path analogue of
	// Lemma 19.
	g := testutil.RandomConnectedGraph(30, 20, 9)
	var a []graph.Node
	for v := 0; v < 30; v += 3 {
		a = append(a, graph.Node(v))
	}
	res, err := Estimate(context.Background(), g, a, Options{K: 3, Epsilon: 0.2, Delta: 0.1, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range res.Nodes {
		if g.Degree(v) > 0 && res.KPath[i] == 0 {
			t.Errorf("node %d has degree %d but zero estimate", v, g.Degree(v))
		}
	}
}

func TestPartitionedErrors(t *testing.T) {
	g := graph.Cycle(5)
	if _, err := Estimate(context.Background(), g, nil, Options{}); err == nil {
		t.Error("empty targets: want error")
	}
	if _, err := Estimate(context.Background(), g, []graph.Node{0}, Options{K: -2}); err == nil {
		t.Error("bad k: want error")
	}
	empty := graph.NewBuilder(0).Build()
	if _, err := Estimate(context.Background(), empty, []graph.Node{0}, Options{}); err == nil {
		t.Error("empty graph: want error")
	}
}
