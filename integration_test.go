package saphyra

// Integration tests exercising the full pipeline across package boundaries:
// dataset stand-ins -> preprocessing -> estimation -> ranking -> metrics.

import (
	"context"
	"math"
	"sync"
	"testing"

	"saphyra/internal/datasets"
	"saphyra/internal/exact"
	"saphyra/internal/graph"
)

// Every dataset stand-in must satisfy the (eps, delta) guarantee end to end
// through the public API.
func TestIntegrationStandInsWithinEpsilon(t *testing.T) {
	for _, net := range datasets.All {
		net := net
		t.Run(net.Name, func(t *testing.T) {
			g := net.Build(0.03)
			truth := exact.BCParallel(g, 0)
			subset := datasets.RandomSubsets(g.NumNodes(), 30, 1, 5)[0]
			res, err := rankGraph(g, Query{Targets: subset, Epsilon: 0.05, Delta: 0.01, Seed: 9})
			if err != nil {
				t.Fatal(err)
			}
			for i, v := range res.Nodes {
				if math.Abs(res.Scores[i]-truth[v]) > 0.05 {
					t.Errorf("node %d: est %g truth %g", v, res.Scores[i], truth[v])
				}
			}
		})
	}
}

// Lemma 19 at the API level: positive-betweenness targets never get a zero
// estimate, on every stand-in.
func TestIntegrationNoFalseZeros(t *testing.T) {
	for _, net := range datasets.All {
		g := net.Build(0.03)
		truth := exact.BCParallel(g, 0)
		subset := datasets.RandomSubsets(g.NumNodes(), 50, 1, 7)[0]
		res, err := rankGraph(g, Query{Targets: subset, Epsilon: 0.2, Delta: 0.1, Seed: 3})
		if err != nil {
			t.Fatal(err)
		}
		for i, v := range res.Nodes {
			if truth[v] > 1e-15 && res.Scores[i] == 0 {
				t.Errorf("%s: false zero at node %d (truth %g)", net.Name, v, truth[v])
			}
			if truth[v] == 0 && res.Scores[i] != 0 {
				// True zeros must also be estimated as exactly zero: a node
				// with bc = 0 has bca = 0 and can never be an inner node of
				// any sampled path, nor appear in the exact subspace.
				t.Errorf("%s: nonzero estimate %g at true-zero node %d", net.Name, res.Scores[i], v)
			}
		}
	}
}

// Concurrent subset rankings sharing one Ranker must be safe (the
// decomposition memoizes block diameters behind a mutex) and identical to
// sequential runs.
func TestIntegrationConcurrentPreprocessedUse(t *testing.T) {
	g := Generate.PowerLawCluster(400, 4, 0.3, 11)
	ctx := context.Background()
	mkQuery := func(i int, sub []Node) Query {
		return Query{Targets: sub, Epsilon: 0.1, Delta: 0.1, Seed: int64(i), Workers: 1}
	}
	subsets := datasets.RandomSubsets(g.NumNodes(), 20, 8, 13)

	r := NewRanker(g)
	sequential := make([][]float64, len(subsets))
	for i, sub := range subsets {
		res, err := r.Rank(ctx, mkQuery(i, sub))
		if err != nil {
			t.Fatal(err)
		}
		sequential[i] = res.Scores
	}

	r2 := NewRanker(g)
	var wg sync.WaitGroup
	concurrent := make([][]float64, len(subsets))
	errs := make([]error, len(subsets))
	for i, sub := range subsets {
		wg.Add(1)
		go func(i int, sub []Node) {
			defer wg.Done()
			res, err := r2.Rank(ctx, mkQuery(i, sub))
			if err != nil {
				errs[i] = err
				return
			}
			concurrent[i] = res.Scores
		}(i, sub)
	}
	wg.Wait()
	for i := range subsets {
		if errs[i] != nil {
			t.Fatal(errs[i])
		}
		for j := range sequential[i] {
			if sequential[i][j] != concurrent[i][j] {
				t.Fatalf("subset %d: concurrent run diverged from sequential", i)
			}
		}
	}
}

// The subset estimator must agree with the full-network estimator on shared
// targets within 2*eps (both are eps-accurate to the same truth).
func TestIntegrationSubsetVsFullConsistency(t *testing.T) {
	g := Generate.BarabasiAlbert(300, 3, 21)
	subset := []Node{5, 50, 100, 200, 299}
	resSub, err := rankGraph(g, Query{Targets: subset, Epsilon: 0.05, Delta: 0.01, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	resFull, err := rankGraph(g, Query{Epsilon: 0.05, Delta: 0.01, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	full := make(map[Node]float64, len(resFull.Nodes))
	for i, v := range resFull.Nodes {
		full[v] = resFull.Scores[i]
	}
	for i, v := range resSub.Nodes {
		if d := math.Abs(resSub.Scores[i] - full[v]); d > 0.1 {
			t.Errorf("node %d: subset %g vs full %g differ by %g", v, resSub.Scores[i], full[v], d)
		}
	}
}

// Cutpoint-dominated graphs: the exact bca term must carry through the API
// byte-for-byte (trees need no sampling at all).
func TestIntegrationTreeExactness(t *testing.T) {
	g := Generate.RandomTree(500, 8)
	truth := exact.BC(g)
	subset := datasets.RandomSubsets(500, 40, 1, 3)[0]
	res, err := rankGraph(g, Query{Targets: subset, Epsilon: 0.05, Delta: 0.01, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.Samples != 0 {
		// Trees have no inner-node mass, so the adaptive sampler should
		// stop at its first, zero-variance round with no or very few
		// samples; the estimates must still be exact.
		t.Logf("tree run used %d samples (expected ~0)", res.Samples)
	}
	for i, v := range res.Nodes {
		if math.Abs(res.Scores[i]-truth[v]) > 1e-9 {
			t.Errorf("node %d: est %.12g truth %.12g (trees must be exact)", v, res.Scores[i], truth[v])
		}
	}
}

// Road-area workload through the public API: every area ranking must be
// accurate against the full-network ground truth.
func TestIntegrationRoadAreas(t *testing.T) {
	side := datasets.RoadSide(0.05)
	g := datasets.USARoad.Build(0.05)
	truth := exact.BCParallel(g, 0)
	r := NewRanker(g)
	for _, area := range datasets.Areas(side) {
		res, err := r.Rank(context.Background(), Query{Targets: area.Nodes, Epsilon: 0.1, Delta: 0.05, Seed: 4})
		if err != nil {
			t.Fatalf("%s: %v", area.Name, err)
		}
		for i, v := range res.Nodes {
			if math.Abs(res.Scores[i]-truth[v]) > 0.1 {
				t.Errorf("%s node %d: est %g truth %g", area.Name, v, res.Scores[i], truth[v])
			}
		}
	}
}

// Baselines and SaPHyRa must agree on the identity of the top hub in a
// hub-dominated graph.
func TestIntegrationTopHubAgreement(t *testing.T) {
	g := Generate.BarabasiAlbert(400, 2, 31)
	hub := graph.Node(0)
	best := -1
	for v := 0; v < g.NumNodes(); v++ {
		if d := g.Degree(graph.Node(v)); d > best {
			best = d
			hub = graph.Node(v)
		}
	}
	subset := []Node{hub, 100, 200, 300, 399}
	for _, m := range []Algorithm{AlgSaPHyRa, AlgKADABRA, AlgABRA} {
		res, err := rankGraph(g, Query{Algorithm: m, Targets: subset, Epsilon: 0.05, Delta: 0.01, Seed: 5})
		if err != nil {
			t.Fatal(err)
		}
		for i, v := range res.Nodes {
			if v == hub && res.Rank[i] != 1 {
				t.Errorf("%v: hub %d ranked %d, want 1", m, hub, res.Rank[i])
			}
		}
	}
}
