package saphyra

import (
	"context"
	"path/filepath"
	"testing"
)

// TestViewBuildServeRoundTrip exercises the public build-once/serve-many
// flow: build a view, serialize it, reopen it mmap-backed, and check that
// the view's Ranker answers every measure (betweenness under all three
// algorithms, k-path, closeness) bitwise-identically to a Ranker over the
// in-memory graph.
func TestViewBuildServeRoundTrip(t *testing.T) {
	g := Generate.BarabasiAlbert(800, 3, 12)
	targets := []Node{7, 100, 500, 777}

	ids := make([]int64, g.NumNodes())
	for i := range ids {
		ids[i] = int64(i) * 3 // a non-identity external id space
	}
	path := filepath.Join(t.TempDir(), "g.sbcv")
	if err := BuildView(g, ids).WriteFile(path); err != nil {
		t.Fatal(err)
	}
	view, err := OpenView(path)
	if err != nil {
		t.Fatal(err)
	}
	defer view.Close()

	if got := view.Graph(); got.NumNodes() != g.NumNodes() || got.NumEdges() != g.NumEdges() {
		t.Fatalf("mapped graph is %d/%d, want %d/%d",
			got.NumNodes(), got.NumEdges(), g.NumNodes(), g.NumEdges())
	}
	gotIDs := view.IDs()
	if len(gotIDs) != len(ids) {
		t.Fatalf("id map length %d, want %d", len(gotIDs), len(ids))
	}
	for i := range ids {
		if gotIDs[i] != ids[i] {
			t.Fatalf("IDs[%d] = %d, want %d", i, gotIDs[i], ids[i])
		}
	}

	gr, vr := NewRanker(g), view.Ranker()
	for _, q := range []Query{
		{Measure: Betweenness, Algorithm: AlgSaPHyRa},
		{Measure: Betweenness, Algorithm: AlgABRA},
		{Measure: Betweenness, Algorithm: AlgKADABRA},
		{Measure: KPath, K: 4},
		{Measure: Closeness},
	} {
		q.Targets = targets
		q.Epsilon, q.Delta, q.Seed, q.Workers = 0.05, 0.05, 5, 4
		name := q.Measure.String() + "/" + q.Algorithm.String()
		want, err := gr.Rank(context.Background(), q)
		if err != nil {
			t.Fatalf("%s: graph: %v", name, err)
		}
		got, err := vr.Rank(context.Background(), q)
		if err != nil {
			t.Fatalf("%s: view: %v", name, err)
		}
		compareBitwise(t, name, got, want)
	}
}

// TestRankSubsetRejectsBadTargets: the typed validation surfaces through
// the public API for every measure and algorithm.
func TestRankSubsetRejectsBadTargets(t *testing.T) {
	g := Generate.BarabasiAlbert(50, 2, 1)
	for _, q := range []Query{
		{Measure: Betweenness, Algorithm: AlgSaPHyRa},
		{Measure: Betweenness, Algorithm: AlgABRA},
		{Measure: Betweenness, Algorithm: AlgKADABRA},
		{Measure: KPath},
		{Measure: Closeness},
	} {
		q.Targets = []Node{999}
		if _, err := rankGraph(g, q); err == nil {
			t.Errorf("%v/%v: out-of-range target accepted", q.Measure, q.Algorithm)
		}
	}
}

// TestRankSubsetWorkerIndependent: the public API contract — fixed seed
// gives bitwise-identical rankings regardless of Workers.
func TestRankSubsetWorkerIndependent(t *testing.T) {
	g := Generate.PowerLawCluster(500, 3, 0.3, 3)
	targets := []Node{1, 9, 99, 420}
	run := func(workers int) *Result {
		res, err := rankGraph(g, Query{Targets: targets, Epsilon: 0.05, Delta: 0.05, Seed: 6, Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	ref := run(1)
	for _, workers := range []int{3, 8} {
		got := run(workers)
		for i := range ref.Scores {
			if got.Scores[i] != ref.Scores[i] {
				t.Fatalf("workers=%d: score[%d] = %v, want %v", workers, i, got.Scores[i], ref.Scores[i])
			}
		}
	}
}
