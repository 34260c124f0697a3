package saphyra

import (
	"context"
	"testing"
)

// TestRankerBitwiseEqualsDeprecatedWrappers checks that a Ranker's answer
// does not depend on the Ranker's history: a fresh Ranker per call and a
// Ranker prepared eagerly for betweenness must answer bitwise-identically
// to one long-lived Ranker that serves all measures and algorithms in turn,
// including the whole-network query (no targets). View Rankers against
// graph Rankers are compared by TestViewBuildServeRoundTrip.
func TestRankerBitwiseEqualsDeprecatedWrappers(t *testing.T) {
	g := Generate.BarabasiAlbert(600, 3, 11)
	targets := []Node{3, 77, 300, 599}
	ctx := context.Background()
	shared := NewRanker(g)

	prepared := func() *Ranker { r := NewRanker(g); r.Prepare(Betweenness); return r }
	for _, q := range []Query{
		{Measure: Betweenness, Algorithm: AlgSaPHyRa, Targets: targets},
		{Measure: Betweenness, Algorithm: AlgABRA, Targets: targets},
		{Measure: Betweenness, Algorithm: AlgKADABRA, Targets: targets},
		{Measure: KPath, K: 4, Targets: targets},
		{Measure: Closeness, Targets: targets},
		{Measure: Betweenness, Algorithm: AlgSaPHyRa}, // no targets: the whole network
	} {
		q.Epsilon, q.Delta, q.Seed, q.Workers = 0.05, 0.05, 5, 4
		if q.Targets == nil {
			q.Epsilon, q.Delta, q.Seed, q.Workers = 0.1, 0.1, 2, 0
		}
		name := q.Measure.String() + "/" + q.Algorithm.String()
		want, err := shared.Rank(ctx, q)
		if err != nil {
			t.Fatalf("%s: shared ranker: %v", name, err)
		}
		for _, c := range []struct {
			shape string
			r     *Ranker
		}{
			{"fresh", NewRanker(g)},
			{"prepared", prepared()},
		} {
			got, err := c.r.Rank(ctx, q)
			if err != nil {
				t.Fatalf("%s/%s: %v", name, c.shape, err)
			}
			compareBitwise(t, name+"/"+c.shape, got, want)
		}
	}
}
