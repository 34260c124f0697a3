package shortestpath

import (
	"math/rand/v2"
	"testing"

	"saphyra/internal/graph"
)

// TestRunTruncatedMatchesFull checks that within the truncation radius the
// truncated BFS produces exactly the Dist/Sigma values of a full Run, across
// many random graphs, sources, and target sets, including back-to-back
// truncated runs exercising the sparse reset.
func TestRunTruncatedMatchesFull(t *testing.T) {
	rng := rand.New(rand.NewPCG(42, 43))
	for trial := 0; trial < 30; trial++ {
		n := 30 + int(rng.IntN(80))
		g := graph.BarabasiAlbert(n, 2, int64(trial))
		full := NewDAG(n)
		trunc := NewDAG(n)
		for rep := 0; rep < 8; rep++ {
			src := graph.Node(rng.IntN(n))
			k := 1 + rng.IntN(5)
			targets := make([]graph.Node, 0, k)
			for len(targets) < k {
				v := graph.Node(rng.IntN(n))
				if v != src {
					targets = append(targets, v)
				}
			}
			full.Run(g, src)
			trunc.RunTruncated(g, src, targets)
			for _, tgt := range targets {
				if trunc.Dist[tgt] != full.Dist[tgt] {
					t.Fatalf("trial %d: Dist[%d] = %d, want %d", trial, tgt, trunc.Dist[tgt], full.Dist[tgt])
				}
				if full.Dist[tgt] >= 0 && trunc.Sigma[tgt] != full.Sigma[tgt] {
					t.Fatalf("trial %d: Sigma[%d] = %g, want %g", trial, tgt, trunc.Sigma[tgt], full.Sigma[tgt])
				}
			}
			// every node the truncated run settled agrees with the full run,
			// Sigma included: ABRA's pair dependencies read both below t
			for _, u := range trunc.Order {
				if trunc.Dist[u] != full.Dist[u] || trunc.Sigma[u] != full.Sigma[u] {
					t.Fatalf("trial %d: touched node %d Dist/Sigma %d/%g != full %d/%g", trial, u,
						trunc.Dist[u], trunc.Sigma[u], full.Dist[u], full.Sigma[u])
				}
			}
		}
	}
}

// TestRunTruncatedUnreachable: targets in another component read as Dist -1.
func TestRunTruncatedUnreachable(t *testing.T) {
	// two disjoint edges: 0-1, 2-3
	g := graph.FromEdges(4, []graph.Edge{{U: 0, V: 1}, {U: 2, V: 3}})
	d := NewDAG(4)
	d.RunTruncated(g, 0, []graph.Node{3})
	if d.Dist[3] != -1 {
		t.Fatalf("Dist[3] = %d, want -1", d.Dist[3])
	}
	if d.Dist[1] != 1 {
		t.Fatalf("Dist[1] = %d, want 1", d.Dist[1])
	}
}

// TestRunTruncatedSingleTargetMatchesFull: a run truncated at one target
// on a 200-node graph, as ABRA runs it per sampled pair, reads the full
// Run's Dist and Sigma at the target and at every node it settled, and an
// unreachable target reads Dist -1.
func TestRunTruncatedSingleTargetMatchesFull(t *testing.T) {
	g := graph.BarabasiAlbert(200, 3, 7)
	d := NewDAG(200)
	full := NewDAG(200)
	rng := rand.New(rand.NewPCG(9, 9))
	for rep := 0; rep < 50; rep++ {
		src := graph.Node(rng.IntN(200))
		tgt := graph.Node(rng.IntN(200))
		if src == tgt {
			continue
		}
		d.RunTruncated(g, src, []graph.Node{tgt})
		full.Run(g, src)
		if d.Dist[tgt] != full.Dist[tgt] || d.Sigma[tgt] != full.Sigma[tgt] {
			t.Fatalf("rep %d: target %d Dist/Sigma %d/%g, full %d/%g", rep, tgt,
				d.Dist[tgt], d.Sigma[tgt], full.Dist[tgt], full.Sigma[tgt])
		}
		for _, u := range d.Order {
			if d.Dist[u] != full.Dist[u] || d.Sigma[u] != full.Sigma[u] {
				t.Fatalf("rep %d: settled node %d Dist/Sigma %d/%g, full %d/%g", rep, u,
					d.Dist[u], d.Sigma[u], full.Dist[u], full.Sigma[u])
			}
		}
	}
}
