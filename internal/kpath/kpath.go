// Package kpath implements k-path centrality estimation [38], the paper's
// second running example of a sampling-estimable centrality (Section II-A).
//
// A sample is a random walk: pick a start node u uniformly, pick a length l
// uniformly from {1..k}, then take l uniform random-neighbor steps (stopping
// early at isolated dead ends). The k-path centrality of v is the
// probability that v is visited by such a walk after the start, i.e. the
// expected risk of the hypothesis h_v(x) = 1{v in x \ {start}}.
//
// Estimate is one instantiation of the SaPHyRa framework with a partitioned
// sample space (partitioned.go): the walks of intended length 1 are the
// exact subspace, a 1/k share of the space whose risks have an O(m) closed
// form, and only walks of length 2..k are sampled. Low-centrality nodes
// collect most of their k-path mass from 1-step walks, so the exact term
// takes it out of the sampling variance, and a target with at least one
// neighbor never gets a zero estimate.
//
// Determinism: walks are drawn on the core engine's fixed virtual-worker
// streams and the exact phase is chunked by sched.Bounds with per-target
// writes, so for a fixed seed the estimate is bitwise-identical at any
// Options.Workers value. The walk sampler indexes neighbor lists with
// random variates, which makes the *order* of each adjacency list part of
// that contract — it therefore always reads the graph's sorted CSR (a
// view's embedded graph), never the block-grouped arrays; see the
// determinism notes in DESIGN.md sections 3 and 7.
package kpath

import (
	"errors"
	"fmt"
	"runtime"

	"saphyra/internal/core"
	"saphyra/internal/graph"
	"saphyra/internal/params"
	"saphyra/internal/vc"
)

// Options configures the estimator.
type Options struct {
	K       int     // maximum walk length in edges; default 3
	Epsilon float64 // additive error; default 0.05
	Delta   float64 // failure probability; default 0.01
	Workers int     // goroutines; the result does not depend on this
	Seed    int64   // fixed seed => bitwise-identical output at any worker count
}

func (o *Options) setDefaults() {
	if o.K == 0 {
		o.K = 3
	}
	if o.Epsilon == 0 {
		o.Epsilon = 0.05
	}
	if o.Delta == 0 {
		o.Delta = 0.01
	}
	if o.Workers <= 0 {
		o.Workers = runtime.GOMAXPROCS(0)
	}
}

// Result holds k-path centrality estimates for the target set.
type Result struct {
	Nodes []graph.Node
	KPath []float64
	Est   *core.Estimate
}

// targetIndex validates the inputs and builds the sorted target set with its
// node -> target-index map (-1 for non-targets).
// Validation goes through the shared internal/params checks, so an invalid
// eps/delta/k or an out-of-range target returns a typed error the serving
// layer can classify as caller fault (params.IsBadInput).
func targetIndex(g *graph.Graph, a []graph.Node, opt *Options) (nodes []graph.Node, aIndex []int32, err error) {
	opt.setDefaults()
	n := g.NumNodes()
	if n == 0 {
		return nil, nil, errors.New("kpath: empty graph")
	}
	if err := params.CheckEpsDelta(opt.Epsilon, opt.Delta); err != nil {
		return nil, nil, fmt.Errorf("kpath: %w", err)
	}
	if err := params.CheckK(opt.K); err != nil {
		return nil, nil, fmt.Errorf("kpath: %w", err)
	}
	if err := params.CheckTargets(a, n); err != nil {
		return nil, nil, fmt.Errorf("kpath: %w", err)
	}
	nodes = graph.DedupSorted(a)
	aIndex = make([]int32, n)
	for i := range aIndex {
		aIndex[i] = -1
	}
	for i, v := range nodes {
		aIndex[v] = int32(i)
	}
	return nodes, aIndex, nil
}

// walkVCDim bounds the VC dimension of the walk hypothesis class: a walk
// visits at most k nodes after the start, so at most min(k, |A|) hypotheses
// fire per sample (Lemma 5).
func walkVCDim(k, targets int) int {
	piMax := int64(k)
	if int64(targets) < piMax {
		piMax = int64(targets)
	}
	return max(1, vc.DimFromMaxInner(piMax))
}

// Exact computes the exact k-path centrality of every node by dynamic
// programming over walk distributions: occupancy vectors are propagated k
// steps and first-visit probabilities accumulated. O(k * n * m); for tests
// and small graphs.
//
// Because "v visited at least once" is not Markovian in the node marginal,
// the DP enumerates walks explicitly with memoized distributions only for
// graphs where that is feasible; here we use direct path enumeration with
// probability weights, exponential in k -- keep k and degrees small.
func Exact(g *graph.Graph, k int) []float64 {
	n := g.NumNodes()
	out := make([]float64, n)
	if n == 0 {
		return out
	}
	visited := make(map[graph.Node]bool, k+1)
	var walk func(u graph.Node, stepsLeft int, prob float64)
	walk = func(u graph.Node, stepsLeft int, prob float64) {
		if stepsLeft == 0 {
			return
		}
		nbrs := g.Neighbors(u)
		if len(nbrs) == 0 {
			return
		}
		p := prob / float64(len(nbrs))
		for _, w := range nbrs {
			first := !visited[w]
			if first {
				visited[w] = true
				out[w] += p
			}
			walk(w, stepsLeft-1, p)
			if first {
				delete(visited, w)
			}
		}
	}
	for u := graph.Node(0); int(u) < n; u++ {
		for l := 1; l <= k; l++ {
			visited[u] = true
			walk(u, l, 1.0/(float64(n)*float64(k)))
			delete(visited, u)
		}
	}
	return out
}
