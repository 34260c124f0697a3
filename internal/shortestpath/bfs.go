// Package shortestpath provides shortest-path machinery for unweighted
// graphs: single-source BFS DAGs with path counts (sigma), balanced
// bidirectional BFS (the sample generator of KADABRA [12] and of the
// paper's Gen_bc) with uniform random shortest-path sampling.
//
// Path counts use float64 throughout: sigma grows exponentially on grid-like
// graphs (binomial in the grid dimensions) and overflows int64 long before
// graphs become interesting. This matches standard practice in Brandes
// implementations.
package shortestpath

import (
	"saphyra/internal/graph"
)

// Rand is the uniform-variate source the samplers consume. Both math/rand
// and math/rand/v2 generators satisfy it, so callers can feed the package
// from the legacy *rand.Rand or from the faster PCG-backed rand/v2.
type Rand interface {
	Float64() float64
}

// DAG is a reusable single-source BFS workspace holding, after a call to
// Run, the distance and path-count arrays plus the BFS visit order.
type DAG struct {
	Dist   []int32
	Sigma  []float64
	Order  []graph.Node // nodes in BFS (non-decreasing distance) order
	Source graph.Node

	// truncated-run scratch (lazily allocated by RunTruncated)
	tmark   []int32
	pending []graph.Node
	tepoch  int32
}

// NewDAG returns a workspace for graphs of n nodes. Dist starts at -1
// everywhere (the "clean" state RunTruncated relies on).
func NewDAG(n int) *DAG {
	d := &DAG{
		Dist:  make([]int32, n),
		Sigma: make([]float64, n),
		Order: make([]graph.Node, 0, n),
	}
	for i := range d.Dist {
		d.Dist[i] = -1
	}
	return d
}

// Run executes a full BFS from source, filling Dist (-1 when unreachable),
// Sigma (number of shortest paths from source) and Order.
func (d *DAG) Run(g *graph.Graph, source graph.Node) {
	for i := range d.Dist {
		d.Dist[i] = -1
		d.Sigma[i] = 0
	}
	d.Order = d.Order[:0]
	d.Source = source
	d.Dist[source] = 0
	d.Sigma[source] = 1
	d.Order = append(d.Order, source)
	for head := 0; head < len(d.Order); head++ {
		u := d.Order[head]
		du := d.Dist[u]
		su := d.Sigma[u]
		for _, v := range g.Neighbors(u) {
			switch {
			case d.Dist[v] == -1:
				d.Dist[v] = du + 1
				d.Sigma[v] = su
				d.Order = append(d.Order, v)
			case d.Dist[v] == du+1:
				d.Sigma[v] += su
			}
		}
	}
}

// RunTruncated executes a BFS from source that stops as soon as Dist and
// Sigma are final for every node of targets, so the cost is proportional to
// the ball that encloses the targets, not to the whole component. Two
// further economies over a plain truncated BFS:
//
//   - pull-finish: before expanding a level l, if every still-unfound target
//     has a neighbor at level l, each target's sigma is pulled directly from
//     those (final) neighbors and the expansion of level l — on
//     small-diameter graphs, the bulk of the ball — is skipped entirely;
//   - sparse reset: only state touched by the previous (full or truncated)
//     run is cleared — O(touched), not O(n) — which is what makes serving
//     many sources per batch cheap.
//
// After RunTruncated, Dist/Sigma/Order are valid for every node settled by
// the traversal; nodes beyond the truncation radius read as unreachable
// (Dist -1).
func (d *DAG) RunTruncated(g *graph.Graph, source graph.Node, targets []graph.Node) {
	if d.tmark == nil {
		d.tmark = make([]int32, len(d.Dist))
		for i := range d.tmark {
			d.tmark[i] = -1
		}
	}
	d.tepoch++
	if d.tepoch < 0 { // wrapped: reset stamps
		for i := range d.tmark {
			d.tmark[i] = -1
		}
		d.tepoch = 1
	}
	remaining := 0
	d.pending = d.pending[:0]
	for _, t := range targets {
		if d.tmark[t] != d.tepoch {
			d.tmark[t] = d.tepoch
			d.pending = append(d.pending, t)
			remaining++
		}
	}
	// Sparse reset of the previous run.
	for _, u := range d.Order {
		d.Dist[u] = -1
		d.Sigma[u] = 0
	}
	d.Order = d.Order[:0]
	d.Source = source
	d.Dist[source] = 0
	d.Sigma[source] = 1
	d.Order = append(d.Order, source)
	if d.tmark[source] == d.tepoch {
		d.tmark[source] = d.tepoch - 1
		remaining--
	}
	lo, hi := 0, 1 // current level's slice of Order
	for lvl := int32(0); lo < hi; lvl++ {
		if remaining == 0 {
			// Every target was discovered at a level <= lvl; the expansion
			// of lvl-1 has already finalized their sigmas.
			break
		}
		// The pull check costs O(deg(pending)); attempt it only when the
		// frontier about to be expanded dwarfs the pending set, so thin
		// frontiers (large-diameter graphs) never pay for failed pulls.
		if hi-lo > 4*remaining && d.tryPull(g, lvl) {
			break
		}
		// Expand level lvl.
		for _, u := range d.Order[lo:hi] {
			su := d.Sigma[u]
			for _, v := range g.Neighbors(u) {
				switch {
				case d.Dist[v] == -1:
					d.Dist[v] = lvl + 1
					d.Sigma[v] = su
					d.Order = append(d.Order, v)
					if d.tmark[v] == d.tepoch {
						d.tmark[v] = d.tepoch - 1
						remaining--
					}
				case d.Dist[v] == lvl+1:
					d.Sigma[v] += su
				}
			}
		}
		lo, hi = hi, len(d.Order)
	}
}

// tryPull attempts the pull-finish: if every still-unfound target has a
// neighbor at the (fully settled) level lvl, all of them sit at lvl+1 and
// their sigmas are the sums over those neighbors. On success the targets
// are settled and recorded in Order, and the caller skips the expansion of
// level lvl.
func (d *DAG) tryPull(g *graph.Graph, lvl int32) bool {
	for _, t := range d.pending {
		if d.tmark[t] != d.tepoch {
			continue // found by the regular expansion
		}
		found := false
		for _, w := range g.Neighbors(t) {
			if d.Dist[w] == lvl {
				found = true
				break
			}
		}
		if !found {
			return false
		}
	}
	for _, t := range d.pending {
		if d.tmark[t] != d.tepoch {
			continue
		}
		var sig float64
		for _, w := range g.Neighbors(t) {
			if d.Dist[w] == lvl {
				sig += d.Sigma[w]
			}
		}
		d.Dist[t] = lvl + 1
		d.Sigma[t] = sig
		d.Order = append(d.Order, t)
		d.tmark[t] = d.tepoch - 1
	}
	return true
}
