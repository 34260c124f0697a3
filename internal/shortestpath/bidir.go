package shortestpath

import (
	"saphyra/internal/graph"
)

// BiBFS is a reusable balanced bidirectional BFS workspace. Each Query runs
// two level-synchronous BFS waves from s and t, always expanding the side
// whose frontier is cheaper (smaller total degree), stopping as soon as the
// waves touch. On graphs with light-tailed degree distributions this
// explores O(sqrt(n)) nodes per query (Lemma 21 / Theorem 4 of [12]),
// which is what makes path-sampling estimators fast.
//
// State is epoch-stamped so consecutive queries cost O(touched), not O(n),
// and packed into one 32-byte record per node, so discovering a node touches
// one cache line rather than one per array.
type BiBFS struct {
	node           []biNode
	epoch          uint32
	frontF, frontB []graph.Node
	nextF, nextB   []graph.Node
	meet           []graph.Node

	// Query results
	s, t      graph.Node
	dist      int32
	sigma     float64
	cutSide   int8  // 0: cut on forward side, 1: cut on backward side
	cutLevel  int32 // completed level on the cut side where waves met
	meetTotal float64
}

// biNode is one node's state in both waves: a wave's distance and path
// count are valid only while its stamp equals the query's epoch.
type biNode struct {
	stampF, stampB uint32
	distF, distB   int32
	sigF, sigB     float64
}

// NewBiBFS returns a workspace for graphs of n nodes.
func NewBiBFS(n int) *BiBFS {
	return &BiBFS{node: make([]biNode, n)}
}

// Query computes the distance and the number of shortest paths between s and
// t. ok is false when t is unreachable from s (or s == t). After a
// successful Query, SamplePath draws uniform random shortest paths for the
// same pair.
func (b *BiBFS) Query(g *graph.Graph, s, t graph.Node) (dist int32, sigma float64, ok bool) {
	if s == t {
		return 0, 0, false
	}
	b.epoch++
	if b.epoch == 0 { // wrapped: reset stamps
		for i := range b.node {
			b.node[i].stampF = 0
			b.node[i].stampB = 0
		}
		b.epoch = 1
	}
	b.s, b.t = s, t
	b.evenFrontiers()
	ns, nt := &b.node[s], &b.node[t]
	ns.stampF, ns.distF, ns.sigF = b.epoch, 0, 1
	nt.stampB, nt.distB, nt.sigB = b.epoch, 0, 1
	b.frontF = append(b.frontF[:0], s)
	b.frontB = append(b.frontB[:0], t)
	levelF, levelB := int32(0), int32(0)
	// Frontier expansion costs (total degree) are maintained incrementally
	// while the next frontier is built, instead of being recomputed with an
	// extra pass over both frontiers at every level.
	costF, costB := int64(g.Degree(s)), int64(g.Degree(t))

	for len(b.frontF) > 0 && len(b.frontB) > 0 {
		if costF <= costB {
			b.nextF = b.nextF[:0]
			newLevel := levelF + 1
			met := false
			best := int32(1 << 30)
			var nextCost int64
			for _, u := range b.frontF {
				su := b.node[u].sigF
				for _, v := range g.Neighbors(u) {
					nv := &b.node[v]
					if nv.stampF != b.epoch {
						nv.stampF, nv.distF, nv.sigF = b.epoch, newLevel, su
						b.nextF = append(b.nextF, v)
						nextCost += int64(g.Degree(v))
						if nv.stampB == b.epoch {
							met = true
							if d := newLevel + nv.distB; d < best {
								best = d
							}
						}
					} else if nv.distF == newLevel {
						nv.sigF += su
					}
				}
			}
			levelF = newLevel
			b.frontF, b.nextF = b.nextF, b.frontF
			costF = nextCost
			if met {
				return b.finish(newLevel, best, 0)
			}
		} else {
			b.nextB = b.nextB[:0]
			newLevel := levelB + 1
			met := false
			best := int32(1 << 30)
			var nextCost int64
			for _, u := range b.frontB {
				su := b.node[u].sigB
				for _, v := range g.Neighbors(u) {
					nv := &b.node[v]
					if nv.stampB != b.epoch {
						nv.stampB, nv.distB, nv.sigB = b.epoch, newLevel, su
						b.nextB = append(b.nextB, v)
						nextCost += int64(g.Degree(v))
						if nv.stampF == b.epoch {
							met = true
							if d := newLevel + nv.distF; d < best {
								best = d
							}
						}
					} else if nv.distB == newLevel {
						nv.sigB += su
					}
				}
			}
			levelB = newLevel
			b.frontB, b.nextB = b.nextB, b.frontB
			costB = nextCost
			if met {
				return b.finish(newLevel, best, 1)
			}
		}
	}
	return 0, 0, false
}

// evenFrontiers gives the four frontier buffers the capacity of the largest.
// They trade roles level by level, so without it a frontier that outgrew one
// buffer would regrow each of the others in turn on later queries.
func (b *BiBFS) evenFrontiers() {
	c := max(cap(b.frontF), cap(b.nextF), cap(b.frontB), cap(b.nextB))
	for _, f := range [...]*[]graph.Node{&b.frontF, &b.nextF, &b.frontB, &b.nextB} {
		if cap(*f) < c {
			*f = make([]graph.Node, 0, c)
		}
	}
}

// finish collects the meeting cut: all nodes at the just-completed level of
// the expanded side whose other-side distance completes a path of length d.
func (b *BiBFS) finish(cutLevel, d int32, side int8) (int32, float64, bool) {
	b.dist = d
	b.cutSide = side
	b.cutLevel = cutLevel
	b.meet = b.meet[:0]
	b.meetTotal = 0
	var front []graph.Node
	if side == 0 {
		front = b.frontF
	} else {
		front = b.frontB
	}
	other := d - cutLevel
	for _, u := range front {
		nu := &b.node[u]
		if side == 0 {
			if nu.stampB == b.epoch && nu.distB == other {
				b.meet = append(b.meet, u)
				b.meetTotal += nu.sigF * nu.sigB
			}
		} else {
			if nu.stampF == b.epoch && nu.distF == other {
				b.meet = append(b.meet, u)
				b.meetTotal += nu.sigF * nu.sigB
			}
		}
	}
	b.sigma = b.meetTotal
	return b.dist, b.sigma, true
}

// SamplePath draws a uniform random shortest path s..t for the pair of the
// last successful Query. The returned slice is freshly allocated.
func (b *BiBFS) SamplePath(g *graph.Graph, rng Rand) []graph.Node {
	return b.SamplePathAppend(g, rng, nil)
}

// SamplePathAppend is SamplePath writing into buf (overwritten and grown as
// needed), so a caller-owned buffer makes repeated sampling allocation-free.
func (b *BiBFS) SamplePathAppend(g *graph.Graph, rng Rand, buf []graph.Node) []graph.Node {
	if len(b.meet) == 0 {
		return nil
	}
	// pick the meeting node proportionally to sigF * sigB
	target := rng.Float64() * b.meetTotal
	var acc float64
	u := b.meet[len(b.meet)-1]
	for _, v := range b.meet {
		acc += b.node[v].sigF * b.node[v].sigB
		if acc >= target {
			u = v
			break
		}
	}
	need := int(b.dist) + 1
	if cap(buf) < need {
		buf = make([]graph.Node, need)
	}
	path := buf[:need]
	path[b.node[u].distF] = u
	// walk to s through the forward DAG
	x := u
	for b.node[x].distF > 0 {
		x = b.stepDown(g, x, rng, true)
		path[b.node[x].distF] = x
	}
	// walk to t through the backward DAG
	x = u
	for b.node[x].distB > 0 {
		x = b.stepDown(g, x, rng, false)
		path[b.dist-b.node[x].distB] = x
	}
	return path
}

// stepDown picks a neighbor one level closer to the respective source,
// weighted by its sigma.
func (b *BiBFS) stepDown(g *graph.Graph, x graph.Node, rng Rand, forward bool) graph.Node {
	var total float64
	if forward {
		want := b.node[x].distF - 1
		for _, w := range g.Neighbors(x) {
			if nw := &b.node[w]; nw.stampF == b.epoch && nw.distF == want {
				total += nw.sigF
			}
		}
		target := rng.Float64() * total
		var acc float64
		var last graph.Node = -1
		for _, w := range g.Neighbors(x) {
			if nw := &b.node[w]; nw.stampF == b.epoch && nw.distF == want {
				acc += nw.sigF
				last = w
				if acc >= target {
					return w
				}
			}
		}
		return last
	}
	want := b.node[x].distB - 1
	for _, w := range g.Neighbors(x) {
		if nw := &b.node[w]; nw.stampB == b.epoch && nw.distB == want {
			total += nw.sigB
		}
	}
	target := rng.Float64() * total
	var acc float64
	var last graph.Node = -1
	for _, w := range g.Neighbors(x) {
		if nw := &b.node[w]; nw.stampB == b.epoch && nw.distB == want {
			acc += nw.sigB
			last = w
			if acc >= target {
				return w
			}
		}
	}
	return last
}
