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
// The level on which the waves meet is the last one, and only its meet
// nodes (those the other wave has reached) can be on a shortest path. Once
// the scan of that level has found the first one, it stops discovering any
// other node: a neighbour the other wave has not reached is skipped, not
// stamped, queued or priced. The meet nodes are gathered as they are
// discovered, and σ still accumulates onto every node of the level already
// stamped, so distances, path counts and the meeting cut are those of the
// full level.
//
// State is epoch-stamped so consecutive queries cost O(touched), not O(n),
// and packed into one 32-byte record per node, so discovering a node touches
// one cache line rather than one per array.
type BiBFS struct {
	node           []biNode
	epoch          uint32
	frontF, frontB []graph.Node
	nextF, nextB   []graph.Node
	meet           []graph.Node // the meeting cut, in discovery order

	// Query results
	dist      int32
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
			levelF++
			if costF = b.expandF(g, levelF); costF < 0 {
				return b.finish(levelF, true)
			}
		} else {
			levelB++
			if costB = b.expandB(g, levelB); costB < 0 {
				return b.finish(levelB, false)
			}
		}
	}
	return 0, 0, false
}

// expandF scans the forward frontier into the next level and returns that
// level's total degree, or -1 when the level met the backward wave; then
// meetF has scanned the rest of the level and b.meet holds its meet nodes.
func (b *BiBFS) expandF(g *graph.Graph, level int32) int64 {
	ep := b.epoch
	next := b.nextF[:0]
	var cost int64
	for i, u := range b.frontF {
		su := b.node[u].sigF
		nbrs := g.Neighbors(u)
		for j, v := range nbrs {
			nv := &b.node[v]
			if nv.stampF != ep {
				nv.stampF, nv.distF, nv.sigF = ep, level, su
				if nv.stampB == ep {
					b.nextF = next // keep a regrown buffer
					b.meet = append(b.meet[:0], v)
					b.meetF(g, i, nbrs[j+1:], su, level)
					return -1
				}
				next = append(next, v)
				cost += int64(g.Degree(v))
			} else if nv.distF == level {
				nv.sigF += su
			}
		}
	}
	b.frontF, b.nextF = next, b.frontF
	return cost
}

// meetF finishes a forward level that has met the backward wave, from the
// neighbours rest of frontier node i on: it discovers only nodes the
// backward wave has reached, appending them to b.meet, and adds path counts
// to the level's nodes already stamped.
func (b *BiBFS) meetF(g *graph.Graph, i int, rest []graph.Node, su float64, level int32) {
	ep := b.epoch
	for {
		for _, v := range rest {
			nv := &b.node[v]
			if nv.stampF != ep {
				if nv.stampB != ep {
					continue
				}
				nv.stampF, nv.distF, nv.sigF = ep, level, su
				b.meet = append(b.meet, v)
			} else if nv.distF == level {
				nv.sigF += su
			}
		}
		if i++; i == len(b.frontF) {
			return
		}
		u := b.frontF[i]
		su, rest = b.node[u].sigF, g.Neighbors(u)
	}
}

// expandB is expandF for the backward wave.
func (b *BiBFS) expandB(g *graph.Graph, level int32) int64 {
	ep := b.epoch
	next := b.nextB[:0]
	var cost int64
	for i, u := range b.frontB {
		su := b.node[u].sigB
		nbrs := g.Neighbors(u)
		for j, v := range nbrs {
			nv := &b.node[v]
			if nv.stampB != ep {
				nv.stampB, nv.distB, nv.sigB = ep, level, su
				if nv.stampF == ep {
					b.nextB = next // keep a regrown buffer
					b.meet = append(b.meet[:0], v)
					b.meetB(g, i, nbrs[j+1:], su, level)
					return -1
				}
				next = append(next, v)
				cost += int64(g.Degree(v))
			} else if nv.distB == level {
				nv.sigB += su
			}
		}
	}
	b.frontB, b.nextB = next, b.frontB
	return cost
}

// meetB is meetF for the backward wave.
func (b *BiBFS) meetB(g *graph.Graph, i int, rest []graph.Node, su float64, level int32) {
	ep := b.epoch
	for {
		for _, v := range rest {
			nv := &b.node[v]
			if nv.stampB != ep {
				if nv.stampF != ep {
					continue
				}
				nv.stampB, nv.distB, nv.sigB = ep, level, su
				b.meet = append(b.meet, v)
			} else if nv.distB == level {
				nv.sigB += su
			}
		}
		if i++; i == len(b.frontB) {
			return
		}
		u := b.frontB[i]
		su, rest = b.node[u].sigB, g.Neighbors(u)
	}
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

// finish takes the meet nodes gathered on the completed level of the
// expanded side (forward when forward is set) as the meeting cut and sums
// their path-count products. Every one completes a shortest path: the other
// wave reached each at its current level, since a node it reached below
// that level had all its neighbours reached too, this wave's frontier among
// them, and the waves would have met a level earlier.
func (b *BiBFS) finish(level int32, forward bool) (int32, float64, bool) {
	first := &b.node[b.meet[0]]
	if forward {
		b.dist = level + first.distB
	} else {
		b.dist = level + first.distF
	}
	b.meetTotal = 0
	for _, u := range b.meet {
		b.meetTotal += b.node[u].sigF * b.node[u].sigB
	}
	return b.dist, b.meetTotal, true
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

// exactSigma bounds the path counts that are exact sums. Path counts are
// sums of integers, and float64 rounding is monotone and holds 2^53
// exactly, so a sum that reads below 2^53 never rounded: every partial sum
// in any order is exact, and the parents' counts add up to the stored count
// bit for bit whatever order they are added in.
const exactSigma = 1 << 53

// parentSigma is the total path count of x's parents in one wave (forward
// when forward is set), the weight a path-walk step draws against. Below
// exactSigma that is x's own count; above, the parents are added up again in
// adjacency order, the order the step scans them in.
func (b *BiBFS) parentSigma(g *graph.Graph, x graph.Node, forward bool) float64 {
	nx := &b.node[x]
	var total float64
	if forward {
		if nx.sigF < exactSigma {
			return nx.sigF
		}
		for _, w := range g.Neighbors(x) {
			if nw := &b.node[w]; nw.stampF == b.epoch && nw.distF == nx.distF-1 {
				total += nw.sigF
			}
		}
		return total
	}
	if nx.sigB < exactSigma {
		return nx.sigB
	}
	for _, w := range g.Neighbors(x) {
		if nw := &b.node[w]; nw.stampB == b.epoch && nw.distB == nx.distB-1 {
			total += nw.sigB
		}
	}
	return total
}

// stepDown picks a neighbor one level closer to the respective source,
// weighted by its sigma.
func (b *BiBFS) stepDown(g *graph.Graph, x graph.Node, rng Rand, forward bool) graph.Node {
	total := b.parentSigma(g, x, forward)
	target := rng.Float64() * total
	var acc float64
	var last graph.Node = -1
	if forward {
		want := b.node[x].distF - 1
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
			acc += nw.sigB
			last = w
			if acc >= target {
				return w
			}
		}
	}
	return last
}
