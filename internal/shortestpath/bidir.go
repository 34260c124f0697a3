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
// State is epoch-stamped so consecutive queries cost O(touched), not O(n).
type BiBFS struct {
	distF, distB   []int32
	sigF, sigB     []float64
	stampF, stampB []uint32
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

// NewBiBFS returns a workspace for graphs of n nodes.
func NewBiBFS(n int) *BiBFS {
	return &BiBFS{
		distF:  make([]int32, n),
		distB:  make([]int32, n),
		sigF:   make([]float64, n),
		sigB:   make([]float64, n),
		stampF: make([]uint32, n),
		stampB: make([]uint32, n),
	}
}

func (b *BiBFS) seenF(u graph.Node) bool { return b.stampF[u] == b.epoch }
func (b *BiBFS) seenB(u graph.Node) bool { return b.stampB[u] == b.epoch }

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
		for i := range b.stampF {
			b.stampF[i] = 0
			b.stampB[i] = 0
		}
		b.epoch = 1
	}
	b.s, b.t = s, t
	b.evenFrontiers()
	b.stampF[s] = b.epoch
	b.distF[s] = 0
	b.sigF[s] = 1
	b.stampB[t] = b.epoch
	b.distB[t] = 0
	b.sigB[t] = 1
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
				su := b.sigF[u]
				for _, v := range g.Neighbors(u) {
					if !b.seenF(v) {
						b.stampF[v] = b.epoch
						b.distF[v] = newLevel
						b.sigF[v] = su
						b.nextF = append(b.nextF, v)
						nextCost += int64(g.Degree(v))
						if b.seenB(v) {
							met = true
							if d := newLevel + b.distB[v]; d < best {
								best = d
							}
						}
					} else if b.distF[v] == newLevel {
						b.sigF[v] += su
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
				su := b.sigB[u]
				for _, v := range g.Neighbors(u) {
					if !b.seenB(v) {
						b.stampB[v] = b.epoch
						b.distB[v] = newLevel
						b.sigB[v] = su
						b.nextB = append(b.nextB, v)
						nextCost += int64(g.Degree(v))
						if b.seenF(v) {
							met = true
							if d := newLevel + b.distF[v]; d < best {
								best = d
							}
						}
					} else if b.distB[v] == newLevel {
						b.sigB[v] += su
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
		if side == 0 {
			if b.seenB(u) && b.distB[u] == other {
				b.meet = append(b.meet, u)
				b.meetTotal += b.sigF[u] * b.sigB[u]
			}
		} else {
			if b.seenF(u) && b.distF[u] == other {
				b.meet = append(b.meet, u)
				b.meetTotal += b.sigF[u] * b.sigB[u]
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
		acc += b.sigF[v] * b.sigB[v]
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
	path[b.distF[u]] = u
	// walk to s through the forward DAG
	x := u
	for b.distF[x] > 0 {
		x = b.stepDown(g, x, rng, true)
		path[b.distF[x]] = x
	}
	// walk to t through the backward DAG
	x = u
	for b.distB[x] > 0 {
		x = b.stepDown(g, x, rng, false)
		path[b.dist-b.distB[x]] = x
	}
	return path
}

// stepDown picks a neighbor one level closer to the respective source,
// weighted by its sigma.
func (b *BiBFS) stepDown(g *graph.Graph, x graph.Node, rng Rand, forward bool) graph.Node {
	var total float64
	if forward {
		want := b.distF[x] - 1
		for _, w := range g.Neighbors(x) {
			if b.seenF(w) && b.distF[w] == want {
				total += b.sigF[w]
			}
		}
		target := rng.Float64() * total
		var acc float64
		var last graph.Node = -1
		for _, w := range g.Neighbors(x) {
			if b.seenF(w) && b.distF[w] == want {
				acc += b.sigF[w]
				last = w
				if acc >= target {
					return w
				}
			}
		}
		return last
	}
	want := b.distB[x] - 1
	for _, w := range g.Neighbors(x) {
		if b.seenB(w) && b.distB[w] == want {
			total += b.sigB[w]
		}
	}
	target := rng.Float64() * total
	var acc float64
	var last graph.Node = -1
	for _, w := range g.Neighbors(x) {
		if b.seenB(w) && b.distB[w] == want {
			acc += b.sigB[w]
			last = w
			if acc >= target {
				return w
			}
		}
	}
	return last
}
