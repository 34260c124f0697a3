// Package vc implements the VC-dimension bounds of the paper (Lemma 5,
// Corollary 22, Lemma 23, Table I) for betweenness-centrality hypothesis
// classes.
//
// The generic bound (Lemma 5) is VC(H) <= floor(log2(pi_max)) + 1, where
// pi_max is the maximum number of hypotheses that evaluate to 1 on a single
// sample. For RSP_bc, pi_max is the maximum number of target nodes that can
// be inner nodes of one shortest path, which Table I instantiates as:
//
//	full network:  BD(V) - 1        (max bi-component diameter, Eq 35)
//	any subset A:  BS(A)            (Lemma 23 upper bound)
//	l-hop ball:    2l + 1
//
// versus Riondato et al. [45]'s VD(V) - 1 (graph diameter). All bounds here
// are safe upper bounds (they only ever increase the sample budget).
package vc

import (
	"math"
	"slices"

	"saphyra/internal/bicomp"
	"saphyra/internal/graph"
)

// DimFromMaxInner applies Lemma 5: given an upper bound piMax on the number
// of hypotheses simultaneously positive on one sample, the VC dimension is
// at most floor(log2(piMax)) + 1 (and 0 when no hypothesis is ever
// positive).
func DimFromMaxInner(piMax int64) int {
	if piMax <= 0 {
		return 0
	}
	return int(math.Floor(math.Log2(float64(piMax)))) + 1
}

// Riondato returns the [45] bound floor(log2(VD-1)) + 1 from the graph
// diameter VD (in edges): at most VD-1 inner nodes on any shortest path.
func Riondato(diameter int32) int {
	return DimFromMaxInner(int64(diameter) - 1)
}

// FullNetwork returns the SaPHyRa_bc bound for A = V: with bi-component
// sampling a path has at most BD(V)-1 inner nodes, BD(V) the maximum
// bi-component diameter. blockDiameterUB must upper-bound BD(V) (e.g.
// Decomposition.MaxBlockDiameterUpperBound).
func FullNetwork(blockDiameterUB int32) int {
	return DimFromMaxInner(int64(blockDiameterUB) - 1)
}

// LHop returns the Table I bound for A = the l-hop neighborhood of a node:
// floor(log2(2l+1)) + 1.
func LHop(l int) int {
	return DimFromMaxInner(int64(2*l + 1))
}

// SubsetBound computes the Lemma 23 upper bound on BS(A), the maximum
// number of A-nodes that are inner nodes of one intra-component shortest
// path:
//
//	BS(A) <= max_i min( VD(C_i)-1, VD(A ∩ C_i)+1, |A ∩ C_i| )
//
// over blocks i in I(A). Block and subset diameters are themselves upper
// bounds: block diameters come from Decomposition.BlockDiameterUpperBound
// (exact up to bicomp.ExactDiameterMaxBlock nodes, double-sweep 2*ecc
// above); subset diameters use the 2*max-distance bound of Section IV-C.
func SubsetBound(d *bicomp.Decomposition, a []graph.Node) int64 {
	if len(a) == 0 {
		return 0
	}
	// Group A by block, iterating a in caller order (not map order): the
	// first member of each group seeds the subset-diameter BFS below, so a
	// nondeterministic order would make the bound — and with it the sample
	// budget and the estimates — vary between identically-seeded runs.
	seen := make(map[graph.Node]struct{}, len(a))
	byBlock := make(map[int32][]graph.Node)
	for _, v := range a {
		if _, dup := seen[v]; dup {
			continue
		}
		seen[v] = struct{}{}
		for _, b := range d.NodeBlocks(v) {
			byBlock[b] = append(byBlock[b], v)
		}
	}
	var bs int64
	for b, members := range byBlock {
		// Cheap terms first; the per-block BFS work only runs when it could
		// still lower the running minimum.
		cand := int64(len(members))
		if v := int64(d.BlockDiameterUpperBound(b)) - 1; v < cand {
			cand = v
		}
		// subVD+1 >= 2 whenever |members| >= 2, so the subset-diameter BFS
		// can only tighten candidates above 2.
		if cand > 2 && len(members) >= 2 {
			if v := int64(subsetDiameterUB(d.G, members)) + 1; v < cand {
				cand = v
			}
		}
		if cand < 0 {
			cand = 0
		}
		if cand > bs {
			bs = cand
		}
	}
	return bs
}

// Subset returns the SaPHyRa_bc VC bound for an arbitrary target set A
// (Corollary 22 with Lemma 23): floor(log2(BS(A))) + 1.
func Subset(d *bicomp.Decomposition, a []graph.Node) int {
	return DimFromMaxInner(SubsetBound(d, a))
}

// SubsetScratch is the reusable workspace of SubsetCapped. The zero value
// is ready to use; the n-entry label array is allocated by the first BFS
// that needs it and then reused, epoch-stamped, by every later call. A
// scratch serves one call at a time.
type SubsetScratch struct {
	groups []uint64 // (block << 32 | node) memberships of A, sorted
	stamp  []uint32 // BFS labels: mark = unlabelled member, mark+1 = labelled
	epoch  uint32
	queue  []graph.Node
}

// SubsetCapped returns min(Subset(d, a), full): the subset
// bound capped by the full-network dimension full, the form the sampler
// uses. a must be sorted and duplicate-free (graph.DedupSorted), so each
// block's subset-diameter BFS starts at its smallest member, as Subset's
// does on the same slice.
//
// The result is Subset's, but the per-block BFS is capped at the depth that
// can still matter. A block whose cheap terms give the capped dimension
// dim can only be lowered by the BFS term floor(log2(2*far+1))+1, and that
// falls below dim exactly when far < f* = 2^(dim-2). So the BFS labels
// nodes to depth f*-1 only. If a member is left unlabelled, far >= f* and
// the uncapped BFS would have kept dim; otherwise far is exact. A block
// whose dim cannot raise the running maximum is skipped, and the scan stops
// once the maximum reaches full.
func SubsetCapped(d *bicomp.Decomposition, a []graph.Node, full int, s *SubsetScratch) int {
	s.groups = s.groups[:0]
	for _, v := range a {
		for _, b := range d.NodeBlocks(v) {
			s.groups = append(s.groups, uint64(uint32(b))<<32|uint64(uint32(v)))
		}
	}
	slices.Sort(s.groups)
	best := 0
	for lo := 0; lo < len(s.groups) && best < full; {
		b := int32(s.groups[lo] >> 32)
		hi := lo + 1
		for hi < len(s.groups) && int32(s.groups[hi]>>32) == b {
			hi++
		}
		members := s.groups[lo:hi]
		lo = hi
		cand := int64(len(members))
		if v := int64(d.BlockDiameterUpperBound(b)) - 1; v < cand {
			cand = max(v, 0)
		}
		dim := min(DimFromMaxInner(cand), full)
		if dim <= best {
			continue
		}
		// Subset runs its BFS only for cand > 2, and the BFS term is at
		// least 2, so it can lower only a dim of 3 or more.
		if cand > 2 && dim >= 3 {
			if far, ok := s.farWithin(d.G, members, int64(1)<<(dim-2)); ok {
				dim = min(dim, DimFromMaxInner(2*int64(far)+1))
			}
		}
		best = max(best, dim)
	}
	return min(best, full)
}

// farWithin runs a BFS from the first of members (packed block<<32 | node)
// and labels nodes to depth limit-1 only. It returns the largest member
// depth and true when every member lies within that depth, false otherwise.
//
// The last level is pulled, not pushed: every node labelled before it sits
// at depth <= limit-2, so a member still unlabelled is at depth limit-1
// exactly when one of its neighbors is labelled. That scans the members'
// adjacency instead of the widest frontier's.
func (s *SubsetScratch) farWithin(g *graph.Graph, members []uint64, limit int64) (int32, bool) {
	if n := g.NumNodes(); len(s.stamp) < n {
		s.stamp = make([]uint32, n)
		s.epoch = 0
	}
	if s.epoch > math.MaxUint32-2 {
		clear(s.stamp)
		s.epoch = 0
	}
	mark, seen := s.epoch+1, s.epoch+2
	s.epoch += 2
	for _, p := range members[1:] {
		s.stamp[uint32(p)] = mark
	}
	src := graph.Node(uint32(members[0]))
	s.stamp[src] = seen
	left := len(members) - 1
	var far int32
	s.queue = append(s.queue[:0], src)
	lo := 0
	for lvl := int64(1); left > 0 && lvl < limit-1 && lo < len(s.queue); lvl++ {
		hi := len(s.queue)
		for _, u := range s.queue[lo:hi] {
			for _, v := range g.Neighbors(u) {
				switch s.stamp[v] {
				case seen:
					continue
				case mark:
					left--
					far = int32(lvl)
				}
				s.stamp[v] = seen
				s.queue = append(s.queue, v)
			}
		}
		lo = hi
	}
	if left == 0 {
		return far, true
	}
	for _, p := range members[1:] {
		if s.stamp[uint32(p)] != mark {
			continue
		}
		if !slices.ContainsFunc(g.Neighbors(graph.Node(uint32(p))), func(w graph.Node) bool { return s.stamp[w] == seen }) {
			return 0, false
		}
	}
	return int32(limit - 1), true
}

// subsetDiameterUB bounds the pairwise distance among nodes (all in one
// block, so graph distances equal block distances) by 2*max distance from
// the first member.
func subsetDiameterUB(g *graph.Graph, members []graph.Node) int32 {
	if len(members) < 2 {
		return 0
	}
	dist := graph.BFSDistances(g, members[0], nil)
	var far int32
	for _, t := range members {
		if d := dist[t]; d > far {
			far = d
		}
	}
	return 2 * far
}

// TableIRow bundles the three Table I bounds for one network/subset pair so
// experiment drivers can print the comparison.
type TableIRow struct {
	RiondatoFull  int // [45], uses graph diameter
	SaPHyRaFull   int // BD(V) bound
	SaPHyRaSubset int // BS(A) bound
}

// TableI computes a Table I comparison row. diameterUB must upper-bound the
// graph diameter (e.g. 2 * eccentricity of any node). Because all three
// quantities are safe upper bounds on the same VC dimension, each tighter
// bound is additionally capped by the looser ones (min of valid upper bounds
// is a valid upper bound); this preserves the Table I ordering even when the
// heuristic diameter estimates would invert it.
func TableI(d *bicomp.Decomposition, a []graph.Node, diameterUB int32) TableIRow {
	row := TableIRow{
		RiondatoFull:  Riondato(diameterUB),
		SaPHyRaFull:   FullNetwork(d.MaxBlockDiameterUpperBound()),
		SaPHyRaSubset: Subset(d, a),
	}
	if row.SaPHyRaFull > row.RiondatoFull {
		row.SaPHyRaFull = row.RiondatoFull
	}
	if row.SaPHyRaSubset > row.SaPHyRaFull {
		row.SaPHyRaSubset = row.SaPHyRaFull
	}
	return row
}
