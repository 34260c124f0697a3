package bicomp

import (
	"fmt"
	"math"
	"slices"
	"sort"
	"sync"

	"saphyra/internal/graph"
)

// OutReach holds the out-reach quantities of Section IV-A: for every block
// C_i and node v in C_i, r_i(v) = |R_i(v)| is the number of nodes reachable
// from v without passing through any other node of C_i (Claim 9: the r_i(v)
// of a block partition v's connected component).
//
// From the r values it derives, per block i,
//
//	S_i = sum_{v in C_i} r_i(v)            (= size of the component, Eq 18)
//	Q_i = sum_{v in C_i} r_i(v)^2
//	w_i = S_i^2 - Q_i                      (unnormalized pair mass of C_i)
//
// so that gamma = (sum_i w_i) / (n(n-1)) (Eq 19) and, for a target set A,
// eta = (sum_{i in I(A)} w_i) / (sum_i w_i) (Eq 23). The cutpoint correction
// bca(v) (Eq 21, generalized to any number of blocks per Lemma 14) is
//
//	bca(v) = sum_{C_i contains v} (S_i - r_i(v)) (r_i(v) - 1) / (n(n-1)).
type OutReach struct {
	D *Decomposition
	// R[b][j] = r_b(v) for v = D.Blocks[b][j].
	R [][]int64
	// S[b], Q[b], W[b] as defined above. W[b] = S[b]^2 - Q[b].
	S, Q, W []int64
	// WTotal = sum_b W[b] as float64 (can exceed int64 for path-like graphs
	// at extreme scale).
	WTotal float64
	// rNode[v][k] = r_b(v) for b = D.NodeBlocks[v][k]; allocated only for
	// cutpoints (non-cutpoints always have r = 1). A short cache-local scan
	// of NodeBlocks[v] replaces the map lookup Of() used to do — Of sits on
	// the hot path of both the exact 2-hop phase and the sampler tables.
	rNode [][]int64

	// seenPool recycles the epoch-stamped block-dedup scratch of BlocksOf
	// (called with A = V by full-network ranking).
	seenPool sync.Pool
}

// NewOutReach computes all out-reach quantities in O(n + total block size)
// using a weighted DP over the block-cut tree.
func NewOutReach(d *Decomposition) *OutReach {
	o := &OutReach{
		D:     d,
		R:     make([][]int64, d.NumBlocks),
		S:     make([]int64, d.NumBlocks),
		Q:     make([]int64, d.NumBlocks),
		W:     make([]int64, d.NumBlocks),
		rNode: make([][]int64, len(d.NodeBlocks)),
	}

	// Build the block-cut tree. Tree nodes: blocks [0, L), then cutpoints
	// [L, L+C). Each tree node carries a vertex weight: a block's weight is
	// the number of its non-cutpoint vertices; a cutpoint's weight is 1.
	// Subtree weight sums then count distinct graph vertices exactly once.
	L := d.NumBlocks
	cutIndex := make(map[graph.Node]int32)
	var cuts []graph.Node
	for v, is := range d.IsCut {
		if is {
			cutIndex[graph.Node(v)] = int32(L + len(cuts))
			cuts = append(cuts, graph.Node(v))
		}
	}
	T := L + len(cuts)
	weight := make([]int64, T)
	treeAdj := make([][]int32, T)
	for b := 0; b < L; b++ {
		w := int64(len(d.Blocks[b]))
		for _, v := range d.Blocks[b] {
			if d.IsCut[v] {
				w--
				c := cutIndex[v]
				treeAdj[b] = append(treeAdj[b], c)
				treeAdj[c] = append(treeAdj[c], int32(b))
			}
		}
		weight[b] = w
	}
	for i, v := range cuts {
		weight[L+i] = 1
		_ = v
	}

	// Iterative rooted DP: subtree weights and parent pointers per tree
	// component.
	parent := make([]int32, T)
	sub := make([]int64, T)
	order := make([]int32, 0, T)
	visited := make([]bool, T)
	for root := 0; root < T; root++ {
		if visited[root] {
			continue
		}
		visited[root] = true
		parent[root] = -1
		order = order[:0]
		order = append(order, int32(root))
		for head := 0; head < len(order); head++ {
			x := order[head]
			for _, y := range treeAdj[x] {
				if !visited[y] {
					visited[y] = true
					parent[y] = x
					order = append(order, y)
				}
			}
		}
		// accumulate subtree weights bottom-up (reverse BFS order)
		for i := len(order) - 1; i >= 0; i-- {
			x := order[i]
			sub[x] = weight[x]
			for _, y := range treeAdj[x] {
				if y != parent[x] {
					sub[x] += sub[y]
				}
			}
		}
	}

	// r_b(v): 1 for non-cutpoints. For cutpoint c in block b, removing the
	// tree edge (c, b) splits the component; r is the weight of the side
	// containing c.
	for b := 0; b < L; b++ {
		members := d.Blocks[b]
		rs := make([]int64, len(members))
		var compSize int64
		if len(members) > 0 {
			compSize = d.CompSize[d.CompLabel[members[0]]]
		}
		var S, Q int64
		for j, v := range members {
			r := int64(1)
			if d.IsCut[v] {
				c := cutIndex[v]
				var down int64
				if parent[c] == int32(b) {
					down = compSize - sub[c]
				} else {
					// parent of block b must be c (tree edge orientation)
					down = sub[int32(b)]
				}
				r = compSize - down
				if o.rNode[v] == nil {
					o.rNode[v] = make([]int64, len(d.NodeBlocks[v]))
					for k := range o.rNode[v] {
						o.rNode[v][k] = 1
					}
				}
				// NodeBlocks[v] is sorted: binary search keeps hub
				// cutpoints (thousands of pendant blocks) O(deg log deg)
				// instead of O(deg^2) across their blocks.
				bs := d.NodeBlocks[v]
				if k := sort.Search(len(bs), func(i int) bool { return bs[i] >= int32(b) }); k < len(bs) && bs[k] == int32(b) {
					o.rNode[v][k] = r
				}
			}
			rs[j] = r
			S += r
			Q += r * r
		}
		o.R[b] = rs
		o.S[b] = S
		o.Q[b] = Q
		o.W[b] = S*S - Q
		o.WTotal += float64(o.W[b])
	}
	return o
}

// FlatR returns the R table flattened in (block, member) order — for each
// block b in ascending id, r_b(v) for each member v of D.Blocks[b] in member
// order. This is the payload of the view file's out-reach section
// (persist.go flag bit 1); NewOutReachFromFlat is the inverse. The length
// equals the view's run count.
func (o *OutReach) FlatR() []int64 {
	var total int
	for _, rs := range o.R {
		total += len(rs)
	}
	flat := make([]int64, 0, total)
	for _, rs := range o.R {
		flat = append(flat, rs...)
	}
	return flat
}

// NewOutReachFromFlat reconstructs the OutReach tables from a flattened R
// table (FlatR) and the decomposition, in O(runs + n) — without the
// block-cut-tree DP of NewOutReach. S/Q/W/WTotal and the cutpoint rNode
// cache all derive from R; the rNode rows share one backing array and are
// filled by a per-cutpoint cursor, so a cutpoint whose blocks are met out
// of NodeBlocks order is an error. The r-values are validated with Claim 9
// (the sum over each block must equal its component's size), so a corrupt or
// mismatched section returns an error instead of silently poisoning every
// downstream estimate; reconstruction from an intact section is
// bitwise-identical to NewOutReach (tested).
func NewOutReachFromFlat(d *Decomposition, flat []int64) (*OutReach, error) {
	var total int
	for _, ms := range d.Blocks {
		total += len(ms)
	}
	if len(flat) != total {
		return nil, fmt.Errorf("bicomp: out-reach table has %d entries, decomposition has %d memberships", len(flat), total)
	}
	o := &OutReach{
		D:     d,
		R:     make([][]int64, d.NumBlocks),
		S:     make([]int64, d.NumBlocks),
		Q:     make([]int64, d.NumBlocks),
		W:     make([]int64, d.NumBlocks),
		rNode: make([][]int64, len(d.NodeBlocks)),
	}
	// Every cutpoint's rNode row is a slice of one backing array, empty with
	// room for one entry per block of the node. Its length is a cursor:
	// blocks are visited in ascending id and NodeBlocks[v] ascends, so the
	// next entry of v's row belongs to the block being visited.
	var cutRuns int
	for v, is := range d.IsCut {
		if is {
			cutRuns += len(d.NodeBlocks[v])
		}
	}
	rBack := make([]int64, cutRuns)
	at := 0
	for v, is := range d.IsCut {
		if is {
			k := len(d.NodeBlocks[v])
			o.rNode[v] = rBack[at : at : at+k]
			at += k
		}
	}
	off := 0
	for b := 0; b < d.NumBlocks; b++ {
		members := d.Blocks[b]
		rs := flat[off : off+len(members) : off+len(members)]
		off += len(members)
		var S, Q int64
		for j, v := range members {
			r := rs[j]
			if r < 1 {
				return nil, fmt.Errorf("bicomp: out-reach section: block %d member %d has r = %d < 1", b, v, r)
			}
			S += r
			Q += r * r
			if d.IsCut[v] {
				row, bs := o.rNode[v], d.NodeBlocks[v]
				if k := len(row); k == len(bs) || bs[k] != int32(b) {
					return nil, fmt.Errorf("bicomp: out-reach section: cutpoint %d is a member of block %d out of its run layout order", v, b)
				}
				o.rNode[v] = append(row, r)
			} else if r != 1 {
				return nil, fmt.Errorf("bicomp: out-reach section: non-cutpoint %d has r = %d in block %d", v, r, b)
			}
		}
		if len(members) > 0 {
			if comp := d.CompSize[d.CompLabel[members[0]]]; S != comp {
				return nil, fmt.Errorf("bicomp: out-reach section: block %d sums to %d, component size is %d (Claim 9)", b, S, comp)
			}
		}
		o.R[b] = rs
		o.S[b] = S
		o.Q[b] = Q
		o.W[b] = S*S - Q
		o.WTotal += float64(o.W[b])
	}
	return o, nil
}

// Of returns r_b(v) for node v in block b. Non-cutpoints always have r = 1;
// cutpoint values are found in the node's block list — a cache-local scan
// for the typical short list, a binary search (NodeBlocks is sorted) for
// hub cutpoints that bridge thousands of pendant blocks. Calling it for a
// node outside the block returns 1 (callers must ensure membership).
func (o *OutReach) Of(b int32, v graph.Node) int64 {
	if !o.D.IsCut[v] {
		return 1
	}
	bs := o.D.NodeBlocks[v]
	if len(bs) <= 8 {
		for k, bb := range bs {
			if bb == b {
				return o.rNode[v][k]
			}
		}
		return 1
	}
	k := sort.Search(len(bs), func(i int) bool { return bs[i] >= b })
	if k < len(bs) && bs[k] == b {
		return o.rNode[v][k]
	}
	return 1
}

// Gamma returns gamma (Eq 19): the probability that a random shortest path
// of the SP space survives into the ISP space, i.e. (sum_i w_i) / (n(n-1)).
func (o *OutReach) Gamma() float64 {
	n := float64(o.D.G.NumNodes())
	if n < 2 {
		return 0
	}
	return o.WTotal / (n * (n - 1))
}

// WeightOfBlocks returns sum_{i in I} w_i for the given block set as float64.
func (o *OutReach) WeightOfBlocks(blocks []int32) float64 {
	var s float64
	for _, b := range blocks {
		s += float64(o.W[b])
	}
	return s
}

// Eta returns eta for a target set A (Eq 23): the fraction of ISP mass in
// blocks touching A. blocksOfA must be the de-duplicated I(A).
func (o *OutReach) Eta(blocksOfA []int32) float64 {
	if o.WTotal == 0 {
		return 0
	}
	return o.WeightOfBlocks(blocksOfA) / o.WTotal
}

// blockSeen is the reusable BlocksOf scratch: a stamp per block plus the
// current epoch, so de-duplication costs one array read per membership with
// no clearing between calls.
type blockSeen struct {
	stamp []int32
	epoch int32
}

// BlocksOf returns I(A): the sorted, de-duplicated ids of blocks containing
// at least one node of A (Eq 22).
func (o *OutReach) BlocksOf(a []graph.Node) []int32 {
	st, _ := o.seenPool.Get().(*blockSeen)
	if st == nil || len(st.stamp) < o.D.NumBlocks {
		st = &blockSeen{stamp: make([]int32, o.D.NumBlocks)}
	}
	if st.epoch == math.MaxInt32 {
		clear(st.stamp)
		st.epoch = 0
	}
	st.epoch++
	e := st.epoch
	var out []int32
	for _, v := range a {
		for _, b := range o.D.NodeBlocks[v] {
			if st.stamp[b] != e {
				st.stamp[b] = e
				out = append(out, b)
			}
		}
	}
	o.seenPool.Put(st)
	slices.Sort(out)
	return out
}

// BCA returns bca(v) (Eq 21): the probability that v is a break point of a
// random shortest path of the SP space. Zero for non-cutpoints.
func (o *OutReach) BCA(v graph.Node) float64 {
	if !o.D.IsCut[v] {
		return 0
	}
	n := float64(o.D.G.NumNodes())
	if n < 2 {
		return 0
	}
	// NodeBlocks[v] and rNode[v] are index-aligned, so no per-block Of()
	// re-search is needed (rNode is always allocated for cutpoints).
	var acc float64
	for k, b := range o.D.NodeBlocks[v] {
		r := float64(o.rNode[v][k])
		S := float64(o.S[b])
		acc += (S - r) * (r - 1)
	}
	return acc / (n * (n - 1))
}

// PairMass returns the unnormalized pair mass q'_{st} = r_b(s) * r_b(t) for
// a pair of distinct nodes of block b. The SP-space probability of any
// single shortest path between them is q'_{st} / (sigma_st * n(n-1)).
func (o *OutReach) PairMass(b int32, s, t graph.Node) float64 {
	return float64(o.Of(b, s)) * float64(o.Of(b, t))
}

// CheckClaim9 verifies sum_{v in C_i} r_i(v) = |component| for every block
// (Claim 9 / Eq 18). For tests.
func (o *OutReach) CheckClaim9() error {
	for b := 0; b < o.D.NumBlocks; b++ {
		members := o.D.Blocks[b]
		if len(members) == 0 {
			continue
		}
		comp := o.D.CompSize[o.D.CompLabel[members[0]]]
		if o.S[b] != comp {
			return fmt.Errorf("bicomp: block %d: sum r = %d, component size = %d", b, o.S[b], comp)
		}
	}
	return nil
}
