package bicomp

import (
	"fmt"
	"math"
	"slices"
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
	// The r values as two columns over the membership CSRs of D:
	// R[k] = r_b(D.BlockNodes[k]) in block-major order (BlockR(b) is block
	// b's slice), NodeR[k] = r_b(v) for b = D.NodeBlock[k] in node-major
	// order. Non-cutpoints always have r = 1. A view's RunR is NodeR.
	R, NodeR []int32
	// S[b], Q[b], W[b] as defined above. W[b] = S[b]^2 - Q[b].
	S, Q, W []int64
	// WTotal = sum_b W[b] as float64 (can exceed int64 for path-like graphs
	// at extreme scale).
	WTotal float64

	// seenPool recycles the epoch-stamped block-dedup scratch of BlocksOf
	// (called with A = V by full-network ranking).
	seenPool sync.Pool
}

// NewOutReach computes all out-reach quantities in O(n + total block size)
// using a weighted DP over the block-cut tree.
func NewOutReach(d *Decomposition) *OutReach {
	// The block-cut tree. Tree nodes: blocks [0, L), then cutpoints
	// [L, L+C). Its edges are the memberships of cutpoints, read from D's
	// two CSRs. Each tree node carries a vertex weight: a block's weight is
	// the number of its non-cutpoint vertices; a cutpoint's weight is 1.
	// Subtree weight sums then count distinct graph vertices exactly once.
	L := d.NumBlocks
	cutIndex := make([]int32, d.G.NumNodes())
	cuts := d.Cutpoints()
	for i, v := range cuts {
		cutIndex[v] = int32(L + i)
	}
	T := L + len(cuts)
	forTreeNbrs := func(x int32, f func(y int32)) {
		if int(x) >= L {
			for _, b := range d.NodeBlocks(cuts[int(x)-L]) {
				f(b)
			}
			return
		}
		for _, v := range d.Block(x) {
			if d.IsCut(v) {
				f(cutIndex[v])
			}
		}
	}
	weight := make([]int64, T)
	for b := int32(0); int(b) < L; b++ {
		for _, v := range d.Block(b) {
			if !d.IsCut(v) {
				weight[b]++
			}
		}
	}
	for i := L; i < T; i++ {
		weight[i] = 1
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
			forTreeNbrs(x, func(y int32) {
				if !visited[y] {
					visited[y] = true
					parent[y] = x
					order = append(order, y)
				}
			})
		}
		// accumulate subtree weights bottom-up (reverse BFS order)
		for i := len(order) - 1; i >= 0; i-- {
			x := order[i]
			sub[x] = weight[x]
			forTreeNbrs(x, func(y int32) {
				if y != parent[x] {
					sub[x] += sub[y]
				}
			})
		}
	}

	// r_b(v): 1 for non-cutpoints. For cutpoint c in block b, removing the
	// tree edge (c, b) splits the component; r is the weight of the side
	// containing c.
	rOf := func(b int32, v graph.Node) int32 {
		if !d.IsCut(v) {
			return 1
		}
		if c := cutIndex[v]; parent[c] == b {
			return int32(sub[c])
		}
		// the parent of block b is v's tree node (tree edge orientation)
		return int32(d.CompSize[d.CompLabel[v]] - sub[b])
	}
	o := &OutReach{D: d, R: make([]int32, len(d.BlockNodes)), NodeR: make([]int32, len(d.NodeBlock))}
	for b := int32(0); int(b) < L; b++ {
		for k := d.BlockOff[b]; k < d.BlockOff[b+1]; k++ {
			o.R[k] = rOf(b, d.BlockNodes[k])
		}
	}
	for v := graph.Node(0); int(v) < d.G.NumNodes(); v++ {
		for k := d.NodeOff[v]; k < d.NodeOff[v+1]; k++ {
			o.NodeR[k] = rOf(d.NodeBlock[k], v)
		}
	}
	o.sum()
	return o
}

// sum derives S, Q, W and WTotal from the block-major column R.
func (o *OutReach) sum() {
	nb := o.D.NumBlocks
	o.S, o.Q, o.W = make([]int64, nb), make([]int64, nb), make([]int64, nb)
	o.WTotal = 0
	for b := int32(0); int(b) < nb; b++ {
		var S, Q int64
		for _, r := range o.BlockR(b) {
			S += int64(r)
			Q += int64(r) * int64(r)
		}
		o.S[b] = S
		o.Q[b] = Q
		o.W[b] = S*S - Q
		o.WTotal += float64(o.W[b])
	}
}

// BlockR returns r_b(v) for the members v of block b, aligned with
// D.Block(b).
func (o *OutReach) BlockR(b int32) []int32 {
	lo, hi := o.D.BlockOff[b], o.D.BlockOff[b+1]
	return o.R[lo:hi:hi]
}

// Of returns r_b(v) for node v in block b, found in v's node-major range
// by the run search BlockCSR.FindRun uses. Calling it for a node outside
// the block returns 1 (callers must ensure membership).
func (o *OutReach) Of(b int32, v graph.Node) int64 {
	d := o.D
	if k := searchRuns(d.NodeBlock, d.NodeOff[v], d.NodeOff[v+1], b); k >= 0 {
		return int64(o.NodeR[k])
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
		for _, b := range o.D.NodeBlocks(v) {
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
	lo, hi := o.D.NodeOff[v], o.D.NodeOff[v+1]
	n := float64(o.D.G.NumNodes())
	if hi-lo < 2 || n < 2 {
		return 0
	}
	var acc float64
	for k := lo; k < hi; k++ {
		r := float64(o.NodeR[k])
		S := float64(o.S[o.D.NodeBlock[k]])
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
// (Claim 9 / Eq 18). OpenMapped runs it on every view it opens.
func (o *OutReach) CheckClaim9() error {
	for b := int32(0); int(b) < o.D.NumBlocks; b++ {
		members := o.D.Block(b)
		if len(members) == 0 {
			continue
		}
		comp := o.D.CompSize[o.D.CompLabel[members[0]]]
		if o.S[b] != comp {
			return fmt.Errorf("bicomp: block %d: sum r = %d, component size = %d (Claim 9)", b, o.S[b], comp)
		}
	}
	return nil
}
