package bicomp

import (
	"fmt"
	"slices"

	"saphyra/internal/graph"
)

// BlockCSR is a target-independent, block-annotated view of the graph's
// adjacency structure. It re-orders every node's neighbor list so that
// neighbors sharing a biconnected block are contiguous ("runs"), and
// annotates each run with the block id and the owner's out-reach r-value in
// that block, and each grouped edge with the neighbor's r-value. The runs
// are the repo's one edge-to-block map: an edge's block is its run's block.
// Hot loops (the exact 2-hop phase, the sampler's per-target tables) stream
// over the runs with no per-edge block or OutReach.Of lookup.
//
// Layout. Nbr and RNbr are edge-parallel arrays of length 2m aligned with
// each other; node u's grouped adjacency occupies the same CSR segment
// [G.AdjOffset(u), G.AdjOffset(u+1)) as in the underlying graph, permuted so
// that blocks appear in ascending id order and neighbors stay sorted within
// a run. The run index is itself a CSR over nodes: node u's runs are
// RunOff[u]..RunOff[u+1), and run j spans the edge range
// [RunStart[j], RunStart[j+1]) — runs are globally contiguous, so the
// sentinel entry RunStart[len] = 2m closes the last run.
//
// Memory: 24 bytes per directed edge (Nbr + RNbr at 4 each, NbrRun + Mate
// at 8 each — 48m bytes total) plus ~24 bytes per run; the number of runs
// is sum_u |NodeBlocks(u)| <= n + (cutpoint memberships), i.e. barely
// above n for real networks.
//
// A BlockCSR is built either in memory by NewBlockCSR or opened zero-copy
// from a serialized file by OpenMapped (see persist.go). Either way it
// carries its decomposition and out-reach tables: OpenMapped rebuilds both
// from the file's decomposition section and run arrays, checked, before it
// returns.
type BlockCSR struct {
	G *graph.Graph
	D *Decomposition
	O *OutReach

	// Nbr is the grouped adjacency: node u's neighbors, permuted block by
	// block. RNbr[i] = r_b(Nbr[i]) for the block b of the run containing i.
	Nbr  []graph.Node
	RNbr []int32

	// NbrRun[i] is the run index (into RunBlock/RunStart/...) of the
	// reciprocal side of grouped edge i: the run of node Nbr[i] for the
	// edge's block. Mate[i] is the absolute position of the edge's owner
	// within that run — since runs are sorted by node id, the owner-side
	// suffix "neighbors of Nbr[i] in this block with id greater than the
	// owner" is exactly [Mate[i]+1, RunStart[NbrRun[i]+1]), with no search.
	NbrRun []int64
	Mate   []int64

	// RunOff (len n+1) indexes runs per node; RunBlock[j] and RunR[j] are
	// the block id of run j and r_block(owner); RunStart (len runs+1, last
	// entry 2m) gives each run's edge range; RunDegSum[j] is the sum of
	// graph degrees over the run's neighbors (the cost model for the exact
	// phase's push/pull choice and chunk balancing).
	RunOff    []int64
	RunBlock  []int32
	RunR      []int32
	RunStart  []int64
	RunDegSum []int64
}

// NewBlockCSR decomposes g, computes its out-reach tables and builds the
// view, in O(n + m) time. The run index is the decomposition's node-major
// membership CSR and RunR its r column: RunOff, RunBlock and RunR alias
// d.NodeOff, d.NodeBlock and o.NodeR. The decomposition DFS also fills a
// per-edge block map, which the grouping pass below consumes and drops.
// Each node's blocks ascend, so its runs come out in ascending block order
// and the in-CSR-order fill keeps neighbors sorted within each run.
func NewBlockCSR(g *graph.Graph) *BlockCSR {
	n := g.NumNodes()
	m2 := int64(2 * g.NumEdges())
	d, edgeBlock := decompose(g, true)
	o := NewOutReach(d)
	runs := int64(len(d.NodeBlock))
	v := &BlockCSR{
		G:         g,
		D:         d,
		O:         o,
		Nbr:       make([]graph.Node, m2),
		RNbr:      make([]int32, m2),
		NbrRun:    make([]int64, m2),
		Mate:      make([]int64, m2),
		RunOff:    d.NodeOff,
		RunBlock:  d.NodeBlock,
		RunR:      o.NodeR,
		RunStart:  make([]int64, runs+1),
		RunDegSum: make([]int64, runs),
	}

	// blockPos[b] = position of block b within the current node's run list;
	// always written before read for each node, so no clearing is needed.
	blockPos := make([]int32, d.NumBlocks)
	// groupedPos maps each original CSR edge index to its grouped position,
	// so the reciprocal-edge pass below runs without searches.
	groupedPos := make([]int64, m2)
	// runOf[p] = run containing grouped position p (filled during grouping).
	runOf := make([]int64, m2)
	var cnt, cursor []int64

	for u := 0; u < n; u++ {
		run := v.RunOff[u]
		bs := d.NodeBlocks(graph.Node(u))
		if len(bs) == 0 {
			continue // isolated node: no edges, no runs
		}
		if cap(cnt) < len(bs) {
			cnt = make([]int64, len(bs))
			cursor = make([]int64, len(bs))
		}
		cnt = cnt[:len(bs)]
		cursor = cursor[:len(bs)]
		for k, b := range bs {
			blockPos[b] = int32(k)
			cnt[k] = 0
		}
		base := g.AdjOffset(graph.Node(u))
		nbrs := g.Neighbors(graph.Node(u))
		for i := range nbrs {
			cnt[blockPos[edgeBlock[base+int64(i)]]]++
		}
		acc := base
		for k := range bs {
			v.RunStart[run+int64(k)] = acc
			cursor[k] = acc
			acc += cnt[k]
		}
		for i, w := range nbrs {
			k := blockPos[edgeBlock[base+int64(i)]]
			p := cursor[k]
			cursor[k] = p + 1
			v.Nbr[p] = w
			groupedPos[base+int64(i)] = p
			runOf[p] = run + int64(k)
			v.RunDegSum[run+int64(k)] += int64(g.Degree(w))
		}
	}
	v.RunStart[runs] = m2

	// Reciprocal pass: for grouped edge p = (u -> w), record the grouped run
	// and position of the reverse edge (w -> u), and r_b(w), which is the
	// r-value of w's run for the edge's block: RNbr[p] = RunR[NbrRun[p]],
	// the invariant the open checks. Owners ascend, so revAt[w] is the CSR
	// position of u in w's sorted list (as in decompose).
	off, adj := g.CSR()
	revAt := slices.Clone(off[:n])
	for e, w := range adj {
		p := groupedPos[e]
		rev := groupedPos[revAt[w]]
		revAt[w]++
		v.NbrRun[p] = runOf[rev]
		v.RNbr[p] = v.RunR[runOf[rev]]
		v.Mate[p] = rev
	}
	return v
}

// Runs returns the run index range of node u: u's runs are j in [lo, hi).
func (v *BlockCSR) Runs(u graph.Node) (lo, hi int64) {
	return v.RunOff[u], v.RunOff[u+1]
}

// RunEdges returns the edge index range of run j into Nbr/RNbr.
func (v *BlockCSR) RunEdges(j int64) (lo, hi int64) {
	return v.RunStart[j], v.RunStart[j+1]
}

// FindRun returns the run index of node u for block b, or -1 if u has no
// edges in b (see searchRuns).
func (v *BlockCSR) FindRun(u graph.Node, b int32) int64 {
	return searchRuns(v.RunBlock, v.RunOff[u], v.RunOff[u+1], b)
}

// Validate checks the view's invariants. For tests and debugging.
//
// It first runs the open's checker (openTables) over a copy of the view:
// runs tile the CSR segments in ascending block order, every edge index is
// in range, each RNbr is the RunR of its NbrRun, r obeys Claim 9, and the
// decomposition and out-reach tables rebuilt from the runs must be the
// view's D and O. It then makes the checks the open leaves out: the
// grouped adjacency is a per-node permutation of the graph's, sorted
// within each run; the NbrRun/Mate reciprocal index round-trips into a run
// of the same block; and RunDegSum matches the graph. Together these place
// every edge in the block of its run: both ends have a run of that block,
// and two blocks share at most one node.
func (v *BlockCSR) Validate() error {
	g := v.G
	n := g.NumNodes()
	m2 := int64(2 * g.NumEdges())
	runs := int64(len(v.RunBlock))
	if len(v.RunOff) != n+1 || int64(len(v.RunR)) != runs || int64(len(v.RunDegSum)) != runs || int64(len(v.RunStart)) != runs+1 {
		return fmt.Errorf("bicomp: run array lengths inconsistent (%d offsets for %d nodes, %d blocks, %d r, %d degsum, %d starts)",
			len(v.RunOff), n, runs, len(v.RunR), len(v.RunDegSum), len(v.RunStart))
	}
	if int64(len(v.Nbr)) != m2 || int64(len(v.RNbr)) != m2 || int64(len(v.NbrRun)) != m2 || int64(len(v.Mate)) != m2 {
		return fmt.Errorf("bicomp: edge array lengths != 2m = %d", m2)
	}
	rebuilt := *v
	if err := rebuilt.openTables(int64(v.D.NumBlocks), v.D.CompLabel, v.D.CompSize); err != nil {
		return err
	}
	if !sameDecomposition(rebuilt.D, v.D) || !sameOutReach(rebuilt.O, v.O) {
		return fmt.Errorf("bicomp: decomposition or out-reach tables differ from those the run arrays rebuild")
	}
	var sorted []graph.Node
	for u := graph.Node(0); int(u) < n; u++ {
		lo, hi := v.Runs(u)
		for j := lo; j < hi; j++ {
			elo, ehi := v.RunEdges(j)
			var degSum int64
			for i := elo; i < ehi; i++ {
				w := v.Nbr[i]
				if i > elo && v.Nbr[i-1] >= w {
					return fmt.Errorf("bicomp: node %d run %d not strictly sorted", u, j-lo)
				}
				jr := v.NbrRun[i]
				if jr < v.RunOff[w] || jr >= v.RunOff[w+1] {
					return fmt.Errorf("bicomp: edge (%d,%d) NbrRun %d outside node %d's runs", u, w, jr, w)
				}
				if v.RunBlock[jr] != v.RunBlock[j] {
					return fmt.Errorf("bicomp: edge (%d,%d) reciprocal run block %d != %d", u, w, v.RunBlock[jr], v.RunBlock[j])
				}
				mate := v.Mate[i]
				if mate < v.RunStart[jr] || mate >= v.RunStart[jr+1] || v.Nbr[mate] != u {
					return fmt.Errorf("bicomp: edge (%d,%d) Mate %d does not point back at %d", u, w, mate, u)
				}
				if v.Mate[mate] != i || v.NbrRun[mate] != j {
					return fmt.Errorf("bicomp: edge (%d,%d) reciprocal index does not round-trip", u, w)
				}
				degSum += int64(g.Degree(w))
			}
			if degSum != v.RunDegSum[j] {
				return fmt.Errorf("bicomp: run %d RunDegSum %d != %d", j, v.RunDegSum[j], degSum)
			}
		}
		// The grouped segment must be a permutation of the node's sorted
		// adjacency: sort a copy and compare element-wise.
		grouped := v.Nbr[g.AdjOffset(u) : g.AdjOffset(u)+int64(g.Degree(u))]
		sorted = append(sorted[:0], grouped...)
		slices.Sort(sorted)
		if !slices.Equal(sorted, g.Neighbors(u)) {
			return fmt.Errorf("bicomp: node %d grouped adjacency is not a permutation of its CSR adjacency", u)
		}
	}
	return nil
}

// sameDecomposition reports whether two decompositions hold the same
// tables.
func sameDecomposition(a, b *Decomposition) bool {
	return a.NumBlocks == b.NumBlocks &&
		slices.Equal(a.BlockOff, b.BlockOff) && slices.Equal(a.BlockNodes, b.BlockNodes) &&
		slices.Equal(a.NodeOff, b.NodeOff) && slices.Equal(a.NodeBlock, b.NodeBlock) &&
		slices.Equal(a.CompLabel, b.CompLabel) && slices.Equal(a.CompSize, b.CompSize)
}

// sameOutReach reports whether two out-reach tables hold the same values.
func sameOutReach(a, b *OutReach) bool {
	return slices.Equal(a.R, b.R) && slices.Equal(a.NodeR, b.NodeR) &&
		slices.Equal(a.S, b.S) && slices.Equal(a.Q, b.Q) && slices.Equal(a.W, b.W) &&
		a.WTotal == b.WTotal
}
