// Package bicomp computes biconnected components (bi-components), cutpoints,
// the block-cut tree, and the out-reach quantities of SaPHyRa_bc (Section IV
// of the paper): r_i(v), gamma, eta, and the cutpoint term bca(v).
//
// Terminology follows the paper: a "block" is a maximal biconnected
// subgraph; a "cutpoint" (articulation point) is a node belonging to more
// than one block; the block-cut tree has one node per block and per cutpoint
// with an edge for each (block, cutpoint-in-block) pair.
//
// The package also owns the repo's shared graph-view layer, BlockCSR
// (DESIGN.md section 7): the block-annotated re-grouping of the adjacency
// arrays consumed by the exact 2-hop engine (internal/exactphase) and the
// bc sampler's per-target tables; the k-path and closeness estimators read
// the view's embedded graph. The view serializes to a versioned binary
// format (BlockCSR.WriteTo / WriteFile) and reopens zero-copy via
// OpenMapped — mmap-backed on unix — for build-once/serve-many deployments.
//
// Determinism: Decompose assigns block ids by a fixed DFS, so the
// decomposition — and with it every view annotation and the view file's
// run arrays and decomposition section — is a pure function of the graph.
// Two builds of one graph write the same bytes.
package bicomp

import (
	"fmt"
	"slices"
	"sync"

	"saphyra/internal/graph"
)

// Decomposition is the result of biconnected-component decomposition of a
// graph. Every edge belongs to exactly one block; every non-isolated node
// belongs to at least one block; cutpoints belong to several. Two blocks
// share at most one node, so an edge's block is the one holding both ends.
//
// Block membership is held twice, as two flat CSR arrays over the same
// (block, node) incidences: block-major (BlockOff, BlockNodes) and
// node-major (NodeOff, NodeBlock). Block, NodeBlocks and IsCut read them. A
// view's RunOff and RunBlock are the node-major pair: node v's runs are its
// blocks, in the same order.
type Decomposition struct {
	G         *graph.Graph
	NumBlocks int
	// Block b's nodes, ascending, are BlockNodes[BlockOff[b]:BlockOff[b+1]].
	BlockOff   []int64
	BlockNodes []graph.Node
	// Node v's block ids, ascending, are NodeBlock[NodeOff[v]:NodeOff[v+1]].
	// Isolated nodes have none; cutpoints have two or more.
	NodeOff   []int64
	NodeBlock []int32
	// CompLabel and CompSize describe connected components (graph package
	// labeling); the out-reach machinery needs per-component sizes.
	CompLabel []int32
	CompSize  []int64

	// memoized per-block diameter upper bounds (see BlockDiameterUpperBound)
	diamMu sync.Mutex
	diamUB []int32
}

// Block returns the sorted nodes of block b.
func (d *Decomposition) Block(b int32) []graph.Node {
	lo, hi := d.BlockOff[b], d.BlockOff[b+1]
	return d.BlockNodes[lo:hi:hi]
}

// NodeBlocks returns the sorted ids of the blocks containing node v.
func (d *Decomposition) NodeBlocks(v graph.Node) []int32 {
	lo, hi := d.NodeOff[v], d.NodeOff[v+1]
	return d.NodeBlock[lo:hi:hi]
}

// IsCut reports whether v is a cutpoint: a node of two or more blocks.
func (d *Decomposition) IsCut(v graph.Node) bool { return d.NodeOff[v+1]-d.NodeOff[v] >= 2 }

// searchRuns returns the index k in [lo, hi) with blocks[k] == b, or -1.
// blocks must ascend strictly over [lo, hi) — one node's run blocks, the
// node-major NodeBlock range of Decomposition and BlockCSR.RunBlock alike.
// The typical 1-3 entry list is scanned linearly (with early exit); hub
// cutpoints bridging thousands of pendant blocks fall back to binary search.
func searchRuns(blocks []int32, lo, hi int64, b int32) int64 {
	if hi-lo <= 8 {
		for j := lo; j < hi; j++ {
			switch bb := blocks[j]; {
			case bb == b:
				return j
			case bb > b:
				return -1
			}
		}
		return -1
	}
	if k, ok := slices.BinarySearch(blocks[lo:hi], b); ok {
		return lo + int64(k)
	}
	return -1
}

type dfsFrame struct {
	u, parent graph.Node
	idx       int
}

// halfEdge is the DFS stack's edge u -> v, at CSR position at.
type halfEdge struct {
	u, v graph.Node
	at   int64
}

// Decompose runs an iterative Hopcroft–Tarjan biconnected-component
// decomposition. Time O(n + m), no recursion (safe for long paths such as
// road networks).
func Decompose(g *graph.Graph) *Decomposition {
	d, _ := decompose(g, false)
	return d
}

// decompose is Decompose. With withEdges it also returns the block of each
// directed CSR edge: the DFS pushes every edge once, from one end, and
// records its block at that CSR position; one pass then copies it to the
// reverse direction.
func decompose(g *graph.Graph, withEdges bool) (d *Decomposition, edgeBlock []int32) {
	n := g.NumNodes()
	d = &Decomposition{G: g, BlockOff: []int64{0}}
	if withEdges {
		edgeBlock = make([]int32, 2*g.NumEdges())
		for i := range edgeBlock {
			edgeBlock[i] = -1
		}
	}
	d.CompLabel, d.CompSize, _ = graph.ConnectedComponents(g)

	disc := make([]int32, n)
	low := make([]int32, n)
	for i := range disc {
		disc[i] = -1
	}
	var time int32
	var stack []dfsFrame
	var edgeStack []halfEdge
	// scratch for per-block node dedup
	stamp := make([]int32, n)
	for i := range stamp {
		stamp[i] = -1
	}

	// popBlock appends the next block, in id order, to the block-major CSR.
	popBlock := func(u, v graph.Node) {
		bid := int32(d.NumBlocks)
		d.NumBlocks++
		start := len(d.BlockNodes)
		addMember := func(x graph.Node) {
			if stamp[x] != bid {
				stamp[x] = bid
				d.BlockNodes = append(d.BlockNodes, x)
			}
		}
		for {
			e := edgeStack[len(edgeStack)-1]
			edgeStack = edgeStack[:len(edgeStack)-1]
			if edgeBlock != nil {
				edgeBlock[e.at] = bid
			}
			addMember(e.u)
			addMember(e.v)
			if e.u == u && e.v == v {
				break
			}
		}
		slices.Sort(d.BlockNodes[start:])
		d.BlockOff = append(d.BlockOff, int64(len(d.BlockNodes)))
	}

	for start := 0; start < n; start++ {
		if disc[start] != -1 {
			continue
		}
		disc[start] = time
		low[start] = time
		time++
		stack = append(stack, dfsFrame{u: graph.Node(start), parent: -1})
		for len(stack) > 0 {
			f := &stack[len(stack)-1]
			nbrs := g.Neighbors(f.u)
			base := g.AdjOffset(f.u)
			advanced := false
			for f.idx < len(nbrs) {
				v := nbrs[f.idx]
				at := base + int64(f.idx)
				f.idx++
				if v == f.parent {
					continue
				}
				if disc[v] == -1 {
					edgeStack = append(edgeStack, halfEdge{f.u, v, at})
					disc[v] = time
					low[v] = time
					time++
					stack = append(stack, dfsFrame{u: v, parent: f.u})
					advanced = true
					break
				}
				if disc[v] < disc[f.u] { // back edge to an ancestor
					edgeStack = append(edgeStack, halfEdge{f.u, v, at})
					if disc[v] < low[f.u] {
						low[f.u] = disc[v]
					}
				}
			}
			if advanced {
				continue
			}
			// f.u is finished; fold into parent.
			u := f.u
			parent := f.parent
			stack = stack[:len(stack)-1]
			if parent < 0 {
				continue
			}
			if low[u] < low[parent] {
				low[parent] = low[u]
			}
			if low[u] >= disc[parent] {
				popBlock(parent, u)
			}
		}
	}

	// Transpose to the node-major CSR: count, place, fill. Blocks are
	// visited in ascending id, so each node's list comes out sorted.
	d.NodeOff = make([]int64, n+1)
	for _, x := range d.BlockNodes {
		d.NodeOff[x+1]++
	}
	for v := 0; v < n; v++ {
		d.NodeOff[v+1] += d.NodeOff[v]
	}
	d.NodeBlock = make([]int32, len(d.BlockNodes))
	next := slices.Clone(d.NodeOff[:n])
	for b := int32(0); int(b) < d.NumBlocks; b++ {
		for _, x := range d.Block(b) {
			d.NodeBlock[next[x]] = b
			next[x]++
		}
	}

	if edgeBlock != nil {
		// Copy each pushed edge's block to its unpushed reverse. Owners
		// ascend, so they meet every node's sorted adjacency in order: the
		// cursor of w is the CSR position of u in w's list, with no search.
		off, adj := g.CSR()
		cursor := slices.Clone(off[:n])
		for p, w := range adj {
			q := cursor[w]
			cursor[w]++
			if edgeBlock[p] < 0 {
				edgeBlock[p] = edgeBlock[q]
			}
		}
	}
	return d, edgeBlock
}

// Cutpoints returns the sorted list of cutpoints.
func (d *Decomposition) Cutpoints() []graph.Node {
	var cuts []graph.Node
	for v := graph.Node(0); int(v) < d.G.NumNodes(); v++ {
		if d.IsCut(v) {
			cuts = append(cuts, v)
		}
	}
	return cuts
}

// CommonBlock returns the id of the (unique) block containing both s and t,
// or -1 if none exists. Two distinct blocks share at most one node, so the
// common block is unique for s != t.
func (d *Decomposition) CommonBlock(s, t graph.Node) int32 {
	a, b := d.NodeBlocks(s), d.NodeBlocks(t)
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] == b[j]:
			return a[i]
		case a[i] < b[j]:
			i++
		default:
			j++
		}
	}
	return -1
}

// BlockOfEdge returns the block id of the undirected edge {u, v}, or -1 if
// the edge is absent: the common block of its ends.
func (d *Decomposition) BlockOfEdge(u, v graph.Node) int32 {
	if !d.G.HasEdge(u, v) {
		return -1
	}
	return d.CommonBlock(u, v)
}

// BlockSize returns the number of nodes of block b.
func (d *Decomposition) BlockSize(b int32) int { return int(d.BlockOff[b+1] - d.BlockOff[b]) }

// blockBFS is a reusable, epoch-stamped workspace for BFS restricted to the
// edges of one block.
type blockBFS struct {
	dist  []int32
	stamp []int32
	epoch int32
	queue []graph.Node
}

func (d *Decomposition) newBlockBFS() *blockBFS {
	n := d.G.NumNodes()
	w := &blockBFS{dist: make([]int32, n), stamp: make([]int32, n)}
	for i := range w.stamp {
		w.stamp[i] = -1
	}
	return w
}

// run executes a BFS from source using only block-b edges and returns the
// eccentricity of source and the farthest node found. Every queued node is
// in block b, so an edge to a neighbour is a block-b edge exactly when the
// neighbour is in block b too.
func (w *blockBFS) run(d *Decomposition, b int32, source graph.Node) (ecc int32, far graph.Node) {
	w.epoch++
	e := w.epoch
	w.queue = w.queue[:0]
	w.queue = append(w.queue, source)
	w.stamp[source] = e
	w.dist[source] = 0
	far = source
	for head := 0; head < len(w.queue); head++ {
		u := w.queue[head]
		du := w.dist[u]
		for _, v := range d.G.Neighbors(u) {
			if w.stamp[v] == e || searchRuns(d.NodeBlock, d.NodeOff[v], d.NodeOff[v+1], b) < 0 {
				continue
			}
			w.stamp[v] = e
			w.dist[v] = du + 1
			if du+1 > ecc {
				ecc = du + 1
				far = v
			}
			w.queue = append(w.queue, v)
		}
	}
	return ecc, far
}

// BlockDiameter returns the exact diameter of block b (BFS from every block
// node, restricted to block edges). Intended for small blocks and tests.
func (d *Decomposition) BlockDiameter(b int32) int32 {
	w := d.newBlockBFS()
	var diam int32
	for _, s := range d.Block(b) {
		if e, _ := w.run(d, b, s); e > diam {
			diam = e
		}
	}
	return diam
}

// BlockDiameterBounds returns a (lower, upper) bound pair for the diameter of
// block b using a double sweep: lower = eccentricity found by two BFS
// passes, upper = 2 * eccentricity of the second source. upper >= true
// diameter >= lower always.
func (d *Decomposition) BlockDiameterBounds(b int32) (lo, hi int32) {
	nodes := d.Block(b)
	if len(nodes) <= 1 {
		return 0, 0
	}
	w := d.newBlockBFS()
	_, far := w.run(d, b, nodes[0])
	ecc2, _ := w.run(d, b, far)
	return ecc2, 2 * ecc2
}

// ExactDiameterMaxBlock is the block size up to which the block-diameter
// bounds are exact BFS diameters; larger blocks get the double-sweep 2*ecc
// bound.
const ExactDiameterMaxBlock = 64

// BlockDiameterUpperBound returns a memoized upper bound on the diameter of
// block b: exact for blocks of at most ExactDiameterMaxBlock nodes (size-2
// blocks are free), double-sweep 2*ecc otherwise. Safe for concurrent use.
func (d *Decomposition) BlockDiameterUpperBound(b int32) int32 {
	d.diamMu.Lock()
	if d.diamUB == nil {
		d.diamUB = make([]int32, d.NumBlocks)
		for i := range d.diamUB {
			d.diamUB[i] = -1
		}
	}
	if v := d.diamUB[b]; v >= 0 {
		d.diamMu.Unlock()
		return v
	}
	d.diamMu.Unlock()
	var v int32
	switch size := d.BlockSize(b); {
	case size == 2:
		v = 1
	case size <= ExactDiameterMaxBlock:
		v = d.BlockDiameter(b)
	default:
		_, v = d.BlockDiameterBounds(b)
	}
	d.diamMu.Lock()
	d.diamUB[b] = v
	d.diamMu.Unlock()
	return v
}

// MaxBlockDiameterUpperBound returns an upper bound on BD(V) = max block
// diameter (Eq 35), used by the VC-dimension machinery, from the per-block
// bounds of BlockDiameterUpperBound (memoized there).
func (d *Decomposition) MaxBlockDiameterUpperBound() int32 {
	var bd int32
	for b := int32(0); int(b) < d.NumBlocks; b++ {
		if v := d.BlockDiameterUpperBound(b); v > bd {
			bd = v
		}
	}
	return bd
}

// Validate checks decomposition invariants (both membership CSRs sorted and
// each the transpose of the other, and every edge's ends sharing a block).
// For tests and debugging.
func (d *Decomposition) Validate() error {
	g := d.G
	n := g.NumNodes()
	if len(d.NodeOff) != n+1 || len(d.BlockOff) != d.NumBlocks+1 ||
		len(d.NodeBlock) != len(d.BlockNodes) || d.NodeOff[n] != int64(len(d.NodeBlock)) ||
		d.BlockOff[d.NumBlocks] != int64(len(d.BlockNodes)) {
		return fmt.Errorf("bicomp: membership CSR shapes inconsistent")
	}
	for v := graph.Node(0); int(v) < n; v++ {
		bs := d.NodeBlocks(v)
		for i := 1; i < len(bs); i++ {
			if bs[i-1] >= bs[i] {
				return fmt.Errorf("bicomp: NodeBlocks(%d) not sorted", v)
			}
		}
	}
	for b := int32(0); int(b) < d.NumBlocks; b++ {
		members := d.Block(b)
		if len(members) < 2 {
			return fmt.Errorf("bicomp: block %d has %d nodes", b, len(members))
		}
		for i, u := range members {
			if i > 0 && members[i-1] >= u {
				return fmt.Errorf("bicomp: block %d members not sorted", b)
			}
			if searchRuns(d.NodeBlock, d.NodeOff[u], d.NodeOff[u+1], b) < 0 {
				return fmt.Errorf("bicomp: node %d missing block %d in NodeBlocks", u, b)
			}
		}
	}
	for _, e := range g.Edges() {
		if d.CommonBlock(e.U, e.V) < 0 {
			return fmt.Errorf("bicomp: edge (%d,%d) lies in no block", e.U, e.V)
		}
	}
	return nil
}
