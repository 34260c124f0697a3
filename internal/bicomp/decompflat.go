package bicomp

import (
	"fmt"

	"saphyra/internal/graph"
)

// NewDecompositionFromView reconstructs the Decomposition of a view from
// the file's decomposition section (persist.go flag bit 3) without
// rerunning the Decompose DFS. The section carries what the view's own
// arrays cannot reproduce — the block count, the per-directed-edge block
// map, and the connected-component labeling; everything else derives from
// the run arrays: NodeBlocks[u] is RunBlock over u's run range, Blocks
// inverts it, and IsCut is "two or more runs". NodeBlocks alias RunBlock
// and EdgeBlock / CompLabel / CompSize alias the section, so the only
// allocations are the Blocks inversion, the IsCut bitmap and one
// block-owner stamp per block. The work is O(n + m + runs), one sequential
// read of each section (the EdgeBlock cross-check reads every directed edge
// once), where the Hopcroft–Tarjan DFS it replaces chases the adjacency in
// visit order.
//
// The section is validated against the run arrays before use: the run
// index must tile [0, runs) in order, every run's block id must be in
// range, no block may be empty, each node's per-block edge counts in
// EdgeBlock must match its run lengths, and the component labeling must
// recount to CompSize exactly. Any mismatch is an error — OpenMapped then
// rejects the file.
func NewDecompositionFromView(v *BlockCSR, numBlocks int64, edgeBlock, compLabel []int32, compSize []int64) (*Decomposition, error) {
	g := v.G
	n := g.NumNodes()
	m2 := int64(2 * g.NumEdges())
	if int64(len(edgeBlock)) != m2 || len(compLabel) != n {
		return nil, fmt.Errorf("bicomp: decomposition section shape mismatch (%d edge blocks for 2m = %d, %d labels for n = %d)",
			len(edgeBlock), m2, len(compLabel), n)
	}
	runs := int64(len(v.RunBlock))
	if numBlocks < 0 || numBlocks > runs {
		return nil, fmt.Errorf("bicomp: implausible block count %d for %d runs", numBlocks, runs)
	}
	// The run index is sliced below; check it tiles [0, runs) in order
	// first, so a bad RunOff is an error rather than a bounds panic.
	if len(v.RunOff) != n+1 || v.RunOff[0] != 0 || v.RunOff[n] != runs {
		return nil, fmt.Errorf("bicomp: run index does not span [0, %d)", runs)
	}
	for u := 0; u < n; u++ {
		if v.RunOff[u] > v.RunOff[u+1] {
			return nil, fmt.Errorf("bicomp: run index not monotone at node %d", u)
		}
	}

	// Invert the runs into Blocks: count, place, fill. Nodes are visited in
	// ascending order, so each member list comes out sorted exactly as
	// Decompose emits it. The same pass rejects out-of-range and empty
	// blocks.
	counts := make([]int64, numBlocks)
	for _, b := range v.RunBlock {
		if int64(b) < 0 || int64(b) >= numBlocks {
			return nil, fmt.Errorf("bicomp: run block id %d outside [0,%d)", b, numBlocks)
		}
		counts[b]++
	}
	for b, c := range counts {
		if c == 0 {
			return nil, fmt.Errorf("bicomp: serialized block %d has no members", b)
		}
	}
	members := make([]graph.Node, len(v.RunBlock))
	blocks := make([][]graph.Node, numBlocks)
	var at int64
	for b := range blocks {
		blocks[b] = members[at : at : at+counts[b]]
		at += counts[b]
	}
	d := &Decomposition{
		G:          g,
		NumBlocks:  int(numBlocks),
		EdgeBlock:  edgeBlock,
		Blocks:     blocks,
		NodeBlocks: make([][]int32, n),
		IsCut:      make([]bool, n),
		CompLabel:  compLabel,
		CompSize:   compSize,
	}
	for u := 0; u < n; u++ {
		lo, hi := v.RunOff[u], v.RunOff[u+1]
		d.NodeBlocks[u] = v.RunBlock[lo:hi:hi]
		d.IsCut[u] = hi-lo >= 2
		for j := lo; j < hi; j++ {
			b := v.RunBlock[j]
			blocks[b] = append(blocks[b], graph.Node(u))
		}
	}

	// Cross-check EdgeBlock against the run layout: node u's CSR segment of
	// EdgeBlock must assign exactly RunStart[j+1]-RunStart[j] edges to the
	// block of each run j, and nothing to any other block. owner[b] = u+1
	// stamps the blocks of u's runs (0 is no node), so each edge's block is
	// checked in O(1) and the pass is O(n + m + runs) however many runs a
	// hub cutpoint has. counts[b] is the edge budget u's run of b has left.
	owner := make([]int32, numBlocks)
	for u := 0; u < n; u++ {
		lo, hi := v.RunOff[u], v.RunOff[u+1]
		base := g.AdjOffset(graph.Node(u))
		deg := int64(g.Degree(graph.Node(u)))
		stamp := int32(u + 1)
		remaining := int64(0)
		for j := lo; j < hi; j++ {
			b := v.RunBlock[j]
			owner[b] = stamp
			counts[b] = v.RunStart[j+1] - v.RunStart[j]
			remaining += v.RunStart[j+1] - v.RunStart[j]
		}
		if remaining != deg {
			return nil, fmt.Errorf("bicomp: node %d runs cover %d edges, degree %d", u, remaining, deg)
		}
		for i := base; i < base+deg; i++ {
			b := edgeBlock[i]
			if int64(b) < 0 || int64(b) >= numBlocks {
				return nil, fmt.Errorf("bicomp: edge %d assigned to block %d outside [0,%d)", i, b, numBlocks)
			}
			if owner[b] != stamp || counts[b] <= 0 {
				return nil, fmt.Errorf("bicomp: node %d edge %d assigned to block %d, disagrees with run layout", u, i-base, b)
			}
			counts[b]--
		}
	}

	// Recount the component labeling against the serialized sizes.
	recount := make([]int64, len(compSize))
	for u, c := range compLabel {
		if c < 0 || int(c) >= len(compSize) {
			return nil, fmt.Errorf("bicomp: node %d component label %d outside [0,%d)", u, c, len(compSize))
		}
		recount[c]++
	}
	for c, got := range recount {
		if got != compSize[c] {
			return nil, fmt.Errorf("bicomp: component %d recounts to %d nodes, section says %d", c, got, compSize[c])
		}
	}
	return d, nil
}
