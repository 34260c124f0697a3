package bicomp

import (
	"fmt"
	"slices"

	"saphyra/internal/graph"
)

// openTables rebuilds a view's decomposition and out-reach tables from the
// file's decomposition section (persist.go flag bit 3) and the run arrays,
// without rerunning the Decompose DFS or the NewOutReach block-cut-tree DP.
// The section carries what the view's own arrays cannot reproduce: the
// block count and the connected-component labeling. Everything else is the
// run index. D's node-major membership CSR (NodeOff, NodeBlock) and O's
// node-major r column alias RunOff, RunBlock and RunR; one inversion fills
// the block-major CSR (BlockOff, BlockNodes) and r column from them.
// CompLabel and CompSize alias the section. The work is O(n + m + runs),
// one sequential read of each array, and the heap it allocates is
// O(runs + blocks + components): nothing per node.
//
// Every array is checked before it is sliced or trusted, and any mismatch
// is an error (OpenMapped then rejects the file):
//   - the run index tiles [0, runs) in order;
//   - each node's runs tile its CSR segment: the first starts at the
//     node's adjacency offset, every run has positive length, the last
//     ends at the next node's offset, and the run blocks ascend strictly
//     and lie in [0, numBlocks);
//   - every index the engines follow from an edge is in range: adj and Nbr
//     name nodes in [0, n), NbrRun a run in [0, runs), Mate an edge in
//     [0, 2m), and RNbr equals the RunR of the edge's NbrRun (checkEdges);
//   - no block is empty, and the component labeling recounts to CompSize;
//   - every r is at least 1, exactly 1 at a non-cutpoint, and each block's
//     r values sum to its component's size (Claim 9).
//
// The Mate/NbrRun round trip, RunDegSum and adj's symmetry are Validate's:
// a wrong value there indexes nothing out of range, and that pass costs
// twice the rest of the open (DESIGN.md section 7).
func (v *BlockCSR) openTables(numBlocks int64, compLabel []int32, compSize []int64) error {
	g := v.G
	n := g.NumNodes()
	runs := int64(len(v.RunBlock))
	if numBlocks < 0 || numBlocks > runs {
		return fmt.Errorf("bicomp: implausible block count %d for %d runs", numBlocks, runs)
	}
	if len(v.RunOff) != n+1 || v.RunOff[0] != 0 || v.RunOff[n] != runs {
		return fmt.Errorf("bicomp: run index does not span [0, %d)", runs)
	}

	// One pass over the nodes checks each node's runs; blockOff[b+1]
	// counts block b's members.
	blockOff := make([]int64, numBlocks+1)
	for u := 0; u < n; u++ {
		lo, hi := v.RunOff[u], v.RunOff[u+1]
		if lo > hi || hi > runs {
			return fmt.Errorf("bicomp: run index not monotone at node %d", u)
		}
		base := g.AdjOffset(graph.Node(u))
		deg := int64(g.Degree(graph.Node(u)))
		end := base
		for j := lo; j < hi; j++ {
			b := v.RunBlock[j]
			if int64(b) < 0 || int64(b) >= numBlocks {
				return fmt.Errorf("bicomp: run block id %d outside [0,%d)", b, numBlocks)
			}
			if j > lo && v.RunBlock[j-1] >= b {
				return fmt.Errorf("bicomp: node %d run layout: run blocks not strictly ascending", u)
			}
			if v.RunStart[j] != end || v.RunStart[j+1] <= end {
				return fmt.Errorf("bicomp: node %d run layout: run %d spans [%d, %d), not a nonempty run from %d",
					u, j-lo, v.RunStart[j], v.RunStart[j+1], end)
			}
			end = v.RunStart[j+1]
			if r := v.RunR[j]; r < 1 || (hi-lo == 1 && r != 1) {
				return fmt.Errorf("bicomp: node %d has r = %d in block %d (want >= 1, and 1 at a non-cutpoint)", u, r, b)
			}
			blockOff[b+1]++
		}
		if end != base+deg {
			return fmt.Errorf("bicomp: node %d runs cover %d edges, degree %d", u, end-base, deg)
		}
	}
	if err := v.checkEdges(runs); err != nil {
		return err
	}

	// Invert the runs into the block-major CSR: place, then fill through a
	// per-block cursor. Nodes are visited in ascending order, so each
	// block's members come out sorted exactly as Decompose emits them.
	for b := int64(0); b < numBlocks; b++ {
		if blockOff[b+1] == 0 {
			return fmt.Errorf("bicomp: serialized block %d has no members", b)
		}
		blockOff[b+1] += blockOff[b]
	}
	cursor := slices.Clone(blockOff[:numBlocks])
	blockNodes := make([]graph.Node, runs)
	blockR := make([]int32, runs)
	for u := 0; u < n; u++ {
		for j := v.RunOff[u]; j < v.RunOff[u+1]; j++ {
			p := &cursor[v.RunBlock[j]]
			blockNodes[*p] = graph.Node(u)
			blockR[*p] = v.RunR[j]
			*p++
		}
	}

	// Recount the component labeling against the serialized sizes.
	recount := make([]int64, len(compSize))
	for u, c := range compLabel {
		if c < 0 || int(c) >= len(compSize) {
			return fmt.Errorf("bicomp: node %d component label %d outside [0,%d)", u, c, len(compSize))
		}
		recount[c]++
	}
	for c, got := range recount {
		if got != compSize[c] {
			return fmt.Errorf("bicomp: component %d recounts to %d nodes, section says %d", c, got, compSize[c])
		}
	}

	d := &Decomposition{
		G:          g,
		NumBlocks:  int(numBlocks),
		BlockOff:   blockOff,
		BlockNodes: blockNodes,
		NodeOff:    v.RunOff,
		NodeBlock:  v.RunBlock,
		CompLabel:  compLabel,
		CompSize:   compSize,
	}
	o := &OutReach{D: d, R: blockR, NodeR: v.RunR}
	o.sum()
	if err := o.CheckClaim9(); err != nil {
		return err
	}
	v.D, v.O = d, o
	return nil
}

// checkEdges is openTables' edge check, one sequential pass over the edge
// arrays. The hot test is a single branch; a failing edge is then told
// apart.
func (v *BlockCSR) checkEdges(runs int64) error {
	_, adj := v.G.CSR()
	n, m2 := int64(v.G.NumNodes()), int64(len(adj))
	nbr, rnbr, nbrRun, mate := v.Nbr[:m2], v.RNbr[:m2], v.NbrRun[:m2], v.Mate[:m2]
	for i, w := range adj {
		jr := nbrRun[i]
		if !outside(int64(w), n) && !outside(int64(nbr[i]), n) && !outside(jr, runs) &&
			!outside(mate[i], m2) && rnbr[i] == v.RunR[jr] {
			continue
		}
		switch {
		case outside(int64(w), n):
			return fmt.Errorf("bicomp: graph edge %d targets node %d outside [0,%d)", i, w, n)
		case outside(int64(nbr[i]), n):
			return fmt.Errorf("bicomp: grouped edge %d targets node %d outside [0,%d)", i, nbr[i], n)
		case outside(jr, runs):
			return fmt.Errorf("bicomp: grouped edge %d NbrRun %d outside [0,%d)", i, jr, runs)
		case outside(mate[i], m2):
			return fmt.Errorf("bicomp: grouped edge %d Mate %d outside [0,%d)", i, mate[i], m2)
		}
		return fmt.Errorf("bicomp: grouped edge %d RNbr %d != RunR %d of its NbrRun", i, rnbr[i], v.RunR[jr])
	}
	return nil
}

// outside reports whether x lies outside [0, hi), in one unsigned compare.
func outside(x, hi int64) bool { return uint64(x) >= uint64(hi) }
