package graph

// ConnectedComponents labels every node with a component id in [0, count) and
// returns the label array, per-component sizes, and the component count.
// Labels are assigned in order of the smallest node in each component.
func ConnectedComponents(g *Graph) (labels []int32, sizes []int64, count int) {
	n := g.NumNodes()
	labels = make([]int32, n)
	for i := range labels {
		labels[i] = -1
	}
	queue := make([]Node, 0, n)
	for start := 0; start < n; start++ {
		if labels[start] != -1 {
			continue
		}
		id := int32(count)
		count++
		sizes = append(sizes, 0)
		queue = queue[:0]
		queue = append(queue, Node(start))
		labels[start] = id
		for len(queue) > 0 {
			u := queue[len(queue)-1]
			queue = queue[:len(queue)-1]
			sizes[id]++
			for _, v := range g.Neighbors(u) {
				if labels[v] == -1 {
					labels[v] = id
					queue = append(queue, v)
				}
			}
		}
	}
	return labels, sizes, count
}

// LargestComponent returns the induced subgraph of the largest connected
// component together with the mapping new id -> old id.
func LargestComponent(g *Graph) (*Graph, []Node) {
	labels, sizes, count := ConnectedComponents(g)
	if count <= 1 {
		ids := make([]Node, g.NumNodes())
		for i := range ids {
			ids[i] = Node(i)
		}
		return g, ids
	}
	best := int32(0)
	for i := 1; i < count; i++ {
		if sizes[i] > sizes[best] {
			best = int32(i)
		}
	}
	keep := make([]Node, 0, sizes[best])
	for u := 0; u < g.NumNodes(); u++ {
		if labels[u] == best {
			keep = append(keep, Node(u))
		}
	}
	return Subgraph(g, keep)
}

// Subgraph returns the subgraph induced by the given node set (need not be
// sorted; duplicates are ignored), with nodes renumbered densely in sorted
// order, plus the mapping new id -> old id.
func Subgraph(g *Graph, nodes []Node) (*Graph, []Node) {
	// Dense renumbering in ascending old-id order keeps things deterministic.
	sorted := DedupSorted(nodes)
	inSet := make(map[Node]Node, len(sorted))
	for i, u := range sorted {
		inSet[u] = Node(i)
	}
	b := NewBuilder(len(sorted))
	for _, u := range sorted {
		nu := inSet[u]
		for _, v := range g.Neighbors(u) {
			nv, ok := inSet[v]
			if ok && nu < nv {
				b.AddEdge(nu, nv)
			}
		}
	}
	b.SetNumNodes(len(sorted))
	return b.Build(), sorted
}
