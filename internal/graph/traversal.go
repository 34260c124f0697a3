package graph

// BFSDistances computes unweighted shortest-path distances from source.
// Unreachable nodes get distance -1. If dist is non-nil and of length n it is
// reused, avoiding an allocation.
func BFSDistances(g *Graph, source Node, dist []int32) []int32 {
	n := g.NumNodes()
	if len(dist) != n {
		dist = make([]int32, n)
	}
	for i := range dist {
		dist[i] = -1
	}
	queue := make([]Node, 0, n)
	queue = append(queue, source)
	dist[source] = 0
	for head := 0; head < len(queue); head++ {
		u := queue[head]
		du := dist[u]
		for _, v := range g.Neighbors(u) {
			if dist[v] == -1 {
				dist[v] = du + 1
				queue = append(queue, v)
			}
		}
	}
	return dist
}

// Eccentricity returns the maximum finite BFS distance from source.
func Eccentricity(g *Graph, source Node) int32 {
	dist := BFSDistances(g, source, nil)
	var ecc int32
	for _, d := range dist {
		if d > ecc {
			ecc = d
		}
	}
	return ecc
}

// Diameter computes the exact diameter (longest shortest path over all
// reachable pairs) by running a BFS from every node. O(n*m); intended for
// small and medium graphs such as test fixtures and scaled-down datasets.
func Diameter(g *Graph) int32 {
	n := g.NumNodes()
	var diam int32
	dist := make([]int32, n)
	for u := 0; u < n; u++ {
		dist = BFSDistances(g, Node(u), dist)
		for _, d := range dist {
			if d > diam {
				diam = d
			}
		}
	}
	return diam
}

// ApproxDiameter lower-bounds the diameter with rounds of the double-sweep
// heuristic: BFS from a node, then BFS from the farthest node found. On most
// real-world graphs the bound is exact or within one or two hops. The
// returned value is always <= the true diameter.
func ApproxDiameter(g *Graph, rounds int, seed int64) int32 {
	n := g.NumNodes()
	if n == 0 {
		return 0
	}
	if rounds < 1 {
		rounds = 1
	}
	var best int32
	start := Node(seed % int64(n))
	if start < 0 {
		start = -start
	}
	dist := make([]int32, n)
	for r := 0; r < rounds; r++ {
		dist = BFSDistances(g, start, dist)
		far := start
		var fd int32
		for v, d := range dist {
			if d > fd {
				fd = d
				far = Node(v)
			}
		}
		if fd > best {
			best = fd
		}
		if far == start {
			break
		}
		start = far
	}
	return best
}

// DiameterUpperBound returns an upper bound on the diameter of the graph
// (max over connected components) via one BFS per component: the diameter of
// a component is at most twice the eccentricity of any of its nodes.
func DiameterUpperBound(g *Graph) int32 {
	n := g.NumNodes()
	visited := make([]bool, n)
	dist := make([]int32, n)
	var bound int32
	for start := 0; start < n; start++ {
		if visited[start] {
			continue
		}
		dist = BFSDistances(g, Node(start), dist)
		var ecc int32
		for v, d := range dist {
			if d >= 0 {
				visited[v] = true
				if d > ecc {
					ecc = d
				}
			}
		}
		if 2*ecc > bound {
			bound = 2 * ecc
		}
	}
	return bound
}
