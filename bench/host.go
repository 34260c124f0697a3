package main

import (
	"math/rand"
	"runtime"
	"time"
)

// The reference machine is a VM whose host is shared: other tenants slow
// every memory-bound loop on it by 10-60%, both in bursts of seconds and in
// drifts over tens of minutes, while a multiply chain that stays in
// registers holds within 1% (README.md). A run therefore times a fixed
// reference kernel next to the work it measures and reports each
// end-to-end time scaled to the host speed the kernel reads when the host is
// quiet: measured × refNominalMs / (median kernel time next to it). The
// kernel is code of the benchmark over a graph of the benchmark, and each
// block of it starts after a completed garbage collection, so a change to
// the program that allocates more does not slow it (README.md records the
// check). Over ten rank-session runs the spread of the median query latency
// was 0.29 measured and 0.09 scaled.

// refNominalMs is the reference kernel's median time on the reference
// machine (2 vCPU Xeon, go1.24) in a quiet stretch. It only sets the unit;
// comparisons on one machine do not depend on it.
const refNominalMs = 1.5

// refNodes and refEdges size the reference graph like the workloads' own
// (the Flickr stand-in at scale 4: 24,000 nodes, ~84,000 edges), so that a
// traversal touches about as much memory as one of the program's.
const (
	refNodes = 24_000
	refEdges = 84_000
	refHubs  = 64 // a quarter of the edges end on one of these
)

// hostRef is the reference kernel: breadth-first search with shortest-path
// counting, the forward pass of Brandes' algorithm, from a rotating source
// over a seeded random graph in CSR form.
type hostRef struct {
	off, adj []int32
	dist     []int32
	sigma    []float64
	queue    []int32
	next     int32
}

func newHostRef() *hostRef {
	rng := rand.New(rand.NewSource(1))
	lists := make([][]int32, refNodes)
	for range refEdges {
		u, v := int32(rng.Intn(refNodes)), int32(rng.Intn(refNodes))
		if rng.Intn(4) == 0 {
			v = int32(rng.Intn(refHubs))
		}
		if u != v {
			lists[u] = append(lists[u], v)
			lists[v] = append(lists[v], u)
		}
	}
	h := &hostRef{
		off:   make([]int32, refNodes+1),
		dist:  make([]int32, refNodes),
		sigma: make([]float64, refNodes),
		queue: make([]int32, 0, refNodes),
	}
	for u, l := range lists {
		h.adj = append(h.adj, l...)
		h.off[u+1] = int32(len(h.adj))
	}
	return h
}

// traverse runs one search and returns its time in milliseconds.
func (h *hostRef) traverse() float64 {
	t := time.Now()
	src := h.next
	h.next = (h.next + 7919) % refNodes
	for i := range h.dist {
		h.dist[i], h.sigma[i] = -1, 0
	}
	h.dist[src], h.sigma[src] = 0, 1
	q := append(h.queue[:0], src)
	for i := 0; i < len(q); i++ {
		u := q[i]
		du := h.dist[u]
		for _, v := range h.adj[h.off[u]:h.off[u+1]] {
			if h.dist[v] < 0 {
				h.dist[v] = du + 1
				q = append(q, v)
			}
			if h.dist[v] == du+1 {
				h.sigma[v] += h.sigma[u]
			}
		}
	}
	h.queue = q
	return msSince(t)
}

// block completes a garbage collection, then runs searches until n have
// run or budget has passed, whichever is first, and returns their times.
// The collection runs untimed, before the budget starts: it finishes any
// cycle the program started, so a change that allocates more cannot slow
// the kernel and so scale its own times down.
func (h *hostRef) block(n int, budget time.Duration) []float64 {
	runtime.GC()
	start := time.Now()
	var out []float64
	for len(out) < n && time.Since(start) < budget {
		out = append(out, h.traverse())
	}
	return out
}

// hostFactor converts times measured next to the given kernel times to the
// quiet host's speed.
func hostFactor(refMs []float64) float64 { return refNominalMs / median(refMs) }
