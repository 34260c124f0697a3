package closeness

// The pre-MS-BFS closeness engine: one scalar BFS per sampled source, each
// sample's losses added to per-stream accumulators merged in stream order.
// It pins two contracts: TestEngineMatchesLegacyBitwise proves the MS-BFS
// engine reproduces its estimates bit for bit, and BenchmarkClosenessLegacy
// keeps the speedup measurable after the production code moved on — the
// same discipline as core's legacySampler. Its accumulators come in two
// arithmetics: fixed, the engine's sums fed one sample at a time, and
// float, a meanVar fed 1/d for d >= 2, which is the estimator before its
// sums became fixed point (TestMatchesFloatReference). Both count the
// distance-1 sources exactly and sample the rest, as the engine does.

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand/v2"

	"saphyra/internal/graph"
	"saphyra/internal/params"
	"saphyra/internal/sched"
	"saphyra/internal/stats"
)

// legacyAdjacency is the old engine's adjacency seam: a node count, the
// degrees and a concrete scalar BFS.
type legacyAdjacency interface {
	NumNodes() int
	Degree(v graph.Node) int
	BFSDistancesInto(source graph.Node, dist []int32) []int32
}

// legacyAccs is one sampler's per-target accumulators in one arithmetic.
type legacyAccs interface {
	add(i int, d int32) // one sample at BFS depth d for target i (0: the source or unreached; 1: a neighbor, counted exactly)
	merge(o legacyAccs)
	moments(i int, n int64) (mean, variance float64)
	// slack is how far below eps the Bernstein bound must fall to stop.
	slack() float64
}

// fixedAccs is the engine's arithmetic: exact integer sums of lossFixed.
type fixedAccs []sums

func (f fixedAccs) add(i int, d int32) { f[i].add(1, lossFixed(d)) }
func (f fixedAccs) merge(o legacyAccs) {
	for i, b := range o.(fixedAccs) {
		f[i].merge(&b)
	}
}
func (f fixedAccs) moments(i int, n int64) (float64, float64) { return f[i].moments(n) }
func (fixedAccs) slack() float64                              { return 1.0 / fixedOne }

// floatAccs is the float arithmetic: 1/d (d >= 2) added in the merge order.
type floatAccs []meanVar

func (f floatAccs) add(i int, d int32) {
	x := 0.0
	if d > 1 {
		x = 1 / float64(d)
	}
	f[i].Add(x)
}
func (f floatAccs) merge(o legacyAccs) {
	for i := range f {
		f[i].Merge(&o.(floatAccs)[i])
	}
}
func (f floatAccs) moments(i int, n int64) (float64, float64) { return f[i].Mean(), f[i].Variance() }
func (floatAccs) slack() float64                              { return 0 }

// estimateLegacy is the old engine in the engine's fixed-point arithmetic.
func estimateLegacy(ctx context.Context, adj legacyAdjacency, a []graph.Node, opt Options) (*Result, error) {
	return estimateScalar(ctx, adj, a, opt, func(k int) legacyAccs { return make(fixedAccs, k) })
}

// estimateFloat is the old engine in float arithmetic.
func estimateFloat(ctx context.Context, adj legacyAdjacency, a []graph.Node, opt Options) (*Result, error) {
	return estimateScalar(ctx, adj, a, opt, func(k int) legacyAccs { return make(floatAccs, k) })
}

// estimateScalar is the old engine: one scalar BFS per sampled source,
// accumulated by newAccs.
func estimateScalar(ctx context.Context, adj legacyAdjacency, a []graph.Node, opt Options, newAccs func(k int) legacyAccs) (*Result, error) {
	opt.setDefaults()
	n := adj.NumNodes()
	if n < 2 {
		return nil, errors.New("closeness: graph too small")
	}
	eps, delta := opt.Epsilon, opt.Delta
	if err := params.CheckEpsDelta(eps, delta); err != nil {
		return nil, fmt.Errorf("closeness: %w", err)
	}
	if err := params.CheckTargets(a, n); err != nil {
		return nil, fmt.Errorf("closeness: %w", err)
	}
	nodes := graph.DedupSorted(a)
	k := len(nodes)

	n0 := int64(math.Ceil(stats.VCConstant / (eps * eps) * math.Log(1/delta)))
	if n0 < 1 {
		n0 = 1
	}
	nmax := stats.UnionSampleSize(eps, delta, k) * 4
	if nmax < n0 {
		nmax = n0
	}
	if opt.MaxSamples > 0 {
		if nmax > opt.MaxSamples {
			nmax = opt.MaxSamples
		}
		if n0 > nmax {
			n0 = nmax
		}
	}
	rounds := int64(1)
	if nmax > n0 {
		rounds = int64(math.Ceil(math.Log2(float64(nmax) / float64(n0))))
	}
	deltaI := delta / (2 * float64(rounds) * float64(k))

	res := &Result{Nodes: nodes}
	var accs legacyAccs
	var drawn int64
	target := n0
	samplers := make([]*legacySourceSampler, sched.VirtualWorkers)
	mk := func(v int) *legacySourceSampler {
		return newLegacySourceSampler(adj, nodes, opt.Seed+int64(v+1)*612_361, newAccs(k))
	}
	var quota []int64
	for {
		res.Rounds++
		var err error
		quota, err = legacyBatchParallel(ctx, samplers, mk, opt.Workers, target-drawn, quota)
		if err != nil {
			return nil, fmt.Errorf("closeness: %w", err)
		}
		accs = newAccs(k)
		for _, s := range samplers {
			if s != nil {
				accs.merge(s.local)
			}
		}
		drawn = target
		worst := 0.0
		for i := range k {
			_, v := accs.moments(i, drawn)
			if e := stats.EpsilonBernstein(drawn, deltaI, v, 0.5); e > worst {
				worst = e
			}
		}
		if worst <= float64(float64(n-1)/float64(n)*eps)-accs.slack() {
			res.StoppedEarly = true
			break
		}
		if drawn >= nmax {
			break
		}
		target = drawn * 2
		if target > nmax {
			target = nmax
		}
	}
	res.Samples = drawn
	res.Closeness = make([]float64, k)
	for i, v := range nodes {
		mean, _ := accs.moments(i, drawn)
		deg := float64(adj.Degree(v))
		res.Closeness[i] = float64(deg+float64(float64(n)*mean)) / float64(n-1)
	}
	return res, nil
}

type legacySourceSampler struct {
	adj   legacyAdjacency
	nodes []graph.Node
	rng   *rand.Rand
	dist  []int32
	local legacyAccs
}

func newLegacySourceSampler(adj legacyAdjacency, nodes []graph.Node, seed int64, local legacyAccs) *legacySourceSampler {
	return &legacySourceSampler{
		adj:   adj,
		nodes: nodes,
		rng:   rand.New(rand.NewPCG(uint64(seed), 0xbb67ae8584caa73b)),
		dist:  make([]int32, adj.NumNodes()),
		local: local,
	}
}

func (s *legacySourceSampler) sampleBatch(count int64) {
	n := s.adj.NumNodes()
	for j := int64(0); j < count; j++ {
		u := graph.Node(s.rng.IntN(n))
		s.dist = s.adj.BFSDistancesInto(u, s.dist)
		for i, v := range s.nodes {
			s.local.add(i, max(s.dist[v], 0)) // -1 (unreached) is a zero loss
		}
	}
}

func legacyBatchParallel(ctx context.Context, samplers []*legacySourceSampler, mk func(v int) *legacySourceSampler, workers int, count int64, quota []int64) ([]int64, error) {
	if count <= 0 {
		return quota, nil
	}
	if err := params.Interrupted(ctx); err != nil {
		return quota, err
	}
	nv := len(samplers)
	quota = sched.Split(count, nv, quota)
	err := sched.DoCtx(ctx, nv, workers, func(v int) {
		if quota[v] == 0 {
			return
		}
		if samplers[v] == nil {
			samplers[v] = mk(v)
		}
		samplers[v].sampleBatch(quota[v])
	})
	if err != nil {
		return quota, &params.CanceledError{Cause: err}
	}
	return quota, nil
}
