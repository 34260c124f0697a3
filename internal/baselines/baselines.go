// Package baselines reimplements the two state-of-the-art betweenness
// approximation algorithms the paper compares against:
//
//   - ABRA (Riondato & Upfal [47]): samples node pairs uniformly and, for
//     each pair, adds the exact pair dependency sigma_st(v)/sigma_st to every
//     node v on an s-t shortest path (a truncated Brandes pass per sample).
//   - KADABRA (Borassi & Natale [12]): samples node pairs uniformly, draws a
//     single uniform random shortest path per pair with balanced
//     bidirectional BFS, and increments only the inner nodes of that path.
//
// Both estimate betweenness for all n nodes of the network -- they cannot
// restrict work to a target subset, which is the comparison point of the
// paper's Fig 3.
//
// Both use progressive sampling with doubling and per-node empirical
// Bernstein stopping under a union bound, with the Riondato et al. [45]
// VC-dimension sample-size ceiling. ABRA's original stopping rule uses
// Rademacher averages; the substitution (documented in DESIGN.md) keeps the
// progressive structure and the (eps, delta) guarantee while being slightly
// more conservative.
package baselines

import (
	"context"
	"fmt"
	"math"
	"math/rand/v2"
	"runtime"
	"sync"

	"saphyra/internal/graph"
	"saphyra/internal/params"
	"saphyra/internal/shortestpath"
	"saphyra/internal/stats"
	"saphyra/internal/vc"
)

// Options configures a baseline estimator.
type Options struct {
	Epsilon float64 // additive error target; default 0.05
	Delta   float64 // failure probability; default 0.01
	Workers int     // <= 0 means GOMAXPROCS
	Seed    int64
	// MaxSamples optionally caps sampling (guarantee void when binding).
	MaxSamples int64
}

func (o *Options) setDefaults() {
	if o.Epsilon == 0 {
		o.Epsilon = 0.05
	}
	if o.Delta == 0 {
		o.Delta = 0.01
	}
	if o.Workers <= 0 {
		o.Workers = runtime.GOMAXPROCS(0)
	}
}

func (o Options) validate() error {
	if err := params.CheckEpsDelta(o.Epsilon, o.Delta); err != nil {
		return fmt.Errorf("baselines: %w", err)
	}
	return nil
}

// Result holds a baseline's whole-network estimate.
type Result struct {
	BC           []float64 // estimates for all n nodes (Eq 3 normalization)
	Samples      int64
	Rounds       int
	VCDim        int
	NMax         int64
	StoppedEarly bool
}

// pairSampler produces per-sample contributions. sampleOne adds the
// contribution for one sampled pair into acc (sum) and accSq (sum of
// squares, for the Bernstein variance); sampleBatch draws count pairs in one
// call — the batched engine's unit of work, mirroring core.Sampler —
// letting implementations keep scratch hot and allocation-free.
type pairSampler interface {
	sampleOne(rng *rand.Rand, acc, accSq []float64)
	sampleBatch(rng *rand.Rand, count int64, acc, accSq []float64)
}

// progressive runs the shared doubling loop. Cancellation is polled once
// per doubling round: a done ctx aborts with a *params.CanceledError, never
// a partial estimate.
func progressive(ctx context.Context, g *graph.Graph, opt Options, mk func(seed int64) pairSampler) (*Result, error) {
	opt.setDefaults()
	if err := opt.validate(); err != nil {
		return nil, err
	}
	n := g.NumNodes()
	if n < 2 {
		return &Result{BC: make([]float64, n)}, nil
	}
	eps := opt.Epsilon
	dim := vc.Riondato(graph.DiameterUpperBound(g))
	if dim < 1 {
		dim = 1
	}
	n0 := int64(math.Ceil(stats.VCConstant / (eps * eps) * math.Log(1/opt.Delta)))
	if n0 < 1 {
		n0 = 1
	}
	nmax := stats.VCSampleSize(eps, opt.Delta, dim)
	if nmax < n0 {
		nmax = n0
	}
	if opt.MaxSamples > 0 {
		if n0 > opt.MaxSamples {
			n0 = opt.MaxSamples
		}
		if nmax > opt.MaxSamples {
			nmax = opt.MaxSamples
		}
	}
	rounds := int64(1)
	if nmax > n0 {
		rounds = int64(math.Ceil(math.Log2(float64(nmax) / float64(n0))))
	}
	// union-bound failure budget per node per round (two-sided)
	deltaI := opt.Delta / (2 * float64(rounds) * float64(n))

	res := &Result{VCDim: dim, NMax: nmax}
	sum := make([]float64, n)
	sumSq := make([]float64, n)
	workers := opt.Workers
	samplers := make([]pairSampler, workers)
	rngs := make([]*rand.Rand, workers)
	for w := 0; w < workers; w++ {
		samplers[w] = mk(opt.Seed + int64(w+1)*999_983)
		rngs[w] = rand.New(rand.NewPCG(uint64(opt.Seed+int64(w+1)*7_368_787), 0x3c6ef372fe94f82b))
	}
	var drawn int64
	target := n0
	for {
		res.Rounds++
		if err := params.Interrupted(ctx); err != nil {
			return nil, fmt.Errorf("baselines: %w", err)
		}
		drawBatch(samplers, rngs, target-drawn, n, sum, sumSq)
		drawn = target
		worst := 0.0
		fn := float64(drawn)
		for v := 0; v < n; v++ {
			variance := (sumSq[v] - sum[v]*sum[v]/fn) / (fn - 1)
			if variance < 0 || fn < 2 {
				variance = 0
			}
			if e := stats.EpsilonBernstein(drawn, deltaI, variance); e > worst {
				worst = e
				if worst > eps { // no need to scan further this round
					break
				}
			}
		}
		if worst <= eps {
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
	res.BC = make([]float64, n)
	for v := 0; v < n; v++ {
		res.BC[v] = sum[v] / float64(drawn)
	}
	return res, nil
}

// drawBatch distributes `count` samples across workers with static quotas
// and merges per-worker accumulators (deterministic for a fixed worker
// count and seed).
func drawBatch(samplers []pairSampler, rngs []*rand.Rand, count int64, n int, sum, sumSq []float64) {
	if count <= 0 {
		return
	}
	const smallBatch = 1024
	if count < smallBatch {
		samplers[0].sampleBatch(rngs[0], count, sum, sumSq)
		return
	}
	workers := len(samplers)
	var wg sync.WaitGroup
	localSum := make([][]float64, workers)
	localSq := make([][]float64, workers)
	base := count / int64(workers)
	rem := count % int64(workers)
	for w := 0; w < workers; w++ {
		quota := base
		if int64(w) < rem {
			quota++
		}
		if quota == 0 {
			continue
		}
		wg.Add(1)
		go func(w int, quota int64) {
			defer wg.Done()
			ls := make([]float64, n)
			lq := make([]float64, n)
			samplers[w].sampleBatch(rngs[w], quota, ls, lq)
			localSum[w] = ls
			localSq[w] = lq
		}(w, quota)
	}
	wg.Wait()
	for w := 0; w < workers; w++ {
		if localSum[w] == nil {
			continue
		}
		for v := 0; v < n; v++ {
			sum[v] += localSum[w][v]
			sumSq[v] += localSq[w][v]
		}
	}
}

// ABRA estimates betweenness for all nodes with node-pair sampling [47].
func ABRA(ctx context.Context, g *graph.Graph, opt Options) (*Result, error) {
	return progressive(ctx, g, opt, func(seed int64) pairSampler {
		return newABRASampler(g)
	})
}

type abraSampler struct {
	g       *graph.Graph
	dag     *shortestpath.DAG
	tau     []float64 // paths-to-target counts on the s-t DAG
	stamp   []int32   // on-DAG marker, epoch-stamped
	epoch   int32
	byLevel [][]graph.Node
}

func newABRASampler(g *graph.Graph) *abraSampler {
	n := g.NumNodes()
	a := &abraSampler{
		g:     g,
		dag:   shortestpath.NewDAG(n),
		tau:   make([]float64, n),
		stamp: make([]int32, n),
	}
	for i := range a.stamp {
		a.stamp[i] = -1
	}
	return a
}

// sampleBatch draws count pairs back to back; the DAG, tau, and level
// buckets stay hot across the whole batch.
func (a *abraSampler) sampleBatch(rng *rand.Rand, count int64, acc, accSq []float64) {
	for j := int64(0); j < count; j++ {
		a.sampleOne(rng, acc, accSq)
	}
}

func (a *abraSampler) sampleOne(rng *rand.Rand, acc, accSq []float64) {
	n := a.g.NumNodes()
	s := graph.Node(rng.IntN(n))
	t := graph.Node(rng.IntN(n - 1))
	if t >= s {
		t++
	}
	a.dag.Run(a.g, s)
	if a.dag.Dist[t] < 0 {
		return // disconnected pair contributes 0 to every node
	}
	// Backward discovery of the s-t sub-DAG from t, bucketed by level.
	a.epoch++
	e := a.epoch
	maxD := int(a.dag.Dist[t])
	for len(a.byLevel) <= maxD {
		a.byLevel = append(a.byLevel, nil)
	}
	for d := 0; d <= maxD; d++ {
		a.byLevel[d] = a.byLevel[d][:0]
	}
	a.stamp[t] = e
	a.tau[t] = 1
	a.byLevel[maxD] = append(a.byLevel[maxD], t)
	for d := maxD; d > 0; d-- {
		for _, u := range a.byLevel[d] {
			du := a.dag.Dist[u]
			for _, w := range a.g.Neighbors(u) {
				if a.dag.Dist[w] == du-1 {
					if a.stamp[w] != e {
						a.stamp[w] = e
						a.tau[w] = 0
						a.byLevel[d-1] = append(a.byLevel[d-1], w)
					}
				}
			}
		}
	}
	// tau accumulation top-down (decreasing distance): tau(v) = number of
	// shortest v->t continuations; pair dependency of inner node v is
	// sigma_sv * tau(v) / sigma_st.
	for d := maxD; d > 0; d-- {
		for _, u := range a.byLevel[d] {
			tu := a.tau[u]
			du := a.dag.Dist[u]
			for _, w := range a.g.Neighbors(u) {
				if a.dag.Dist[w] == du-1 && a.stamp[w] == e {
					a.tau[w] += tu
				}
			}
		}
	}
	sigmaST := a.dag.Sigma[t]
	for d := 1; d < maxD; d++ {
		for _, u := range a.byLevel[d] {
			x := a.dag.Sigma[u] * a.tau[u] / sigmaST
			acc[u] += x
			accSq[u] += x * x
		}
	}
}

// KADABRA estimates betweenness for all nodes with single-path sampling and
// balanced bidirectional BFS [12].
func KADABRA(ctx context.Context, g *graph.Graph, opt Options) (*Result, error) {
	return progressive(ctx, g, opt, func(seed int64) pairSampler {
		return &kadabraSampler{g: g, bfs: shortestpath.NewBiBFS(g.NumNodes())}
	})
}

type kadabraSampler struct {
	g       *graph.Graph
	bfs     *shortestpath.BiBFS
	pathBuf []graph.Node // reused across samples: the batch loop is allocation-free
}

// sampleBatch draws count pairs back to back with the shared path buffer.
func (k *kadabraSampler) sampleBatch(rng *rand.Rand, count int64, acc, accSq []float64) {
	for j := int64(0); j < count; j++ {
		k.sampleOne(rng, acc, accSq)
	}
}

func (k *kadabraSampler) sampleOne(rng *rand.Rand, acc, accSq []float64) {
	n := k.g.NumNodes()
	s := graph.Node(rng.IntN(n))
	t := graph.Node(rng.IntN(n - 1))
	if t >= s {
		t++
	}
	if _, _, ok := k.bfs.Query(k.g, s, t); !ok {
		return // disconnected pair contributes 0
	}
	k.pathBuf = k.bfs.SamplePathAppend(k.g, rng, k.pathBuf)
	for _, v := range k.pathBuf[1 : len(k.pathBuf)-1] {
		acc[v]++
		accSq[v]++
	}
}
