// Package baselines reimplements the two state-of-the-art betweenness
// approximation algorithms the paper compares against:
//
//   - ABRA (Riondato & Upfal [47]): samples node pairs uniformly and, for
//     each pair, adds the exact pair dependency sigma_st(v)/sigma_st to every
//     node v on an s-t shortest path (a Brandes pass per sample).
//   - KADABRA (Borassi & Natale [12]): samples node pairs uniformly, draws a
//     single uniform random shortest path per pair with balanced
//     bidirectional BFS, and increments only the inner nodes of that path.
//
// Both estimate betweenness for all n nodes of the network -- they cannot
// restrict work to a target subset, which is the comparison point of the
// paper's Fig 3.
//
// Both sample on the engines' one driver: sched.VirtualWorkers seeded
// streams with sched.Split quotas, merged in stream order, so the seed alone
// fixes every bit and Options.Workers only sets how many goroutines run the
// streams. KADABRA's loss is 0/1 (is v an inner node of the sampled path),
// so it is core.Run over a core.DirectSpace: Algorithm 1 with an empty
// exact subspace. ABRA's loss is a fractional pair dependency, so it keeps
// its own doubling loop on the same schedule (core.Schedule) with per-node
// empirical Bernstein stopping over float sums.
//
// Both stop under a union bound over nodes and rounds, with the Riondato
// et al. [45] VC-dimension sample-size ceiling. ABRA's original stopping
// rule uses Rademacher averages; the substitution (documented in DESIGN.md)
// keeps the doubling structure and the (eps, delta) guarantee while
// being slightly more conservative.
package baselines

import (
	"context"
	"fmt"
	"math/rand/v2"
	"runtime"
	"sync"

	"saphyra/internal/core"
	"saphyra/internal/graph"
	"saphyra/internal/params"
	"saphyra/internal/sched"
	"saphyra/internal/shortestpath"
	"saphyra/internal/stats"
	"saphyra/internal/vc"
)

// Options configures a baseline estimator.
type Options struct {
	Epsilon float64 // additive error target; default 0.05
	Delta   float64 // failure probability; default 0.01
	// Workers is the number of goroutines running the sampler streams;
	// <= 0 means GOMAXPROCS. It does not affect results.
	Workers int
	Seed    int64
	// MaxSamples optionally caps sampling (guarantee void when binding).
	MaxSamples int64
}

// resolve fills the defaults and validates the result.
func (o *Options) resolve() error {
	if o.Epsilon == 0 {
		o.Epsilon = 0.05
	}
	if o.Delta == 0 {
		o.Delta = 0.01
	}
	if o.Workers <= 0 {
		o.Workers = runtime.GOMAXPROCS(0)
	}
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

// vcDim is [45]'s VC dimension of the whole network's shortest paths.
func vcDim(g *graph.Graph) int { return max(1, vc.Riondato(graph.DiameterUpperBound(g))) }

// samplePair draws an ordered pair of distinct nodes uniformly.
func samplePair(rng *rand.Rand, n int) (s, t graph.Node) {
	s = graph.Node(rng.IntN(n))
	t = graph.Node(rng.IntN(n - 1))
	if t >= s {
		t++
	}
	return s, t
}

func newRNG(seed int64) *rand.Rand {
	return rand.New(rand.NewPCG(uint64(seed), 0x3c6ef372fe94f82b))
}

// ABRA estimates betweenness for all nodes with node-pair sampling [47].
// Cancellation is polled between streams: a done ctx aborts with a
// *params.CanceledError, never a partial estimate.
func ABRA(ctx context.Context, g *graph.Graph, opt Options) (*Result, error) {
	if err := opt.resolve(); err != nil {
		return nil, err
	}
	n := g.NumNodes()
	if n < 2 {
		return &Result{BC: make([]float64, n)}, nil
	}
	eps := opt.Epsilon
	res := &Result{VCDim: vcDim(g)}
	n0, nmax, rounds := core.Schedule(eps, opt.Delta, res.VCDim, opt.MaxSamples)
	res.NMax = nmax
	// union-bound failure budget per node per round (two-sided)
	deltaI := opt.Delta / (2 * float64(rounds) * float64(n))

	const nv = sched.VirtualWorkers
	var streams [nv]abraStream
	var quota []int64
	pool := sync.Pool{New: func() any { return newABRAScratch(g) }}
	sum := make([]float64, n)
	sumSq := make([]float64, n)
	var drawn int64
	for target := n0; ; target = min(2*drawn, nmax) {
		res.Rounds++
		quota = sched.Split(target-drawn, nv, quota)
		err := sched.DoWithCtx(ctx, nv, opt.Workers,
			func() *abraScratch { return pool.Get().(*abraScratch) },
			func(a *abraScratch) { pool.Put(a) },
			func(a *abraScratch, v int) {
				st := &streams[v]
				if quota[v] > 0 && st.rng == nil {
					*st = abraStream{rng: newRNG(core.StreamSeed(opt.Seed, v)), sum: make([]float64, n), sumSq: make([]float64, n)}
				}
				for j := quota[v]; j > 0; j-- {
					a.sample(st.rng, st.sum, st.sumSq)
				}
			})
		if err != nil {
			return nil, fmt.Errorf("baselines: %w", &params.CanceledError{Cause: err})
		}
		drawn = target
		// Float addition does not associate: merging the streams' running
		// sums in stream order is what keeps the bits worker-independent.
		clear(sum)
		clear(sumSq)
		for _, st := range &streams {
			for v := range st.sum {
				sum[v] += st.sum[v]
				sumSq[v] += st.sumSq[v]
			}
		}
		worst := 0.0
		fn := float64(drawn)
		for v := 0; v < n; v++ {
			variance := (sumSq[v] - sum[v]*sum[v]/fn) / (fn - 1)
			if variance < 0 || fn < 2 {
				variance = 0
			}
			if e := stats.EpsilonBernstein(drawn, deltaI, variance, 1); e > worst {
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
	}
	res.Samples = drawn
	for v := range sum {
		sum[v] /= float64(drawn)
	}
	res.BC = sum
	return res, nil
}

// abraStream is one of ABRA's virtual sampler streams: its RNG and the
// running sums of its samples' pair dependencies (sum and sum of squares,
// for the Bernstein variance). It is materialized on its first nonzero
// quota.
type abraStream struct {
	rng        *rand.Rand
	sum, sumSq []float64
}

// abraScratch is one goroutine's ABRA workspace. Every sample resets what it
// reads, so any scratch serves any stream and the bits do not depend on
// which goroutine ran which stream.
type abraScratch struct {
	g       *graph.Graph
	dag     *shortestpath.DAG
	tau     []float64 // paths-to-target counts on the s-t DAG
	stamp   []int32   // on-DAG marker, epoch-stamped
	epoch   *sched.Epoch
	byLevel [][]graph.Node
	target  [1]graph.Node // the sample's t, as RunTruncated's target list
}

func newABRAScratch(g *graph.Graph) *abraScratch {
	n := g.NumNodes()
	a := &abraScratch{
		g:     g,
		dag:   shortestpath.NewDAG(n),
		tau:   make([]float64, n),
		stamp: make([]int32, n),
	}
	a.epoch = sched.NewEpoch(a.stamp)
	return a
}

// sample draws one pair and adds its pair dependencies into acc and their
// squares into accSq.
func (a *abraScratch) sample(rng *rand.Rand, acc, accSq []float64) {
	s, t := samplePair(rng, a.g.NumNodes())
	// The BFS stops once t's level is final. The walks below read Dist on
	// levels below t's, Sigma there and at t, all final by then, so the
	// pair dependencies equal those of a full run from s.
	a.target[0] = t
	a.dag.RunTruncated(a.g, s, a.target[:])
	if a.dag.Dist[t] < 0 {
		return // disconnected pair contributes 0 to every node
	}
	// Backward discovery of the s-t sub-DAG from t, bucketed by level.
	e := a.epoch.Next()
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
// balanced bidirectional BFS [12]. It is core.Run on a DirectSpace, so it
// shares Algorithm 1's schedule, stopping rule, cancellation checkpoints
// and spans.
func KADABRA(ctx context.Context, g *graph.Graph, opt Options) (*Result, error) {
	if err := opt.resolve(); err != nil {
		return nil, err
	}
	n := g.NumNodes()
	if n < 2 {
		return &Result{BC: make([]float64, n)}, nil
	}
	space := &core.DirectSpace{K: n, Dim: vcDim(g), Make: func(seed int64) core.Sampler {
		return &kadabraSampler{g: g, bfs: shortestpath.NewBiBFS(n), rng: newRNG(seed)}
	}}
	est, err := core.Run(ctx, space, core.Options{
		Epsilon: opt.Epsilon, Delta: opt.Delta, Workers: opt.Workers,
		Seed: opt.Seed, MaxSamples: opt.MaxSamples,
	})
	if err != nil {
		return nil, fmt.Errorf("baselines: %w", err)
	}
	return &Result{
		BC: est.ApproxRisks, Samples: est.Samples, Rounds: est.Rounds,
		VCDim: est.VCDim, NMax: est.NMax, StoppedEarly: est.StoppedEarly,
	}, nil
}

// kadabraSampler is one KADABRA sampler stream.
type kadabraSampler struct {
	g       *graph.Graph
	bfs     *shortestpath.BiBFS
	rng     *rand.Rand
	pathBuf []graph.Node // reused across samples: the batch loop is allocation-free
}

// DrawBatch implements core.Sampler: the loss of a sample is 1 on the inner
// nodes of its path.
func (k *kadabraSampler) DrawBatch(count int64, hits []int64) {
	n := k.g.NumNodes()
	for ; count > 0; count-- {
		s, t := samplePair(k.rng, n)
		if _, _, ok := k.bfs.Query(k.g, s, t); !ok {
			continue // disconnected pair contributes 0
		}
		k.pathBuf = k.bfs.SamplePathAppend(k.g, k.rng, k.pathBuf)
		for _, v := range k.pathBuf[1 : len(k.pathBuf)-1] {
			hits[v]++
		}
	}
}
