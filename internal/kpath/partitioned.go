package kpath

import (
	"context"

	"saphyra/internal/core"
	"saphyra/internal/graph"
	"saphyra/internal/params"
	"saphyra/internal/sched"
)

// Estimate computes (eps, delta)-estimates of the k-path centrality of the
// target nodes with SaPHyRa's partitioned sample space.
//
// The exact subspace is the set of walks of intended length 1 — exactly a
// 1/k fraction of the sample space, whose risks have the closed form
//
//	lhat_v = (1/(n k)) * sum_{u in N(v)} 1/deg(u),
//
// computable in O(m). The approximate subspace is sampled by drawing the
// walk length uniformly from {2..k} (the conditional distribution; no
// rejection needed). As in SaPHyRa_bc, the partition removes the dominant
// portion of a low-centrality node's risk from the sampling variance
// (Claim 8) and guarantees a non-zero estimate for every node with a
// neighbor.
//
// Cancellation is polled in the exact phase's chunk loop and at the core
// engine's round and stream checkpoints: a done ctx aborts with a
// *params.CanceledError, never a partial estimate.
func Estimate(ctx context.Context, g *graph.Graph, a []graph.Node, opt Options) (*Result, error) {
	nodes, aIndex, err := targetIndex(g, a, &opt)
	if err != nil {
		return nil, err
	}
	space := &kpathSpace{
		g:       g,
		k:       opt.K,
		nodes:   nodes,
		aIndex:  aIndex,
		dim:     walkVCDim(opt.K, len(nodes)),
		workers: opt.Workers,
	}
	est, err := core.Run(ctx, space, core.Options{
		Epsilon: opt.Epsilon,
		Delta:   opt.Delta,
		Workers: opt.Workers,
		Seed:    opt.Seed,
	})
	if err != nil {
		return nil, err
	}
	return &Result{Nodes: nodes, KPath: est.Risks, Est: est}, nil
}

type kpathSpace struct {
	g       *graph.Graph
	k       int
	nodes   []graph.Node
	aIndex  []int32
	dim     int
	workers int
}

// NumHypotheses implements core.Space.
func (s *kpathSpace) NumHypotheses() int { return len(s.nodes) }

// VCDim implements core.Space.
func (s *kpathSpace) VCDim() int { return s.dim }

// exactChunkTargets is the target count per exact-phase chunk: the per-target
// closed form is one adjacency scan, so chunking finer than this would spend
// more on scheduling than on summing.
const exactChunkTargets = 128

// maxExactChunks caps the exact phase's scheduling granularity, mirroring
// the exactphase engine's chunk cap.
const maxExactChunks = 64

// ExactPhase implements core.Space: the exact subspace is all intended
// 1-step walks; its mass is exactly 1/k and the per-target risks are the
// closed-form first-step visit probabilities.
//
// Targets are partitioned into degree-weighted chunks (sched.Bounds — a
// pure function of the target set) processed by up to s.workers goroutines.
// Each target's sum is accumulated sequentially over its sorted neighbor
// list and written to its own slot, so the output is bitwise-identical for
// any worker count.
func (s *kpathSpace) ExactPhase(ctx context.Context) (float64, []float64, error) {
	n := float64(s.g.NumNodes())
	exact := make([]float64, len(s.nodes))
	chunks := (len(s.nodes) + exactChunkTargets - 1) / exactChunkTargets
	if chunks > maxExactChunks {
		chunks = maxExactChunks
	}
	var bounds []int
	if chunks > 1 {
		cost := make([]float64, len(s.nodes))
		for i, v := range s.nodes {
			cost[i] = 1 + float64(s.g.Degree(v))
		}
		bounds = sched.Bounds(cost, chunks, nil)
	} else {
		bounds = []int{0, len(s.nodes)}
	}
	err := sched.DoCtx(ctx, chunks, s.workers, func(c int) {
		for i := bounds[c]; i < bounds[c+1]; i++ {
			v := s.nodes[i]
			var p float64
			for _, u := range s.g.Neighbors(v) {
				p += 1 / float64(s.g.Degree(u))
			}
			exact[i] = p / (n * float64(s.k))
		}
	})
	if err != nil {
		return 0, nil, &params.CanceledError{Cause: err}
	}
	return 1 / float64(s.k), exact, nil
}

// NewSampler implements core.Space: walks of length l uniform in {2..k}
// (the approximate-subspace conditional). For k == 1 the exact subspace is
// the whole space and core.Run never calls the sampler.
func (s *kpathSpace) NewSampler(seed int64) core.Sampler {
	return newWalkSampler(s.g, s.aIndex, 2, s.k, seed)
}

var _ core.Space = (*kpathSpace)(nil)
