// Package core implements the paper's two contributions: the generic
// SaPHyRa sample-space-partitioning framework for hypothesis ranking
// (Algorithm 1, Section III) and its betweenness-centrality instantiation
// SaPHyRa_bc (Section IV).
//
// The framework estimates the expected risks of k hypotheses with 0/1
// losses. The sample space is split into an exact subspace (risks computed
// exactly by the Space implementation) and an approximate subspace (risks
// estimated by adaptive sampling with empirical Bernstein stopping and a VC
// sample-size ceiling). The combined estimate
//
//	l_i = lhat_i + lambda * ltilde_i,   lambda = 1 - lambdaHat,
//
// is an (eps, delta)-estimation of the true risks (Theorem 6).
package core

import (
	"context"
	"errors"
	"fmt"
	"math"
	"runtime"

	"saphyra/internal/obs"
	"saphyra/internal/params"
	"saphyra/internal/sched"
	"saphyra/internal/stats"
)

// Space describes a partitioned hypothesis-ranking problem with 0/1 losses.
// Implementations must be safe for concurrent use of independent Samplers.
type Space interface {
	// NumHypotheses returns k.
	NumHypotheses() int
	// ExactPhase returns lambdaHat (the probability mass of the exact
	// subspace) and the exact risks of every hypothesis on it (Eq 9). A
	// long-running implementation should poll ctx at its own chunk
	// boundaries and abort with a *params.CanceledError; a nil error means
	// the risks are complete and bitwise-deterministic.
	ExactPhase(ctx context.Context) (lambdaHat float64, exact []float64, err error)
	// VCDim upper-bounds the VC dimension of the hypothesis class on the
	// approximate subspace (used for the Lemma 4 sample ceiling).
	VCDim() int
	// NewSampler returns an independent sampler of the approximate
	// distribution (Eq 10) seeded deterministically.
	NewSampler(seed int64) Sampler
}

// Sampler draws samples from the approximate subspace. DrawBatch draws n
// samples and accumulates hit counts directly into hits (hits[i] += number
// of samples whose loss is 1 on hypothesis i). Implementations are free to
// reorder the work inside a batch — e.g. group samples by BFS source so one
// truncated traversal serves many samples — as long as the marginal sample
// distribution is unchanged and the output is deterministic for a fixed
// seed.
type Sampler interface {
	DrawBatch(n int64, hits []int64)
}

// stoppable marks batch samplers that poll a sched.Stop inside their batch
// loops — the sub-round cancellation bound. A sampler that was handed a
// Stop may return from DrawBatch early (having accumulated fewer than n
// samples) once the flag is raised; the framework only raises the flag on a
// canceled run, whose entire estimate is discarded, so the short count
// never surfaces.
type stoppable interface {
	SetStop(*sched.Stop)
}

// Options configures Algorithm 1.
type Options struct {
	Epsilon float64 // additive error target (on the combined risks)
	Delta   float64 // failure probability
	Workers int     // sampling goroutines; <= 0 means GOMAXPROCS
	// Seed is the base RNG seed. Sampling is driven through a fixed set of
	// sched.VirtualWorkers seeded sampler streams regardless of Workers, so
	// a fixed seed alone determines the output bit for bit — Workers only
	// changes how the streams are multiplexed onto goroutines.
	Seed int64

	// DisableAdaptive skips the empirical-Bernstein early-stopping checks
	// and always draws the full VC budget (ablation of Section III-C).
	DisableAdaptive bool
	// MaxSamples optionally caps the number of samples (0 = no cap). When
	// the cap binds, the (eps, delta) guarantee is void; intended for
	// time-boxed experiments.
	MaxSamples int64
}

// Estimate is the result of Algorithm 1.
type Estimate struct {
	Risks        []float64 // combined estimates l_i
	ExactRisks   []float64 // lhat_i
	ApproxRisks  []float64 // ltilde_i (empirical means on the approximate subspace)
	LambdaHat    float64   // exact-subspace mass
	EpsPrime     float64   // eps / (1 - lambdaHat): per-sample tolerance
	VCDim        int
	N0, NMax     int64 // initial and ceiling sample counts
	Samples      int64 // samples actually drawn
	Rounds       int   // doubling rounds executed
	StoppedEarly bool  // true if Bernstein certified eps' before NMax
}

// Run executes Algorithm 1 on the given space.
//
// Cancellation: ctx is polled before every adaptive doubling round and
// between the per-round virtual sampler streams; a done ctx aborts with a
// *params.CanceledError and no estimate. The checkpoints never touch the
// sampler streams, so a run that completes is bitwise-identical to one
// under a context that never fires.
func Run(ctx context.Context, space Space, opt Options) (*Estimate, error) {
	if err := params.CheckEpsDelta(opt.Epsilon, opt.Delta); err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	k := space.NumHypotheses()
	if k == 0 {
		return nil, errors.New("core: no hypotheses")
	}
	workers := opt.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}

	ectx, exactSpan := obs.StartSpan(ctx, "core.exact")
	lambdaHat, exact, err := space.ExactPhase(ectx)
	exactSpan.End()
	if err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	if lambdaHat < 0 {
		lambdaHat = 0
	}
	if lambdaHat > 1 {
		lambdaHat = 1
	}
	lambda := 1 - lambdaHat
	est := &Estimate{
		Risks:       make([]float64, k),
		ExactRisks:  exact,
		ApproxRisks: make([]float64, k),
		LambdaHat:   lambdaHat,
		VCDim:       space.VCDim(),
	}
	if lambda < 1e-12 {
		// The exact subspace carries all the mass: no sampling needed.
		copy(est.Risks, exact)
		est.EpsPrime = math.Inf(1)
		return est, nil
	}
	epsPrime := opt.Epsilon / lambda
	est.EpsPrime = epsPrime

	n0, nmax, rounds := Schedule(epsPrime, opt.Delta, est.VCDim, opt.MaxSamples)
	est.N0, est.NMax = n0, nmax

	// Uniform union-bound split of delta instead of the paper's Eq 13
	// (DESIGN §15): each of the k hypotheses gets one Bernstein check per
	// round, a check fails with probability at most 2 delta_i, and the
	// shares over rounds and hypotheses sum to delta.
	deltaI := opt.Delta / (2 * float64(rounds) * float64(k))

	// Main adaptive loop: double until Bernstein certifies eps' for every
	// hypothesis or the VC ceiling is reached.
	hits := make([]int64, k)
	samplers := makeSamplers(space, opt.Seed)
	var n int64
	target := n0
	for {
		est.Rounds++
		rctx, roundSpan := obs.StartSpan(ctx, "core.round")
		if err := drawParallelWith(rctx, samplers, workers, target-n, hits); err != nil {
			roundSpan.End()
			return nil, fmt.Errorf("core: %w", err)
		}
		if roundSpan != nil {
			roundSpan.SetExtra(target - n)
			roundSpan.End()
		}
		n = target
		if !opt.DisableAdaptive {
			worst := 0.0
			for i := range hits {
				v := stats.BernoulliSampleVariance(hits[i], n)
				if e := stats.EpsilonBernstein(n, deltaI, v, 1); e > worst {
					worst = e
				}
			}
			if worst <= epsPrime {
				est.StoppedEarly = true
				break
			}
		}
		if n >= nmax {
			break
		}
		target = n + min(n, nmax-n) // min(2n, nmax) without overflow
	}
	est.Samples = n
	for i := range hits {
		est.ApproxRisks[i] = float64(hits[i]) / float64(n)
		est.Risks[i] = exact[i] + lambda*est.ApproxRisks[i]
	}
	return est, nil
}

// Schedule returns Algorithm 1's doubling schedule for per-sample tolerance
// eps: the first round's size n0, the VC ceiling nmax for a class of
// dimension dim, both capped by maxSamples when it is positive, and the
// number of doubling rounds from n0 to nmax, over which the union bound
// splits delta.
func Schedule(eps, delta float64, dim int, maxSamples int64) (n0, nmax, rounds int64) {
	n0 = max(1, stats.SampleCount(stats.VCConstant/(eps*eps)*math.Log(1/delta)))
	nmax = max(n0, stats.VCSampleSize(eps, delta, dim))
	if maxSamples > 0 {
		n0, nmax = min(n0, maxSamples), min(nmax, maxSamples)
	}
	rounds = 1
	if nmax > n0 {
		rounds = int64(math.Ceil(math.Log2(float64(nmax) / float64(n0))))
	}
	return n0, nmax, rounds
}

// StreamSeed is the seed of virtual sampler stream v under base seed seed.
func StreamSeed(seed int64, v int) int64 { return seed + int64(v+1)*1_000_003 }

// samplerSet is the engine's fixed set of sched.VirtualWorkers independent
// sampler streams. The count and the per-stream seeds are pure functions of
// the base seed — never of Options.Workers — which is what makes every
// estimate reproducible across worker counts. Streams are materialized
// lazily on first use: tiny budgets (the common subset-ranking case) ride
// entirely on stream 0 and never pay for the other fifteen samplers'
// scratch. A stream is only ever touched by one goroutine per round
// (streams are the work items of the sched.Do below), so lazy construction
// needs no locking.
type samplerSet struct {
	space Space
	seed  int64
	ss    [sched.VirtualWorkers]Sampler
}

func makeSamplers(space Space, seed int64) *samplerSet {
	return &samplerSet{space: space, seed: seed}
}

func (s *samplerSet) get(v int) Sampler {
	if s.ss[v] == nil {
		s.ss[v] = s.space.NewSampler(StreamSeed(s.seed, v))
	}
	return s.ss[v]
}

// drawParallelWith draws `total` samples across the virtual sampler streams
// with a static, deterministic quota split (sched.Split over the virtual —
// not the physical — worker count), merging per-stream hit counts into
// hits. Up to `workers` goroutines steal streams from an atomic counter;
// hit counts are integers, so the merge is exact in any order and the
// result depends only on the seed. Each stream draws its quota with one
// DrawBatch per round (the sampler amortizes BFS work and allocations
// internally). Batches smaller than smallBatch stay on the caller's goroutine
// and on stream 0 alone: for the tiny budgets typical of subset ranking,
// goroutine wakeups would dominate the sampling itself.
//
// Cancellation is polled once per stream (sched.DoCtx) and, within a
// stream, every few thousand pairs inside the batch sampler itself (the
// sched.Stop wired below — the ROADMAP's sub-round cancellation bound): on
// a done ctx the round aborts and hits is left untouched — the streams that
// already drew advanced their RNGs, but the whole estimate is discarded by
// the caller, so no partial counts ever surface. The Stop polls never touch
// the sampler streams, so a round that completes is bitwise-identical to an
// uncancellable one.
func drawParallelWith(ctx context.Context, samplers *samplerSet, workers int, total int64, hits []int64) error {
	if total <= 0 {
		return nil
	}
	if err := params.Interrupted(ctx); err != nil {
		return err
	}
	const smallBatch = 2048
	if total < smallBatch {
		samplers.get(0).DrawBatch(total, hits)
		return nil
	}
	stop := new(sched.Stop)
	defer stop.Watch(ctx)()
	const nv = sched.VirtualWorkers
	quota := sched.Split(total, nv, nil)
	locals := make([][]int64, nv)
	err := sched.DoCtx(ctx, nv, workers, func(v int) {
		if quota[v] == 0 {
			return
		}
		// Per-stream span: one DrawBatch group per virtual worker, Extra =
		// the stream's quota. Observation only — which physical goroutine
		// runs the stream is already scheduling-invisible.
		drawSpan := obs.StartLeaf(ctx, "core.draw")
		local := make([]int64, len(hits))
		s := samplers.get(v)
		if cs, ok := s.(stoppable); ok {
			cs.SetStop(stop)
		}
		s.DrawBatch(quota[v], local)
		locals[v] = local
		if drawSpan != nil {
			drawSpan.SetExtra(quota[v])
			drawSpan.End()
		}
	})
	if err != nil {
		return &params.CanceledError{Cause: err}
	}
	for _, local := range locals {
		for i, c := range local {
			hits[i] += c
		}
	}
	return nil
}

// DirectSpace adapts a plain sampling problem (no partition) to the Space
// interface: lambdaHat = 0 and exact risks are all zero. The k-path
// estimator and the KADABRA baseline run on it.
type DirectSpace struct {
	K    int
	Dim  int
	Make func(seed int64) Sampler
}

// NumHypotheses implements Space.
func (d *DirectSpace) NumHypotheses() int { return d.K }

// ExactPhase implements Space with an empty exact subspace.
func (d *DirectSpace) ExactPhase(context.Context) (float64, []float64, error) {
	return 0, make([]float64, d.K), nil
}

// VCDim implements Space.
func (d *DirectSpace) VCDim() int { return d.Dim }

// NewSampler implements Space.
func (d *DirectSpace) NewSampler(seed int64) Sampler { return d.Make(seed) }

var _ Space = (*DirectSpace)(nil)
