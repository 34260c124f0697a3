package query

import (
	"context"
	"fmt"
	"sync"
	"time"

	"saphyra/internal/baselines"
	"saphyra/internal/bicomp"
	"saphyra/internal/closeness"
	"saphyra/internal/core"
	"saphyra/internal/faultinject"
	"saphyra/internal/graph"
	"saphyra/internal/kpath"
	"saphyra/internal/obs"
	"saphyra/internal/params"
	"saphyra/internal/rank"
)

// Result is a centrality ranking of a target node set — the one result
// shape every measure and algorithm produces.
type Result struct {
	// Nodes is the sorted, de-duplicated target set.
	Nodes []graph.Node
	// Scores[i] is the estimated centrality of Nodes[i] (betweenness: Eq 3
	// normalization, values in [0,1]).
	Scores []float64
	// Rank[i] is the rank (1 = most central) of Nodes[i] within the target
	// set, ties broken by node id as in the paper.
	Rank []int
	// Samples is the number of samples drawn; Duration the wall time of the
	// estimation (excluding graph loading).
	Samples  int64
	Duration time.Duration
}

func buildResult(nodes []graph.Node, scores []float64, samples int64, dur time.Duration) *Result {
	ids := make([]int32, len(nodes))
	for i, v := range nodes {
		ids[i] = int32(v)
	}
	return &Result{
		Nodes:    nodes,
		Scores:   scores,
		Rank:     rank.Ranks(scores, ids),
		Samples:  samples,
		Duration: dur,
	}
}

// Ranker answers Queries over one graph (or one block-annotated view),
// lazily caching the target-independent per-measure preprocessing: the
// betweenness decomposition/out-reach/exact-phase engine is built on the
// first betweenness query and shared by every later one, and the closeness
// engine's pooled workspaces likewise. k-path and closeness run on the
// graph's sorted CSR — a view's embedded graph — so the view itself is
// read only to build the betweenness preprocessing. A Ranker is safe for
// concurrent use; results are a pure function of the canonical query and
// the graph bytes, never of concurrency or Workers.
type Ranker struct {
	g    *graph.Graph
	view *bicomp.BlockCSR // non-nil when constructed over a view; feeds bcPrep only

	mu sync.Mutex
	bc *core.BCPreprocessed // lazy betweenness preprocessing
	cl *closeness.Engine    // lazy closeness engine (pooled MS-BFS scratch)
}

// NewRanker returns a Ranker over an in-memory graph.
func NewRanker(g *graph.Graph) *Ranker {
	return &Ranker{g: g}
}

// NewRankerView returns a Ranker over a block-annotated view (typically
// mmap-backed, bicomp.OpenMapped): the betweenness preprocessing is read
// straight off the view arrays and every engine walks the view's pages, so
// results are bitwise-identical to a Ranker over the graph the view was
// built from.
func NewRankerView(view *bicomp.BlockCSR) *Ranker {
	return &Ranker{g: view.G, view: view}
}

// NumNodes returns the node count of the underlying graph.
func (r *Ranker) NumNodes() int { return r.g.NumNodes() }

// Prepare eagerly builds the cached preprocessing for a measure, so that no
// later Rank call pays for it — what a serving layer does at load time.
// Measures without per-graph preprocessing are a no-op.
func (r *Ranker) Prepare(m Measure) {
	switch m {
	case Betweenness:
		r.bcPrep()
	case Closeness:
		r.clEngine()
	}
}

// bcPrep returns the lazily-built betweenness preprocessing.
func (r *Ranker) bcPrep() *core.BCPreprocessed { return r.bcPrepCtx(context.Background()) }

// bcPrepCtx is bcPrep with a "rank.prep.betweenness" span covering the
// build when this call is the one that pays for it (later calls hit the
// cache inside the mutex and produce no span).
func (r *Ranker) bcPrepCtx(ctx context.Context) *core.BCPreprocessed {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.bc == nil {
		sp := obs.StartLeaf(ctx, "rank.prep.betweenness")
		if r.view != nil {
			r.bc = core.PreprocessBCFromView(r.view)
		} else {
			r.bc = core.PreprocessBC(r.g)
		}
		sp.End()
	}
	return r.bc
}

// clEngine returns the lazily-built closeness engine. Caching it across
// queries is what keeps repeat closeness queries at the engine's pooled
// zero-allocation steady state — the free-function path would rebuild the
// MS-BFS workspaces per call.
func (r *Ranker) clEngine() *closeness.Engine { return r.clEngineCtx(context.Background()) }

func (r *Ranker) clEngineCtx(ctx context.Context) *closeness.Engine {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.cl == nil {
		sp := obs.StartLeaf(ctx, "rank.prep.closeness")
		r.cl = closeness.NewEngine(r.g)
		sp.End()
	}
	return r.cl
}

// Rank estimates and ranks the query's targets (every node of the graph
// when the target set is empty) with the query's measure and algorithm.
//
// Cancellation is all-or-nothing: the engines poll ctx at their round and
// chunk checkpoints, and either complete — in which case the result is
// bitwise-identical to a run under a context that never fires — or abort
// with a *params.CanceledError carrying the context's cause; a partial
// estimate is never returned. A nil ctx is treated as context.Background().
func (r *Ranker) Rank(ctx context.Context, q Query) (*Result, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	// Chaos hook: lets the fault harness make any engine call slow, fail,
	// or panic without reaching into engine internals.
	if err := faultinject.Fire("query.rank"); err != nil {
		return nil, err
	}
	start := time.Now()
	ctx, rankSpan := obs.StartSpan(ctx, "rank")
	defer rankSpan.End()
	c := q.Canonical()
	if err := c.validateCanonical(r.g.NumNodes()); err != nil {
		return nil, fmt.Errorf("saphyra: %w", err)
	}
	c.Workers = q.Workers // latency-relevant, result-irrelevant
	targets := c.Targets
	if len(targets) == 0 {
		targets = make([]graph.Node, r.g.NumNodes())
		for i := range targets {
			targets[i] = graph.Node(i)
		}
	}

	switch c.Measure {
	case Betweenness:
		switch c.Algorithm {
		case AlgSaPHyRa:
			if rankSpan != nil {
				rankSpan.SetNote("betweenness/saphyra")
			}
			res, err := r.bcPrepCtx(ctx).EstimateBC(ctx, targets, core.BCOptions{
				Epsilon: c.Epsilon, Delta: c.Delta,
				Workers: c.Workers, Seed: c.Seed,
			})
			if err != nil {
				return nil, err
			}
			var samples int64
			if res.Est != nil {
				samples = res.Est.Samples
			}
			return buildResult(res.Nodes, res.BC, samples, time.Since(start)), nil
		default: // AlgABRA, AlgKADABRA — whole-network estimators
			bopt := baselines.Options{
				Epsilon: c.Epsilon, Delta: c.Delta,
				Workers: c.Workers, Seed: c.Seed,
			}
			var res *baselines.Result
			var err error
			if c.Algorithm == AlgABRA {
				res, err = baselines.ABRA(ctx, r.g, bopt)
			} else {
				res, err = baselines.KADABRA(ctx, r.g, bopt)
			}
			if err != nil {
				return nil, err
			}
			scores := make([]float64, len(targets))
			for i, v := range targets {
				scores[i] = res.BC[v]
			}
			return buildResult(targets, scores, res.Samples, time.Since(start)), nil
		}
	case KPath:
		if rankSpan != nil {
			rankSpan.SetNote("kpath")
		}
		res, err := kpath.Estimate(ctx, r.g, targets, kpath.Options{
			K: c.K, Epsilon: c.Epsilon, Delta: c.Delta,
			Workers: c.Workers, Seed: c.Seed,
		})
		if err != nil {
			return nil, err
		}
		return buildResult(res.Nodes, res.KPath, res.Est.Samples, time.Since(start)), nil
	case Closeness:
		if rankSpan != nil {
			rankSpan.SetNote("closeness")
		}
		copt := closeness.Options{
			Epsilon: c.Epsilon, Delta: c.Delta,
			Workers: c.Workers, Seed: c.Seed,
		}
		res, err := r.clEngineCtx(ctx).Estimate(ctx, targets, copt)
		if err != nil {
			return nil, err
		}
		return buildResult(res.Nodes, res.Closeness, res.Samples, time.Since(start)), nil
	}
	return nil, fmt.Errorf("saphyra: %w", params.Errorf("measure", "unknown measure %v", c.Measure))
}
