package core

import (
	"context"
	"fmt"
	"math"
	"math/rand/v2"
	"slices"
	"sort"
	"sync"
	"sync/atomic"

	"saphyra/internal/alias"
	"saphyra/internal/bicomp"
	"saphyra/internal/exactphase"
	"saphyra/internal/graph"
	"saphyra/internal/params"
	"saphyra/internal/sched"
	"saphyra/internal/shortestpath"
	"saphyra/internal/vc"
)

// VCBoundKind selects which VC-dimension upper bound feeds the Lemma 4
// sample ceiling (ablation of Table I).
type VCBoundKind int

const (
	// VCSubset uses the paper's personalized bound log(BS(A)) + 1 (default).
	VCSubset VCBoundKind = iota
	// VCBicomp uses the full-network bi-component bound log(BD(V)-1) + 1.
	VCBicomp
	// VCRiondato uses the [45] bound log(VD(V)-1) + 1 from the graph
	// diameter.
	VCRiondato
)

// BCOptions configures SaPHyRa_bc.
type BCOptions struct {
	Epsilon float64 // additive error on betweenness (Eq 2); default 0.05
	Delta   float64 // failure probability; default 0.01
	Workers int     // sampling goroutines; <= 0 means GOMAXPROCS
	Seed    int64

	VCBound VCBoundKind
	// DisableExactSubspace ablates the 2-hop exact subspace: everything is
	// estimated by sampling (plain bi-component sampling).
	DisableExactSubspace bool
	// DisableAdaptive ablates Bernstein early stopping (always draw the
	// full VC budget).
	DisableAdaptive bool
	// MaxSamples optionally caps sampling (guarantee void when binding).
	MaxSamples int64
}

func (o *BCOptions) setDefaults() {
	if o.Epsilon == 0 {
		o.Epsilon = 0.05
	}
	if o.Delta == 0 {
		o.Delta = 0.01
	}
}

// BCResult is the output of SaPHyRa_bc for a target set A.
type BCResult struct {
	// Nodes is the sorted, de-duplicated target set.
	Nodes []graph.Node
	// BC[i] is the betweenness estimate of Nodes[i] (Eq 3 normalization).
	BC []float64
	// BCA[i] is the exactly-computed cutpoint term bca(Nodes[i]).
	BCA []float64

	Gamma, Eta float64 // ISP survival mass and personalized fraction
	EpsStar    float64 // tolerance passed to the framework (eps / (gamma*eta))
	Est        *Estimate
}

// BCPreprocessed caches the target-independent preprocessing — bi-component
// decomposition, out-reach tables, the block-annotated adjacency view, and
// the exact-phase engine with its pooled scratch — so several target sets
// can be ranked on the same graph without redoing the O(n + m) setup or
// reallocating per-call workspaces.
type BCPreprocessed struct {
	G    *graph.Graph
	D    *bicomp.Decomposition
	O    *bicomp.OutReach
	View *bicomp.BlockCSR
	// Exact is the run-length exact 2-hop engine (Algorithm Exact_bc) over
	// View; its worker scratch persists across EstimateBC calls.
	Exact *exactphase.Engine

	// maxBD memoizes D.MaxBlockDiameterUpperBound(), the full-network
	// bound every VC path reads; ecc memoizes the eccentricity of the
	// max-degree node, read by the VCRiondato bound. Both are fixed by the
	// graph.
	maxBDOnce sync.Once
	maxBD     int32
	eccOnce   sync.Once
	ecc       int32

	// tables holds the per-block stage-2/3 sampling tables, built lazily.
	tables blockTables

	// Free lists of per-query and per-sampler scratch, recycled the way
	// exactphase.Engine recycles its own (DESIGN §6): a warmed query
	// allocates O(k), not O(n).
	mu           sync.Mutex
	freeQueries  []*bcQuery
	freeSamplers []*bcSamplerScratch
}

// maxBlockDiameter returns the memoized upper bound on BD(V).
func (p *BCPreprocessed) maxBlockDiameter() int32 {
	p.maxBDOnce.Do(func() { p.maxBD = p.D.MaxBlockDiameterUpperBound() })
	return p.maxBD
}

// eccentricity returns the memoized eccentricity of the max-degree node (0
// on an empty graph).
func (p *BCPreprocessed) eccentricity() int32 {
	p.eccOnce.Do(func() {
		if p.G.NumNodes() > 0 {
			p.ecc = graph.Eccentricity(p.G, maxDegreeNode(p.G))
		}
	})
	return p.ecc
}

// blockTables holds the stage-2 and stage-3 sampling tables of Algorithm 2
// for every block: the alias table of r(s)(S-r(s)), the alias table of r(t)
// and the cumulative r(t) excision table. They are pure functions of the
// block, so each block's tables are built once, by the first query that
// samples from it, with alias.Build's arithmetic, and every later query
// reads them. The layout is flat and aligned with the block-major
// membership CSR: block b's members own entries [D.BlockOff[b],
// D.BlockOff[b+1]) of every column, as they do of O.R. Retained memory is
// 32 bytes per block-membership entry (three float64 columns and two int32
// ones) plus one ready bit per block.
type blockTables struct {
	once  sync.Once
	ready []atomic.Uint32 // bit b%32 of word b/32: block b is built

	mu                       sync.Mutex // serializes builds
	srcProb, dstProb, dstCum []float64
	srcAlias, dstAlias       []int32
	srcW, dstW               []float64 // build scratch, guarded by mu
}

// block returns block b's source and destination tables and its cumulative
// r(t) table, building them on first use. Safe for concurrent use.
func (t *blockTables) block(o *bicomp.OutReach, b int32) (src, dst alias.Table, cum []float64) {
	t.once.Do(func() { t.init(o) })
	if t.ready[b>>5].Load()&(1<<(b&31)) == 0 {
		t.build(o, b)
	}
	lo, hi := o.D.BlockOff[b], o.D.BlockOff[b+1]
	return alias.Of(t.srcProb[lo:hi], t.srcAlias[lo:hi]),
		alias.Of(t.dstProb[lo:hi], t.dstAlias[lo:hi]),
		t.dstCum[lo:hi]
}

func (t *blockTables) init(o *bicomp.OutReach) {
	total := len(o.R)
	t.ready = make([]atomic.Uint32, (o.D.NumBlocks+31)/32)
	t.srcProb = make([]float64, total)
	t.dstProb = make([]float64, total)
	t.dstCum = make([]float64, total)
	t.srcAlias = make([]int32, total)
	t.dstAlias = make([]int32, total)
}

func (t *blockTables) build(o *bicomp.OutReach, b int32) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.ready[b>>5].Load()&(1<<(b&31)) != 0 {
		return // built by a concurrent query while we waited
	}
	lo, hi := o.D.BlockOff[b], o.D.BlockOff[b+1]
	rs := o.BlockR(b)
	t.srcW = slices.Grow(t.srcW[:0], len(rs))[:len(rs)]
	t.dstW = slices.Grow(t.dstW[:0], len(rs))[:len(rs)]
	cum := t.dstCum[lo:hi]
	S := float64(o.S[b])
	var acc float64
	for i := range rs {
		r := float64(rs[i])
		t.srcW[i] = r * (S - r)
		t.dstW[i] = r
		acc += r
		cum[i] = acc
	}
	alias.Build(t.srcProb[lo:hi], t.srcAlias[lo:hi], t.srcW)
	alias.Build(t.dstProb[lo:hi], t.dstAlias[lo:hi], t.dstW)
	t.ready[b>>5].Or(1 << (b & 31))
}

// bcQuery is the pooled per-query scratch of SaPHyRa_bc: the target index
// map, the subset-bound BFS workspace, and the per-query views of the
// sampling tables (indexed by position j in blocksA).
type bcQuery struct {
	aIndex     []int32 // node -> index in nodes; all -1 on the free list
	subset     vc.SubsetScratch
	blockW     []float64
	blockProb  []float64
	blockAlias []int32
	srcTab     []alias.Table
	dstTab     []alias.Table
	dstCum     [][]float64
	members    [][]graph.Node
}

// bcSamplerScratch is the pooled state of one sampler stream: the n-sized
// BFS workspace and neighbor stamps plus the reusable batch buffers. All
// of it is valid to reuse as a finished or canceled query leaves it — the
// BFS workspace and nbrStamp are both epoch-stamped — and none of it feeds
// a draw, so a recycled stream is bitwise a fresh one.
type bcSamplerScratch struct {
	bfs *shortestpath.BiBFS

	// nbrStamp marks the current group source's neighbors (epoch-stamped):
	// the distance <= 2 fast path resolves a pair's disposition from one
	// adjacency scan, with no BFS and no path materialization. mid3 holds
	// the enumerated interior pairs of the current distance-3 destination,
	// so repeated samples of one (src, dst) pair index instead of re-scan.
	nbrStamp []int32
	nbrEpoch int32
	mid3     []srcDst

	// reusable scratch: the steady-state DrawBatch loop is allocation-free
	pairs   []srcDst
	pathBuf []graph.Node
	hits    []int32
}

func (p *BCPreprocessed) getQuery() *bcQuery {
	p.mu.Lock()
	if k := len(p.freeQueries); k > 0 {
		q := p.freeQueries[k-1]
		p.freeQueries = p.freeQueries[:k-1]
		p.mu.Unlock()
		return q
	}
	p.mu.Unlock()
	q := &bcQuery{aIndex: make([]int32, p.G.NumNodes())}
	for i := range q.aIndex {
		q.aIndex[i] = -1
	}
	return q
}

func (p *BCPreprocessed) getSampler() *bcSamplerScratch {
	p.mu.Lock()
	if k := len(p.freeSamplers); k > 0 {
		sc := p.freeSamplers[k-1]
		p.freeSamplers = p.freeSamplers[:k-1]
		p.mu.Unlock()
		return sc
	}
	p.mu.Unlock()
	n := p.G.NumNodes()
	return &bcSamplerScratch{
		bfs:      shortestpath.NewBiBFS(n),
		nbrStamp: make([]int32, n),
	}
}

// PreprocessBC decomposes the graph, computes out-reach tables, and builds
// the block-annotated CSR view shared by the exact phase and the sampler.
func PreprocessBC(g *graph.Graph) *BCPreprocessed {
	return PreprocessBCFromView(bicomp.NewBlockCSR(g))
}

// PreprocessBCFromView builds the cached preprocessing around an existing
// view — typically one opened zero-copy from a serialized file
// (bicomp.OpenMapped), the serve-many half of the build-once/serve-many
// flow. It wraps the view's own decomposition and out-reach tables, which
// every view carries (OpenMapped rebuilds them from the file's sections),
// and builds only the exact-phase engine; all engines run straight off the
// view arrays and its embedded graph.
func PreprocessBCFromView(view *bicomp.BlockCSR) *BCPreprocessed {
	return &BCPreprocessed{G: view.G, D: view.D, O: view.O, View: view, Exact: exactphase.New(view)}
}

// EstimateBC runs the full SaPHyRa_bc pipeline on graph g for target set a.
func EstimateBC(ctx context.Context, g *graph.Graph, a []graph.Node, opt BCOptions) (*BCResult, error) {
	return PreprocessBC(g).EstimateBC(ctx, a, opt)
}

// EstimateBC runs SaPHyRa_bc for one target set on the preprocessed graph.
// Cancellation checkpoints sit between exact-phase chunks and between
// sampling rounds (see exactphase.Engine.Run and core.Run); a done ctx
// aborts with a *params.CanceledError, never a partial estimate.
func (p *BCPreprocessed) EstimateBC(ctx context.Context, a []graph.Node, opt BCOptions) (*BCResult, error) {
	opt.setDefaults()
	g, o := p.G, p.O
	n := g.NumNodes()
	if err := params.CheckEpsDelta(opt.Epsilon, opt.Delta); err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	if err := params.CheckTargets(a, n); err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	nodes := graph.DedupSorted(a)
	k := len(nodes)

	res := &BCResult{
		Nodes: nodes,
		BC:    make([]float64, k),
		BCA:   make([]float64, k),
	}
	for i, v := range nodes {
		res.BCA[i] = o.BCA(v)
	}

	blocksA := o.BlocksOf(nodes)
	wA := o.WeightOfBlocks(blocksA)
	res.Gamma = o.Gamma()
	if o.WTotal > 0 {
		res.Eta = wA / o.WTotal
	}
	gammaEta := 0.0
	if n >= 2 {
		gammaEta = wA / (float64(n) * float64(n-1))
	}
	if gammaEta <= 0 {
		// No intra-block pair mass touches A (e.g. isolated nodes): the
		// estimate is just the exact cutpoint term.
		copy(res.BC, res.BCA)
		return res, nil
	}
	// bc = gammaEta * R + bca, so an eps target on bc allows a tolerance of
	// eps / gammaEta on R. (Section IV-D writes eps* = eps*gamma*eta; with
	// that literal choice Theorem 24 would not follow, so we use the
	// division — see DESIGN.md.)
	epsStar := opt.Epsilon / gammaEta
	res.EpsStar = epsStar

	space, err := newBCSpace(ctx, p, nodes, blocksA, wA, opt)
	if err != nil {
		return nil, err
	}
	defer space.release()
	if epsStar >= 1 {
		// Any estimate in [0,1] is within eps of the truth after scaling by
		// gammaEta < eps; skip sampling and return the exact part alone.
		lambdaHat, exact, _ := space.ExactPhase(ctx) // precomputed: never errors
		for i := range res.BC {
			res.BC[i] = res.BCA[i] + gammaEta*exact[i]
		}
		res.Est = &Estimate{
			Risks:      exact,
			ExactRisks: exact,
			LambdaHat:  lambdaHat,
			EpsPrime:   math.Inf(1),
			VCDim:      space.VCDim(),
		}
		return res, nil
	}
	est, err := Run(ctx, space, Options{
		Epsilon:         epsStar,
		Delta:           opt.Delta,
		Workers:         opt.Workers,
		Seed:            opt.Seed,
		DisableAdaptive: opt.DisableAdaptive,
		MaxSamples:      opt.MaxSamples,
	})
	if err != nil {
		return nil, err
	}
	res.Est = est
	for i := range res.BC {
		res.BC[i] = res.BCA[i] + gammaEta*est.Risks[i]
	}
	return res, nil
}

// bcSpace implements Space for RSP_bc (Section IV-B): the sample space is
// the personalized ISP space X_c^(A); the exact subspace is the set of
// 2-hop intra-block shortest paths whose middle node is in A (Eq 29).
//
// Its index map and table views live in a pooled bcQuery, and its samplers
// take pooled scratch: release hands all of it back once the query is done.
type bcSpace struct {
	p       *BCPreprocessed
	q       *bcQuery
	nodes   []graph.Node
	aIndex  []int32 // node -> index in nodes, or -1
	blocksA []int32
	wA      float64

	// Multistage sampling tables (Algorithm 2) as Walker/Vose alias tables:
	// every stage of a draw is O(1) instead of an O(log n) binary search
	// over a cumulative table. Indexed by position j in blocksA; the
	// per-block tables are views of the cached p.tables.
	blockTab alias.Table    // stage 1: block proportional to w_i
	srcTab   []alias.Table  // stage 2 per block: src proportional to r(s)(S-r(s))
	dstTab   []alias.Table  // stage 3 per block: dst proportional to r(t)
	dstCum   [][]float64    // per block: cumulative r(t) — the excision fallback
	members  [][]graph.Node // per block j: member nodes (dense index base)

	lambdaHat float64
	exact     []float64
	vcdim     int

	disableExact bool

	mu    sync.Mutex
	taken []*bcSamplerScratch // handed out by NewSampler, returned by release
}

func newBCSpace(ctx context.Context, p *BCPreprocessed, nodes []graph.Node, blocksA []int32, wA float64, opt BCOptions) (*bcSpace, error) {
	d, o := p.D, p.O
	q := p.getQuery()
	for i, v := range nodes {
		q.aIndex[v] = int32(i)
	}
	sp := &bcSpace{
		p:            p,
		q:            q,
		nodes:        nodes,
		aIndex:       q.aIndex,
		blocksA:      blocksA,
		wA:           wA,
		disableExact: opt.DisableExactSubspace,
	}

	// Multistage tables: gather the cached per-block tables of the blocks
	// in I(A) and build only the small stage-1 table over them.
	nb := len(blocksA)
	q.blockW = slices.Grow(q.blockW[:0], nb)[:nb]
	q.blockProb = slices.Grow(q.blockProb[:0], nb)[:nb]
	q.blockAlias = slices.Grow(q.blockAlias[:0], nb)[:nb]
	q.srcTab = slices.Grow(q.srcTab[:0], nb)[:nb]
	q.dstTab = slices.Grow(q.dstTab[:0], nb)[:nb]
	q.dstCum = slices.Grow(q.dstCum[:0], nb)[:nb]
	q.members = slices.Grow(q.members[:0], nb)[:nb]
	for j, b := range blocksA {
		q.blockW[j] = float64(o.W[b])
		q.members[j] = d.Block(b)
		q.srcTab[j], q.dstTab[j], q.dstCum[j] = p.tables.block(o, b)
	}
	sp.blockTab = alias.Build(q.blockProb, q.blockAlias, q.blockW)
	sp.srcTab, sp.dstTab, sp.dstCum, sp.members = q.srcTab, q.dstTab, q.dstCum, q.members

	// VC dimension (Corollary 22 / Table I).
	switch opt.VCBound {
	case VCRiondato:
		diamUB := int32(0)
		if p.G.NumNodes() > 0 {
			// [45]'s diameter bound: 2 * eccentricity of the max-degree
			// node, which bounds only that node's component. The max with
			// BD(V) keeps the dimension valid for what is sampled: every
			// bi-component sample's path lies inside one block, so it has
			// at most BD(V)-1 inner nodes.
			diamUB = 2 * p.eccentricity()
			if bd := p.maxBlockDiameter(); bd > diamUB {
				diamUB = bd
			}
		}
		sp.vcdim = vc.Riondato(diamUB)
	case VCBicomp:
		sp.vcdim = vc.FullNetwork(p.maxBlockDiameter())
	default:
		full := vc.FullNetwork(p.maxBlockDiameter())
		sp.vcdim = vc.SubsetCapped(d, nodes, full, &q.subset)
	}
	if sp.vcdim < 1 {
		sp.vcdim = 1
	}

	if sp.disableExact {
		sp.lambdaHat = 0
		sp.exact = make([]float64, len(nodes))
	} else {
		var err error
		sp.lambdaHat, sp.exact, err = p.Exact.Run(ctx, nodes, sp.aIndex, sp.wA, opt.Workers)
		if err != nil {
			sp.release()
			return nil, fmt.Errorf("core: %w", err)
		}
	}
	return sp, nil
}

// release returns the space's query scratch and every sampler's scratch to
// p's free lists. It runs once the query is over — finished, failed or
// canceled, when no sampler runs any more — and the space must not be used
// after it.
func (sp *bcSpace) release() {
	q := sp.q
	for _, v := range sp.nodes {
		q.aIndex[v] = -1
	}
	for _, sc := range sp.taken {
		// A huge round's pair buffer (up to batchCap pairs) is not worth
		// keeping on the free list; small-query rounds stay allocation-free.
		if cap(sc.pairs) > batchProbe {
			sc.pairs = nil
		}
	}
	p := sp.p
	p.mu.Lock()
	p.freeQueries = append(p.freeQueries, q)
	p.freeSamplers = append(p.freeSamplers, sp.taken...)
	p.mu.Unlock()
	sp.q, sp.aIndex, sp.taken = nil, nil, nil
}

func maxDegreeNode(g *graph.Graph) graph.Node {
	var best graph.Node
	bd := -1
	for u := graph.Node(0); int(u) < g.NumNodes(); u++ {
		if d := g.Degree(u); d > bd {
			bd = d
			best = u
		}
	}
	return best
}

// NumHypotheses implements Space.
func (sp *bcSpace) NumHypotheses() int { return len(sp.nodes) }

// VCDim implements Space.
func (sp *bcSpace) VCDim() int { return sp.vcdim }

// ExactPhase implements Space: the risks were computed eagerly (and
// cancellably) in newBCSpace, so this never blocks and never errors.
func (sp *bcSpace) ExactPhase(context.Context) (float64, []float64, error) {
	return sp.lambdaHat, sp.exact, nil
}

// NewSampler implements Space: Algorithm Gen_bc (Algorithm 2), multistage
// alias-table sampling with rejection of exact-subspace paths. The returned
// sampler's DrawBatch pre-draws a batch of (src, dst) pairs, groups them by
// source, and marks each source's neighborhood once for its whole group —
// on skewed graphs the stage-2 r(s)(S-r(s)) mass concentrates on few hub
// sources, so one stamp serves hundreds of pairs, and every pair within
// distance 3 resolves from adjacency scans against it, with no BFS. Only
// farther pairs pay for a bidirectional BFS each.
//
// The sampler's workspaces come from p's free list; its RNG and round
// sizing start fresh, so a sampler is a pure function of its seed.
func (sp *bcSpace) NewSampler(seed int64) Sampler {
	sc := sp.p.getSampler()
	sp.mu.Lock()
	sp.taken = append(sp.taken, sc)
	sp.mu.Unlock()
	return &bcSampler{
		bcSamplerScratch: sc,
		sp:               sp,
		rng:              rand.New(rand.NewPCG(uint64(seed), 0x9e3779b97f4a7c15)),
	}
}

// srcDst packs one pre-drawn stage-1..3 sample (src in the high 32 bits,
// dst in the low) so a batch sorts with the specialized slices.Sort for
// uint64 — no comparator calls in the grouping step.
type srcDst uint64

func packSrcDst(src, dst graph.Node) srcDst {
	return srcDst(uint64(uint32(src))<<32 | uint64(uint32(dst)))
}

func (p srcDst) src() graph.Node { return graph.Node(p >> 32) }
func (p srcDst) dst() graph.Node { return graph.Node(uint32(p)) }

type bcSampler struct {
	*bcSamplerScratch
	sp  *bcSpace
	rng *rand.Rand

	// lastSources is the distinct-source count of the last grouping round:
	// the measured quantity behind the adaptive per-round quota.
	lastSources int64

	// stop, when wired by the framework, is polled every cancelPollPairs
	// pairs inside the grouping rounds (and before every BFS): the
	// sub-round cancellation bound. The polls consume no randomness, so a
	// run whose stop never fires is bitwise-identical to an unwired run.
	stop *sched.Stop
}

// SetStop wires the sub-round cancellation flag (core.stoppable).
func (s *bcSampler) SetStop(st *sched.Stop) { s.stop = st }

// cancelPollPairs is the pair stride between stop polls inside a grouping
// round: coarse enough that the atomic load vanishes against the per-pair
// adjacency scans, fine enough that time-to-cancel is bounded by a few
// thousand cheap pairs or a single BFS rather than a whole round.
const cancelPollPairs = 1 << 12

// batchCap bounds the number of pairs pre-drawn per grouping round (8 bytes
// each — 8 MiB of reusable scratch at the cap, allocated only up to the
// quota actually requested). The larger the round, the more pairs share a
// source: at production budgets (full-network ranking, tight eps) groups
// grow into the hundreds and one neighborhood stamp, and one scan per
// distinct destination, serves them all.
const batchCap = 1 << 20

// batchProbe is the first-round quota (and the floor of the adaptive round
// sizing): large enough that grouping is measurable, small enough that tiny
// sampling budgets behave exactly like a single round.
const batchProbe = 1 << 14

// groupScale is the average group size the adaptive round sizing aims for:
// past ~1k pairs per source the stamp and scan amortization has flattened,
// so larger rounds only grow the pair buffer.
const groupScale = 1 << 10

// drawPair runs stages 1-3 of Algorithm 2 on the alias tables: O(1) — three
// uniform variates — instead of three binary searches. Stage 3 must exclude
// the source; two O(1) alias draws with rejection handle the common case
// (src holds little of the r(t) mass), and a collision on both falls back
// to the exact conditional via interval excision over the cumulative table.
// The fallback matters: in a pendant block {leaf, hub} the hub holds nearly
// all the target mass, so pure rejection would spin for the component size.
func (s *bcSampler) drawPair() srcDst {
	sp := s.sp
	j := sp.blockTab.Draw(s.rng.Float64())
	members := sp.members[j]
	si := sp.srcTab[j].Draw(s.rng.Float64())
	ti := sp.dstTab[j].Draw(s.rng.Float64())
	if ti == si {
		ti = sp.dstTab[j].Draw(s.rng.Float64())
	}
	if ti == si {
		// Excision: draw a point in the cumulative r(t) mass with src's
		// interval removed (the exact conditional, as the seed engine did).
		tc := sp.dstCum[j]
		rs := tc[si]
		var before float64
		if si > 0 {
			before = tc[si-1]
			rs -= before
		}
		pos := s.rng.Float64() * (tc[len(tc)-1] - rs)
		if pos >= before {
			pos += rs
		}
		ti = sort.SearchFloat64s(tc, pos)
		if ti >= len(members) {
			ti = len(members) - 1
		}
		if ti == si { // float boundary: nudge deterministically
			if ti+1 < len(members) {
				ti++
			} else {
				ti--
			}
		}
	}
	return packSrcDst(members[si], members[ti])
}

// countPath accumulates one accepted path sample: hit indices are appended
// to s.hits and, when hits is non-nil, hit counts are incremented. Returns
// false (rejection) for exact-subspace paths: length 2 with middle in A.
func (s *bcSampler) countPath(path []graph.Node, hits []int64) bool {
	sp := s.sp
	if !sp.disableExact && len(path) == 3 && sp.aIndex[path[1]] >= 0 {
		return false
	}
	for _, v := range path[1 : len(path)-1] {
		if ai := sp.aIndex[v]; ai >= 0 {
			if hits != nil {
				hits[ai]++
			} else {
				s.hits = append(s.hits, ai)
			}
		}
	}
	return true
}

// Draw draws one sample with its own bidirectional BFS and returns the
// indices of the hypotheses it hits; the slice is valid until the next
// Draw. It is the per-sample reference the batch tests hold DrawBatch to.
func (s *bcSampler) Draw() []int32 {
	g := s.sp.p.G
	for {
		p := s.drawPair()
		// stage 4: uniform shortest path between src and dst
		if _, _, ok := s.bfs.Query(g, p.src(), p.dst()); !ok {
			continue // defensive: members of one block are always connected
		}
		s.pathBuf = s.bfs.SamplePathAppend(g, s.rng, s.pathBuf)
		s.hits = s.hits[:0]
		if s.countPath(s.pathBuf, nil) {
			return s.hits
		}
	}
}

// roundQuota derives the next grouping round's pre-draw quota from the
// measured batch/#distinct-sources ratio (the ROADMAP's adaptive batch
// sizing): rounds aim for an average group size of groupScale, so a sampler
// whose stage-2 mass concentrates on few hub sources keeps rounds — and
// therefore the pair buffer — small with nothing lost (its groups are
// already saturated), while a diffuse sampler takes rounds as large as the
// batchCap scratch bound allows. The measurement evolves deterministically
// with the seeded sample stream, so fixed seed + workers still implies
// identical output.
func (s *bcSampler) roundQuota() int64 {
	if s.lastSources <= 0 {
		return batchProbe // nothing measured yet
	}
	q := s.lastSources * groupScale
	if q < batchProbe {
		q = batchProbe
	}
	if q > batchCap {
		q = batchCap
	}
	return q
}

// DrawBatch implements Sampler: n samples with per-source amortized
// stage-4 work. Rejected samples (exact-subspace paths) are redrawn in the
// next grouping round, so exactly n accepted samples are accumulated —
// unless the wired stop fires, in which case the batch returns early with a
// short count (the framework discards the whole canceled estimate, so the
// shortfall never surfaces).
func (s *bcSampler) DrawBatch(n int64, hits []int64) {
	for n > 0 && !s.stop.Stopped() {
		m := n
		if q := s.roundQuota(); m > q {
			m = q
		}
		n -= s.drawGrouped(int(m), hits)
	}
}

// drawGrouped pre-draws m (src, dst) pairs, sorts them by (src, dst) so
// samples sharing a source are adjacent, and serves each source group via
// serveGroup. Returns the number of accepted samples.
func (s *bcSampler) drawGrouped(m int, hits []int64) int64 {
	s.pairs = s.pairs[:0]
	for i := 0; i < m; i++ {
		if i&(cancelPollPairs-1) == 0 && s.stop.Stopped() {
			break // sub-round cancel: the short round is discarded upstream
		}
		s.pairs = append(s.pairs, s.drawPair())
	}
	// Sorting by the packed (src, dst) key makes the serve order — and
	// therefore the rng stream — a deterministic function of the drawn
	// pairs.
	slices.Sort(s.pairs)
	var accepted, sources int64
	for lo := 0; lo < len(s.pairs); {
		if s.stop.Stopped() {
			break // between source groups: no group state to unwind
		}
		src := s.pairs[lo].src()
		hi := lo + 1
		for hi < len(s.pairs) && s.pairs[hi].src() == src {
			hi++
		}
		sources++
		accepted += s.serveGroup(src, s.pairs[lo:hi], hits)
		lo = hi
	}
	s.lastSources = sources
	return accepted
}

// serveGroup answers every pair of one source group. Pairs at distance at
// most 3 resolve on the spot from scans of the destination side's adjacency
// against the marked source neighborhood, with no BFS and no path
// materialization:
//
//   - distance 1: the unique path has no interior — always accepted, never a
//     hit;
//   - distance 2: the only interior node is a uniform common neighbor, so
//     the sample's entire effect reduces to whether that middle lands in A
//     (rejection — the mass the exact phase covers — or a hit under the
//     DisableExactSubspace ablation). The rejection-redraw cycle therefore
//     costs one adjacency scan;
//   - distance 3: every shortest path is src-a-b-dst with a marked, b an
//     unmarked neighbor of dst, and (a, b) an edge; sigma3 counts such pairs
//     by scanning N(b) for marks over b in N(dst), and a uniform path is a
//     uniform (a, b) index into that scan.
//
// The source stamp is paid once per group and the scans once per distinct
// destination. Only distance >= 4 pairs need a BFS: one bidirectional BFS
// per pair, which reads neither nbrStamp nor mid3, so it runs in place.
func (s *bcSampler) serveGroup(src graph.Node, run []srcDst, hits []int64) int64 {
	sp := s.sp
	g := sp.p.G
	if s.nbrEpoch == math.MaxInt32 {
		clear(s.nbrStamp)
		s.nbrEpoch = 0
	}
	s.nbrEpoch++
	e := s.nbrEpoch
	for _, w := range g.Neighbors(src) {
		s.nbrStamp[w] = e
	}
	var accepted int64
	lastDst := graph.Node(-1)
	var sigma, cA int32
	var sigma3 int64
	for pi, p := range run {
		if pi&(cancelPollPairs-1) == cancelPollPairs-1 && s.stop.Stopped() {
			break // giant hub group: bound time-to-cancel within it too
		}
		dst := p.dst()
		if s.nbrStamp[dst] == e {
			accepted++ // distance 1: no interior, no hit
			continue
		}
		if dst != lastDst { // pairs are dst-sorted: repeats share the scans
			lastDst = dst
			sigma, cA = 0, 0
			for _, w := range g.Neighbors(dst) {
				if s.nbrStamp[w] == e {
					sigma++
					if sp.aIndex[w] >= 0 {
						cA++
					}
				}
			}
			if sigma == 0 {
				// No common neighbor and not adjacent: src cannot appear
				// in N(dst) here, nor can any b be marked (either would
				// contradict distance > 2), so the scan needs no filters.
				s.mid3 = s.mid3[:0]
				for _, b := range g.Neighbors(dst) {
					for _, a := range g.Neighbors(b) {
						if s.nbrStamp[a] == e {
							s.mid3 = append(s.mid3, packSrcDst(a, b))
						}
					}
				}
				sigma3 = int64(len(s.mid3))
			}
		}
		switch {
		case sigma > 0:
			// distance 2: sigma common neighbors, cA of them in A.
			if sp.disableExact {
				// Ablation: length-2 paths stay in the sample space, so a
				// hit requires the identity of the uniform middle.
				if cA > 0 {
					k := int32(s.rng.IntN(int(sigma)))
					for _, w := range g.Neighbors(dst) {
						if s.nbrStamp[w] == e {
							if k == 0 {
								if ai := sp.aIndex[w]; ai >= 0 {
									hits[ai]++
								}
								break
							}
							k--
						}
					}
				}
				accepted++
				continue
			}
			switch {
			case cA == 0:
				accepted++ // accepted, middle outside A: no hit
			case cA == sigma:
				// every middle is in A: certain rejection, redraw upstream
			default:
				if int32(s.rng.IntN(int(sigma))) >= cA {
					accepted++
				}
			}
		case sigma3 > 0:
			// distance 3: a uniform interior pair (a, b), read off the
			// enumeration buffer.
			pair := s.mid3[s.rng.Int64N(sigma3)]
			if ai := sp.aIndex[pair.src()]; ai >= 0 {
				hits[ai]++
			}
			if ai := sp.aIndex[pair.dst()]; ai >= 0 {
				hits[ai]++
			}
			accepted++
		default:
			// distance >= 4: one bidirectional BFS per pair.
			if s.stop.Stopped() {
				return accepted
			}
			accepted += s.serveFromBiBFS(src, dst, hits)
		}
	}
	return accepted
}

// serveFromBiBFS answers one pair with balanced bidirectional BFS.
func (s *bcSampler) serveFromBiBFS(src, dst graph.Node, hits []int64) int64 {
	g := s.sp.p.G
	_, _, ok := s.bfs.Query(g, src, dst)
	if !ok {
		return 0 // defensive: redrawn by the caller's accounting
	}
	s.pathBuf = s.bfs.SamplePathAppend(g, s.rng, s.pathBuf)
	if s.countPath(s.pathBuf, hits) {
		return 1
	}
	return 0
}

var (
	_ Space   = (*bcSpace)(nil)
	_ Sampler = (*bcSampler)(nil)
)
