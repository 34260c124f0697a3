// Package closeness implements subset ranking by harmonic closeness
// centrality, the first of the paper's stated future-work extensions of the
// SaPHyRa framework (Section VI).
//
// Harmonic closeness of v is c(v) = (1/(n-1)) * sum_{u != v} 1/d(u, v)
// (terms with unreachable u are 0). As SaPHyRa_bc counts its 2-hop pairs
// exactly and samples the rest, the estimator counts the distance-1 sources
// exactly: there are deg(v) of them, each contributing 1. A sample is a
// uniform source u over all n nodes, and its loss for target v is
// loss'(u, v) = 1/d(u, v) for d >= 2 and 0 otherwise (the source itself, a
// neighbor, or unreached), so loss' has range 1/2. With m the mean of
// loss' over the samples,
//
//	c^(v) = (deg(v) + n*m) / (n-1),
//
// whose expectation is c(v) up to the fixed-point rounding below. The loss
// is bounded but not binary, so this package runs its own progressive
// estimator with empirical Bernstein stopping (per-target variance, range
// 1/2) instead of the 0/1 framework plumbing.
//
// Losses are exact fixed point: a sample's loss is floor(2^32/d) / 2^32
// for d >= 2, so it sits below 1/d by less than 2^-32. Per target the
// estimator keeps the sum of floor(2^32/d) and the sum of its squares as
// 128-bit unsigned integers, and converts to float only for each round's
// stopping check and the final estimate. An error of x in m is an error of
// n/(n-1)*x in c^(v), so the check stops once every bound is at most
// (n-1)/n*eps - 2^-32, and the (eps, delta) guarantee holds for c(v)
// itself (DESIGN.md section 11).
//
// Distance labels are all a sample needs, so samples are priced by
// bit-parallel MS-BFS passes (internal/msbfs), each of which streams the
// adjacency once per level for up to 64 roots. Each doubling round picks
// one of two shapes:
//
//   - source shape: every virtual stream roots one pass at up to 64 of its
//     own sampled sources, and a settle of a target adds one sample per
//     lane reaching it;
//   - target shape: the graph is undirected, so d(u, v) = d(v, u), and a
//     pass rooted at up to 64 targets prices every sampled source at once.
//     The round's sources are drawn first and counted per node, and a
//     settle of a drawn source adds its draw count to each target lane.
//
// The round takes the target shape only when that makes strictly fewer
// passes: ceil(k/64) against sum_v ceil(quota_v/64). A 100-target query
// therefore makes 2 passes per round where the source shape makes at least
// 16, while whole-network ranking (k = n) keeps the source shape until its
// rounds outgrow n samples. The choice is a pure function of (quota, k).
//
// Determinism: sampling is driven through sched.VirtualWorkers fixed
// per-stream RNGs with a deterministic quota split, MS-BFS distance labels
// are neighbor-order invariant (identical to per-source BFS, from either
// end), and integer addition is associative. So for a fixed seed every sum
// is the same integer, and the estimate the same bits, for any
// Options.Workers value, either shape and any grouping of draws into
// passes. The estimator runs over any CSR-shaped adjacency: Estimate
// prices targets on the raw CSR, EstimateView on the block-grouped
// bicomp.BlockCSR arrays (typically mmap-backed; see bicomp.OpenMapped),
// with bitwise-identical results. See DESIGN.md sections 3 (determinism),
// 7 (the shared view layer), and 11 (MS-BFS and the fixed-point sums).
package closeness

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/bits"
	"math/rand/v2"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"

	"saphyra/internal/bicomp"
	"saphyra/internal/graph"
	"saphyra/internal/msbfs"
	"saphyra/internal/params"
	"saphyra/internal/sched"
	"saphyra/internal/stats"
)

// Options configures the estimator.
type Options struct {
	Epsilon float64 // additive error; default 0.05
	Delta   float64 // failure probability; default 0.01
	Workers int     // goroutines; the result does not depend on this
	// Seed determines the sample streams; fixed seed => bitwise-identical
	// output at any worker count.
	Seed       int64
	MaxSamples int64 // optional cap; default 64/eps^2 * ln-scaled ceiling
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
	// Results are worker-count independent by contract, so oversubscribing
	// the machine can only add goroutine churn — clamp instead of trusting
	// the caller's guess. On a single-core box this selects the inline
	// sched path, which allocates nothing.
	if p := runtime.GOMAXPROCS(0); o.Workers > p {
		o.Workers = p
	}
}

// Result holds harmonic closeness estimates for the target set.
type Result struct {
	Nodes        []graph.Node
	Closeness    []float64
	Samples      int64
	Rounds       int
	StoppedEarly bool
}

// reset readies a Result for reuse, keeping the backing arrays.
func (r *Result) reset() {
	r.Nodes = r.Nodes[:0]
	r.Closeness = r.Closeness[:0]
	r.Samples = 0
	r.Rounds = 0
	r.StoppedEarly = false
}

// Estimate computes (eps, delta)-estimates of harmonic closeness for the
// targets by source sampling over the graph's CSR adjacency. Cancellation
// is polled between doubling rounds, between the per-round virtual streams
// (source shape) or runs of draws and target batches (target shape), and
// every few thousand scanned edges inside a traversal pass: a done ctx
// aborts with a *params.CanceledError, never a partial estimate.
//
// One-shot convenience over NewEngine; serving paths that price many
// queries against one graph should hold an Engine and call EstimateInto.
func Estimate(ctx context.Context, g *graph.Graph, a []graph.Node, opt Options) (*Result, error) {
	return NewEngine(g).Estimate(ctx, a, opt)
}

// EstimateView is Estimate over a block-annotated adjacency view: the
// traversals stream the view's grouped neighbor arrays, so a view opened
// from a serialized file (bicomp.OpenMapped) serves closeness queries
// without touching — or even having — the original CSR pages. Results are
// bitwise-identical to Estimate on the graph the view was built from.
func EstimateView(ctx context.Context, view *bicomp.BlockCSR, a []graph.Node, opt Options) (*Result, error) {
	return NewEngineView(view).Estimate(ctx, a, opt)
}

// Engine is a reusable closeness estimator bound to one adjacency. It owns
// a pool of per-call workspaces (RNG streams, MS-BFS traversals, draw
// counts, accumulators), so the steady state of EstimateInto
// allocates nothing beyond the goroutines sched spins up: build one Engine
// per served graph or view and share it across requests (safe for
// concurrent use).
type Engine struct {
	n   int
	off []int64
	nbr []graph.Node

	mu   sync.Mutex
	free []*callScratch
}

// NewEngine returns an Engine pricing over the graph's sorted CSR arrays.
func NewEngine(g *graph.Graph) *Engine {
	off, nbr := g.CSR()
	return &Engine{n: g.NumNodes(), off: off, nbr: nbr}
}

// NewEngineView returns an Engine streaming the view's block-grouped
// arrays. BFS distance labels are neighbor-order invariant, so its results
// are bitwise-identical to NewEngine on the graph the view was built from.
func NewEngineView(view *bicomp.BlockCSR) *Engine {
	off, nbr := bicomp.GroupedAdj{V: view}.CSR()
	return &Engine{n: view.G.NumNodes(), off: off, nbr: nbr}
}

// Estimate allocates a fresh Result and delegates to EstimateInto.
func (e *Engine) Estimate(ctx context.Context, a []graph.Node, opt Options) (*Result, error) {
	res := &Result{}
	if err := e.EstimateInto(ctx, a, opt, res); err != nil {
		return nil, err
	}
	return res, nil
}

// EstimateInto runs the estimator, writing into res (whose backing arrays
// are reused across calls). On error res holds no partial estimate.
func (e *Engine) EstimateInto(ctx context.Context, a []graph.Node, opt Options, res *Result) error {
	opt.setDefaults()
	n := e.n
	if n < 2 {
		return errors.New("closeness: graph too small")
	}
	eps, delta := opt.Epsilon, opt.Delta
	if err := params.CheckEpsDelta(eps, delta); err != nil {
		return fmt.Errorf("closeness: %w", err)
	}
	if err := params.CheckTargets(a, n); err != nil {
		return fmt.Errorf("closeness: %w", err)
	}
	res.reset()
	res.Nodes = append(res.Nodes, a...)
	slices.Sort(res.Nodes)
	res.Nodes = slices.Compact(res.Nodes)
	nodes := res.Nodes
	k := len(nodes)

	n0, nmax := budget(eps, delta, k, opt.MaxSamples)
	rounds := int64(1)
	if nmax > n0 {
		rounds = int64(math.Ceil(math.Log2(float64(nmax) / float64(n0))))
	}
	deltaI := delta / (2 * float64(rounds) * float64(k))

	sc := e.acquire(nodes)
	defer e.release(sc)
	// Sub-pass cancellation: the traversals poll this stop every few
	// thousand edges, bounding time-to-cancel well below one MS-BFS pass.
	// Non-cancellable contexts wire a nil Stop — zero setup, zero polling
	// cost beyond a predicted branch.
	stop, unwatch := sched.WatchStop(ctx)
	defer unwatch()

	// An error of x in the sampled mean is an error of n/(n-1)*x in the
	// estimate, and the fixed-point loss sits below 1/d by less than 2^-32,
	// so a mean within (n-1)/n*eps - 2^-32 of its expectation puts the
	// estimate within eps of c(v).
	stopAt := float64(float64(n-1)/float64(n)*eps) - 1.0/fixedOne
	var drawn int64
	target := n0
	for {
		res.Rounds++
		if err := e.batchParallel(ctx, sc, opt, stop, target-drawn); err != nil {
			return fmt.Errorf("closeness: %w", err)
		}
		drawn = target
		worst := 0.0
		for i := range k {
			_, v := sc.total(i).moments(drawn)
			if e := stats.EpsilonBernstein(drawn, deltaI, v, lossRange); e > worst {
				worst = e
			}
		}
		if worst <= stopAt {
			res.StoppedEarly = true
			break
		}
		if drawn >= nmax {
			break
		}
		target = drawn + min(drawn, nmax-drawn) // min(2 drawn, nmax) without overflow
	}
	res.Samples = drawn
	res.Closeness = resize(res.Closeness, k)
	for i, v := range nodes {
		mean, _ := sc.total(i).moments(drawn)
		res.Closeness[i] = e.estimate(v, mean)
	}
	return nil
}

// estimate is c^(v) = (deg(v) + n*mean) / (n-1): the exact distance-1 term
// plus the sampled rest. The graph is simple, so v's degree is its number
// of distance-1 sources. The product sits in an explicit float64
// conversion, as in moments, so no compiler fuses it into a multiply-add.
func (e *Engine) estimate(v graph.Node, mean float64) float64 {
	deg := float64(e.off[v+1] - e.off[v])
	return float64(deg+float64(float64(e.n)*mean)) / float64(e.n-1)
}

// budget returns the first round's sample count n0 and the cap nmax; each
// later round doubles the drawn total, capped at nmax.
func budget(eps, delta float64, k int, maxSamples int64) (n0, nmax int64) {
	n0 = max(stats.SampleCount(stats.VCConstant/(eps*eps)*math.Log(1/delta)), 1)
	nmax = max(stats.SampleCount(4*float64(stats.UnionSampleSize(eps, delta, k))), n0)
	if maxSamples > 0 {
		nmax = min(nmax, maxSamples)
		n0 = min(n0, nmax)
	}
	return n0, nmax
}

// fixedOne is a loss of 1 in fixed point: losses are counted in units of
// 2^-32.
const fixedOne = 1 << 32

// lossRange is the range of the sampled loss: 0 to 1/2, since the
// distance-1 sources are counted exactly.
const lossRange = 0.5

// fixedRecip[d] = floor(2^32/d) for d >= 2, with fixedRecip[0] =
// fixedRecip[1] = 0.
var fixedRecip = func() (r [256]uint64) {
	for d := 2; d < len(r); d++ {
		r[d] = fixedOne / uint64(d)
	}
	return r
}()

// lossFixed is a sample's loss for a target at BFS depth d >= 0 from the
// source, in units of 2^-32: floor(2^32/d) for d >= 2, and 0 when d is 0
// (the source itself, or unreached) or 1 (counted exactly by estimate). So
// 0 <= 1/d - lossFixed(d)/2^32 < 2^-32 for d >= 2. Small depths read the
// memo, larger ones divide; this is the one definition of the loss for
// both round shapes.
func lossFixed(d int32) uint64 {
	if uint32(d) < uint32(len(fixedRecip)) {
		return fixedRecip[d]
	}
	return fixedOne / uint64(d)
}

// sums is one target's exact fixed-point accumulator: s is the sum of its
// samples' losses in units of 2^-32 and q the sum of their squares in units
// of 2^-64, each a 128-bit unsigned integer (hi, lo). A sample adds at most
// 2^32 to s and 2^64 to q, and a call draws at most budget's nmax < 2^63
// samples, so s < 2^95 and q < 2^127: neither wraps. The sample count is
// the call's, the same for every target.
type sums struct {
	sLo, sHi, qLo, qHi uint64
}

// add records c samples of loss r <= 2^32 (in units of 2^-32).
func (a *sums) add(c, r uint64) {
	h, l := bits.Mul64(c, r)
	var carry uint64
	a.sLo, carry = bits.Add64(a.sLo, l, 0)
	a.sHi += h + carry
	// c*r*r = (h*2^64 + l)*r; q's 2^127 bound keeps h*r + hh from wrapping.
	hh, ll := bits.Mul64(l, r)
	a.qLo, carry = bits.Add64(a.qLo, ll, 0)
	a.qHi += h*r + hh + carry
}

// merge adds b into a.
func (a *sums) merge(b *sums) {
	var carry uint64
	a.sLo, carry = bits.Add64(a.sLo, b.sLo, 0)
	a.sHi += b.sHi + carry
	a.qLo, carry = bits.Add64(a.qLo, b.qLo, 0)
	a.qHi += b.qHi + carry
}

// moments returns the mean loss and its unbiased sample variance over n >= 1
// samples: the estimator's one integer-to-float conversion. Each product
// sits in an explicit float64 conversion, which the Go spec rounds, so no
// compiler fuses it into a multiply-add and every CPU gives the same bits.
func (a sums) moments(n int64) (mean, variance float64) {
	s := float64(float64(a.sHi)*0x1p64) + float64(a.sLo)
	q := float64(float64(a.qHi)*0x1p64) + float64(a.qLo)
	nf := float64(n)
	mean = float64(s*0x1p-32) / nf
	if n < 2 {
		return mean, 0
	}
	variance = float64((q-float64(s*s)/nf)*0x1p-64) / float64(n-1)
	if variance < 0 { // float round-off
		return mean, 0
	}
	return mean, variance
}

// callScratch is one call's worth of workspace: the target index, the
// deterministic quota split, the accumulators, and the
// sched.VirtualWorkers sample streams. Pooled on the Engine; exactly one
// call owns a callScratch at a time.
type callScratch struct {
	// aIndex[v] is v's position in the call's deduped target slice, -1 for
	// non-targets. Maintained sparsely: acquire sets the k target entries,
	// release clears exactly those, so the O(n) fill happens once per
	// scratch lifetime, not per call.
	aIndex []int32
	nodes  []graph.Node // the call's deduped targets, sorted
	quota  []int64
	// acc[:nacc] are the call's accumulators, k entries each and cumulative
	// across its rounds: one per goroutine running source-shape streams,
	// the first also taking the target shape's adds. A target's sums are
	// the total over them, and integer sums have no order to get wrong.
	acc  [][]sums
	nacc int
	// streams materialize lazily on their first non-zero quota (mirroring
	// core's samplerSet); active[v] records which streams this call has
	// seeded, so a pooled stream's leftover state from the previous call is
	// invisible.
	streams [sched.VirtualWorkers]*stream
	active  [sched.VirtualWorkers]bool
	src     []*sourcePass // one per goroutine running source-shape streams
	srcNext atomic.Int32  // hands src passes to those goroutines
	tgt     targetScratch
}

// acquire pops a pooled scratch (or builds one) and indexes the target set.
func (e *Engine) acquire(nodes []graph.Node) *callScratch {
	e.mu.Lock()
	var sc *callScratch
	if len(e.free) > 0 {
		sc = e.free[len(e.free)-1]
		e.free = e.free[:len(e.free)-1]
	}
	e.mu.Unlock()
	if sc == nil {
		sc = &callScratch{aIndex: make([]int32, e.n)}
		for i := range sc.aIndex {
			sc.aIndex[i] = -1
		}
	}
	sc.nacc = 0
	sc.active = [sched.VirtualWorkers]bool{}
	for i, v := range nodes {
		sc.aIndex[v] = int32(i)
	}
	sc.nodes = nodes
	return sc
}

// release undoes the k sparse aIndex writes and returns sc to the pool.
// Runs on error paths too: a canceled or faulted call leaves the pool
// clean, because every stream re-seeds and every accumulator is zeroed on
// its first use per call.
func (e *Engine) release(sc *callScratch) {
	for _, v := range sc.nodes {
		sc.aIndex[v] = -1
	}
	sc.nodes = nil
	e.mu.Lock()
	e.free = append(e.free, sc)
	e.mu.Unlock()
}

// accumulators returns the call's first m accumulators, zeroing those it
// has not used yet.
func (sc *callScratch) accumulators(m int) [][]sums {
	for ; sc.nacc < m; sc.nacc++ {
		if sc.nacc == len(sc.acc) {
			sc.acc = append(sc.acc, nil)
		}
		a := resize(sc.acc[sc.nacc], len(sc.nodes))
		clear(a)
		sc.acc[sc.nacc] = a
	}
	return sc.acc[:m]
}

// total is target i's sums over all of the call's accumulators.
func (sc *callScratch) total(i int) sums {
	var t sums
	for _, a := range sc.acc[:sc.nacc] {
		t.merge(&a[i])
	}
	return t
}

// stream is one virtual worker's sample stream: a seeded RNG drawing
// sources. Which pass prices a draw and which accumulator takes it decide
// no bit, so a stream holds nothing else.
type stream struct {
	pcg *rand.PCG
	rng *rand.Rand
}

// activate readies stream v for this call: created on first ever use,
// re-seeded on first use per call. The seed schedule is the package
// contract: stream v draws from PCG(opt.Seed + (v+1)*612_361).
func (sc *callScratch) activate(v int, seed0 int64) *stream {
	s := sc.streams[v]
	if s == nil {
		s = &stream{pcg: rand.NewPCG(0, 0)}
		s.rng = rand.New(s.pcg)
		sc.streams[v] = s
	}
	if !sc.active[v] {
		sc.active[v] = true
		seed := seed0 + int64(v+1)*612_361
		s.pcg.Seed(uint64(seed), 0xbb67ae8584caa73b)
	}
	return s
}

// resize returns s with length n, reusing the backing array when it fits.
func resize[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// sourcePass is one goroutine's source-shape workspace: an MS-BFS
// traversal, the call's target index and that goroutine's accumulator. Any
// stream can use any pass, so a call holds min(Workers, VirtualWorkers) of
// them, not one per stream. Built on a call's first source-shape round, so
// target-shape-only calls never pay for them.
type sourcePass struct {
	trav   *msbfs.Traversal
	aIndex []int32
	acc    []sums
	srcs   [msbfs.MaxLanes]graph.Node
	err    error
}

// settle adds one sample per lane reaching target u at depth. Passed to
// the traversal as a method value, which does not escape, so a pass
// allocates nothing (TestSampleBatchAllocatesNothing).
func (p *sourcePass) settle(u graph.Node, lanes uint64, depth int32) {
	if ai := p.aIndex[u]; ai >= 0 {
		p.acc[ai].add(uint64(bits.OnesCount64(lanes)), lossFixed(depth))
	}
}

// sourcePasses returns the first workers source-shape workspaces, building
// the missing ones, each bound to the call's targets and its own
// accumulator.
func (sc *callScratch) sourcePasses(n, workers int) []*sourcePass {
	for len(sc.src) < workers {
		sc.src = append(sc.src, &sourcePass{trav: msbfs.New(n)})
	}
	acc := sc.accumulators(workers)
	for i, p := range sc.src[:workers] {
		p.aIndex, p.acc, p.err = sc.aIndex, acc[i], nil
	}
	return sc.src[:workers]
}

// sampleBatch draws count sources from s in RNG order and prices them
// against the targets in MS-BFS passes of up to 64 lanes. On a
// whole-network call the passes are the whole cost; DESIGN.md section 11
// gives the measured split. A failed pass stops the batch and stays in
// p.err.
func (p *sourcePass) sampleBatch(ctx context.Context, e *Engine, s *stream, stop *sched.Stop, count int64) {
	for count > 0 && p.err == nil {
		srcs := p.srcs[:min(count, msbfs.MaxLanes)]
		for j := range srcs {
			srcs[j] = graph.Node(s.rng.IntN(e.n))
		}
		p.err = p.trav.RunCtx(ctx, e.off, e.nbr, srcs, stop, p.settle)
		count -= int64(len(srcs))
	}
}

// batchParallel draws count samples split across the virtual-worker
// streams by a deterministic quota and prices them in the round shape
// targetShape picks (package doc). Every add is an integer add into the
// call's accumulators, so neither the shape, nor the worker count, nor
// which goroutine runs which stream moves a bit.
func (e *Engine) batchParallel(ctx context.Context, sc *callScratch, opt Options, stop *sched.Stop, count int64) error {
	if count <= 0 {
		return nil
	}
	if err := params.Interrupted(ctx); err != nil {
		return err
	}
	sc.quota = sched.Split(count, sched.VirtualWorkers, sc.quota)
	if roundShape(sc.quota, len(sc.nodes)) {
		return e.targetRound(ctx, sc, opt, stop)
	}
	return e.sourceRound(ctx, sc, opt, stop)
}

// sourceRound prices the round in the source shape: every stream runs its
// own MS-BFS passes over its sampled sources (sampleBatch), on the
// workspace of the goroutine that took it. Each stream slot is touched by
// exactly one goroutine per round, with rounds separated by the DoCtx
// barrier, so the lazy activation needs no locking.
func (e *Engine) sourceRound(ctx context.Context, sc *callScratch, opt Options, stop *sched.Stop) error {
	nv := sched.VirtualWorkers
	quota := sc.quota
	passes := sc.sourcePasses(e.n, min(opt.Workers, nv))
	if len(passes) == 1 {
		// Inline fast path with DoCtx's exact checkpoint semantics: ctx
		// polled before each stream. Skipping the generic work-stealing
		// machinery (and its escaping closure) keeps the single-worker
		// steady state allocation-free.
		p := passes[0]
		for v := 0; v < nv && p.err == nil; v++ {
			if ctx.Err() != nil {
				return &params.CanceledError{Cause: context.Cause(ctx)}
			}
			if quota[v] > 0 {
				p.sampleBatch(ctx, e, sc.activate(v, opt.Seed), stop, quota[v])
			}
		}
	} else {
		sc.srcNext.Store(0)
		if err := sched.DoWithCtx(ctx, nv, len(passes),
			func() *sourcePass { return passes[sc.srcNext.Add(1)-1] },
			func(*sourcePass) {},
			func(p *sourcePass, v int) {
				if quota[v] > 0 && p.err == nil {
					p.sampleBatch(ctx, e, sc.activate(v, opt.Seed), stop, quota[v])
				}
			}); err != nil {
			// All-or-nothing: a stream may have drawn while another never
			// ran. The caller discards the whole estimate, and the next
			// call re-seeds every stream and zeroes every accumulator.
			return &params.CanceledError{Cause: err}
		}
	}
	for _, p := range passes {
		if p.err != nil {
			return passError(ctx, p.err)
		}
	}
	return nil
}

// passError maps a failed MS-BFS pass to the engine's error: a raised stop
// is the context's cancellation, anything else (an injected fault) passes
// through.
func passError(ctx context.Context, err error) error {
	if errors.Is(err, msbfs.ErrStopped) {
		return &params.CanceledError{Cause: context.Cause(ctx)}
	}
	return err
}

// targetShape reports whether a round with the given quota split is
// cheaper rooted at the k targets: ceil(k/64) passes against the source
// shape's sum_v ceil(quota_v/64). Ties keep the source shape.
func targetShape(quota []int64, k int) bool {
	var srcPasses int64
	for _, q := range quota {
		srcPasses += (q + msbfs.MaxLanes - 1) / msbfs.MaxLanes
	}
	return int64((k+msbfs.MaxLanes-1)/msbfs.MaxLanes) < srcPasses
}

// roundShape picks a round's shape; tests swap it to force either one.
var roundShape = targetShape

// drawPoll is how many target-shape draws run between polls of ctx.
const drawPoll = 1 << 16

// targetScratch is the target shape's pooled workspace: the round's draw
// counts (n words) and one pass per concurrently running target batch, at
// most min(Workers, ceil(k/64)). None of it depends on the sample count.
type targetScratch struct {
	mult   []uint64 // mult[u] is u's draw count in the round
	passes []*targetPass
	next   atomic.Int32 // hands passes to fan-out goroutines
}

// targetPass is one target batch's traversal. acc is the batch's window
// of the call's first accumulator: target lane l adds into acc[l].
type targetPass struct {
	trav *msbfs.Traversal
	mult []uint64
	acc  []sums
	err  error
}

// settle adds, to every target lane reaching u at depth, one sample per
// draw of u in the round. Passed to the traversal as a method value, which
// does not escape, so a pass allocates nothing
// (TestTargetRoundAllocatesNothing).
func (p *targetPass) settle(u graph.Node, lanes uint64, depth int32) {
	c, r := p.mult[u], lossFixed(depth)
	if c == 0 || r == 0 {
		return
	}
	var inc sums
	inc.add(c, r)
	for m := lanes; m != 0; m &= m - 1 {
		p.acc[bits.TrailingZeros64(m)].merge(&inc)
	}
}

// targetRound prices the round in the target shape. It draws each stream's
// quota in stream order with the same RNG calls as sampleBatch, counting
// the draws per node, then makes one pass per target batch, fanned out over
// up to Workers goroutines (inline, and allocation-free, for one).
// Concurrent batches write disjoint accumulator entries. ctx is polled
// every drawPoll draws and, inline, per batch; the passes poll stop.
func (e *Engine) targetRound(ctx context.Context, sc *callScratch, opt Options, stop *sched.Stop) error {
	batches := (len(sc.nodes) + msbfs.MaxLanes - 1) / msbfs.MaxLanes
	workers := min(opt.Workers, batches)
	ts := &sc.tgt
	if ts.mult == nil {
		ts.mult = make([]uint64, e.n)
	} else {
		clear(ts.mult)
	}
	for len(ts.passes) < workers {
		ts.passes = append(ts.passes, &targetPass{trav: msbfs.New(e.n), mult: ts.mult})
	}
	for v, q := range sc.quota {
		if q == 0 {
			continue
		}
		s := sc.activate(v, opt.Seed)
		for q > 0 {
			if ctx.Err() != nil {
				return &params.CanceledError{Cause: context.Cause(ctx)}
			}
			take := min(q, drawPoll)
			for range take {
				ts.mult[s.rng.IntN(e.n)]++
			}
			q -= take
		}
	}
	sc.accumulators(1)
	if workers <= 1 {
		p := ts.passes[0]
		for b := range batches {
			if ctx.Err() != nil {
				return &params.CanceledError{Cause: context.Cause(ctx)}
			}
			if err := p.run(ctx, e, sc, b, stop); err != nil {
				return passError(ctx, err)
			}
		}
		return nil
	}
	passes := ts.passes[:workers]
	for _, p := range passes {
		p.err = nil
	}
	ts.next.Store(0)
	if err := sched.DoWithCtx(ctx, batches, workers,
		func() *targetPass { return passes[ts.next.Add(1)-1] },
		func(*targetPass) {},
		func(p *targetPass, b int) {
			if p.err == nil {
				p.err = p.run(ctx, e, sc, b, stop)
			}
		}); err != nil {
		return &params.CanceledError{Cause: err}
	}
	for _, p := range passes {
		if p.err != nil {
			return passError(ctx, p.err)
		}
	}
	return nil
}

// run prices target batch b: one MS-BFS pass rooted at targets
// [64b, 64b+64) against the round's draw counts.
func (p *targetPass) run(ctx context.Context, e *Engine, sc *callScratch, b int, stop *sched.Stop) error {
	lo := b * msbfs.MaxLanes
	hi := min(lo+msbfs.MaxLanes, len(sc.nodes))
	p.acc = sc.acc[0][lo:hi]
	return p.trav.RunCtx(ctx, e.off, e.nbr, sc.nodes[lo:hi], stop, p.settle)
}

// Exact computes exact harmonic closeness for every node: c(v) =
// sum_{u != v} (1/d(u,v)) / (n-1), one BFS per node. O(n*m).
func Exact(g *graph.Graph) []float64 {
	n := g.NumNodes()
	out := make([]float64, n)
	if n < 2 {
		return out
	}
	dist := make([]int32, n)
	for u := 0; u < n; u++ {
		dist = graph.BFSDistances(g, graph.Node(u), dist)
		for v, d := range dist {
			if v != u && d > 0 {
				out[v] += 1 / float64(d)
			}
		}
	}
	for i := range out {
		out[i] /= float64(n - 1)
	}
	return out
}
