// Package closeness implements subset ranking by harmonic closeness
// centrality, the first of the paper's stated future-work extensions of the
// SaPHyRa framework (Section VI).
//
// Harmonic closeness of v is c(v) = (1/(n-1)) * sum_{u != v} 1/d(u, v)
// (terms with unreachable u are 0). A sample is a uniform source u; the
// per-hypothesis loss for target v is 1/d(u, v) in [0, 1] -- a bounded but
// non-binary loss, so this package runs its own progressive estimator with
// empirical Bernstein stopping (per-target variance) instead of the 0/1
// framework plumbing. Distance labels are all a sample needs, so samples
// are priced by bit-parallel MS-BFS passes (internal/msbfs), each of which
// streams the adjacency once per level for up to 64 roots. Each doubling
// round picks one of two shapes:
//
//   - source shape: every virtual stream roots one pass at up to 64 of its
//     own sampled sources and reads the targets' depths;
//   - target shape: the graph is undirected, so d(u, v) = d(v, u), and a
//     pass rooted at up to 64 targets prices every sampled source at once.
//     The round's sources are drawn first, srcChunk at a time in stream
//     order, and each chunk costs one pass per batch of 64 targets.
//
// The round takes the target shape only when that makes strictly fewer
// passes: ceil(k/64) per source chunk against sum_v ceil(quota_v/64). A
// 100-target query therefore makes 2 passes per round where the source
// shape makes at least 16, while whole-network ranking (k = n) keeps the
// source shape. The choice is a pure function of (quota, k).
//
// Determinism: sampling is driven through sched.VirtualWorkers fixed
// per-stream RNGs with a deterministic quota split, and the per-stream
// accumulators are merged in stream order — so for a fixed seed the
// estimate is bitwise-identical for any Options.Workers value. Neither shape
// moves a bit: each stream draws its sources in the same RNG order as the
// scalar path, MS-BFS distance labels are neighbor-order invariant
// (identical to per-source BFS, from either end), and every target's
// accumulator receives its adds in its stream's draw order — the exact
// float operation sequence of one BFS per sample. The estimator runs over
// any CSR-shaped adjacency: Estimate prices targets on the raw CSR,
// EstimateView on the block-grouped bicomp.BlockCSR arrays (typically
// mmap-backed; see bicomp.OpenMapped), with bitwise-identical results. See
// DESIGN.md sections 3 (determinism), 7 (the shared view layer), and 11
// (MS-BFS).
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
// (source shape) or source chunks and target batches (target shape), and
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
// a pool of per-call workspaces (RNG streams, MS-BFS traversals, depth
// planes and tables, accumulators), so the steady state of EstimateInto
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

	accs := sc.accs
	var drawn int64
	target := n0
	for {
		res.Rounds++
		if err := e.batchParallel(ctx, sc, opt, stop, target-drawn, accs); err != nil {
			return fmt.Errorf("closeness: %w", err)
		}
		drawn = target
		worst := 0.0
		for i := range accs {
			if e := stats.EpsilonBernstein(drawn, deltaI, accs[i].Variance()); e > worst {
				worst = e
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
	res.Closeness = resize(res.Closeness, k)
	for i := range accs {
		res.Closeness[i] = accs[i].Mean()
	}
	return nil
}

// budget returns the first round's sample count n0 and the cap nmax; each
// later round doubles the drawn total, capped at nmax.
func budget(eps, delta float64, k int, maxSamples int64) (n0, nmax int64) {
	n0 = max(int64(math.Ceil(stats.VCConstant/(eps*eps)*math.Log(1/delta))), 1)
	nmax = max(stats.UnionSampleSize(eps, delta, k)*4, n0)
	if maxSamples > 0 {
		nmax = min(nmax, maxSamples)
		n0 = min(n0, nmax)
	}
	return n0, nmax
}

// callScratch is one call's worth of workspace: the target index, the
// deterministic quota split, the merged accumulators, and the
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
	accs   []stats.MeanVar
	// streams materialize lazily on their first non-zero quota (mirroring
	// core's samplerSet); active[v] records which streams this call has
	// initialized — a pooled stream's leftover state from the previous call
	// is invisible until re-seeded, keeping "never-drawn stream" exactly
	// equivalent to merging all-zero accumulators.
	streams [sched.VirtualWorkers]*stream
	active  [sched.VirtualWorkers]bool
	src     []*sourcePass // one per goroutine running source-shape streams
	srcNext atomic.Int32  // hands src passes to those goroutines
	tgt     targetScratch
}

// acquire pops a pooled scratch (or builds one), sizes the per-call arrays
// for k targets, and indexes the target set.
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
	k := len(nodes)
	sc.accs = resize(sc.accs, k)
	for i := range sc.accs {
		sc.accs[i] = stats.MeanVar{}
	}
	sc.active = [sched.VirtualWorkers]bool{}
	for i, v := range nodes {
		sc.aIndex[v] = int32(i)
	}
	sc.nodes = nodes
	return sc
}

// release undoes the k sparse aIndex writes (and any slot writes of a
// chunk cut short) and returns sc to the pool. Runs on error paths too: a
// canceled or faulted call leaves the pool clean, because every stream
// re-seeds on its first use per call.
func (e *Engine) release(sc *callScratch) {
	for _, v := range sc.nodes {
		sc.aIndex[v] = -1
	}
	sc.nodes = nil
	sc.tgt.reset()
	e.mu.Lock()
	e.free = append(e.free, sc)
	e.mu.Unlock()
}

// stream is one virtual worker's sample stream: a seeded RNG drawing
// sources and cumulative accumulators. Its passes run on the workspace of
// the goroutine that takes it (sourcePass, targetPass), so a stream holds
// no traversal or table.
type stream struct {
	pcg   *rand.PCG
	rng   *rand.Rand
	local []stats.MeanVar // cumulative across rounds, reset per call
	err   error
}

// sourcePass is one goroutine's source-shape workspace: an MS-BFS
// traversal and its pass's depths, bit-sliced into planes of k words each.
// planes[b*k+i] holds, in bit j, bit b of lane j's depth to target i, so a
// settle ORs its lane mask into one word per set bit of the depth. Planes
// are added as the pass first settles a target deeper than they can spell,
// up to bits.Len of the deepest settle, so no depth is capped. They are all
// zeros between passes, so any stream can use any pass and a call holds
// min(Workers, VirtualWorkers) of them, not one per stream. Built on a
// call's first source-shape round, so target-shape-only calls never pay
// for them.
type sourcePass struct {
	trav   *msbfs.Traversal
	aIndex []int32
	planes []uint64
	k      int   // words per plane
	deep   int32 // the current pass's deepest settle of a target
	srcs   [msbfs.MaxLanes]graph.Node
}

// settle records the lanes reaching target u at depth. Passed to the
// traversal as a method value, which does not escape, so a pass allocates
// nothing (TestSampleBatchAllocatesNothing).
func (p *sourcePass) settle(u graph.Node, lanes uint64, depth int32) {
	ai := p.aIndex[u]
	if ai < 0 {
		return
	}
	if depth > p.deep {
		p.deepen(depth)
	}
	for d := uint32(depth); d != 0; d &= d - 1 {
		p.planes[bits.TrailingZeros32(d)*p.k+int(ai)] |= lanes
	}
}

// deepen raises the pass's deepest settle and adds the planes it needs.
// The backing array is zero past len (the planes are cleared as they are
// read), so growing within its capacity needs no fill. It runs once per
// level at most and is kept out of line so that settle, which runs once
// per settled node, stays small.
//
//go:noinline
func (p *sourcePass) deepen(depth int32) {
	p.deep = depth
	if n := bits.Len32(uint32(depth)) * p.k; n > len(p.planes) {
		p.planes = slices.Grow(p.planes, n-len(p.planes))[:n]
	}
}

// sourcePasses returns the first workers pooled source-shape workspaces,
// building the missing ones.
func (sc *callScratch) sourcePasses(n, workers int) []*sourcePass {
	for len(sc.src) < workers {
		sc.src = append(sc.src, &sourcePass{trav: msbfs.New(n)})
	}
	return sc.src[:workers]
}

// resize returns s with length n, reusing the backing array when it fits.
func resize[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// activate readies stream v for this call: created on first ever use,
// re-seeded and zeroed on first use per call. The seed schedule is the
// package contract: stream v draws from PCG(opt.Seed + (v+1)*612_361).
func (sc *callScratch) activate(e *Engine, v int, seed0 int64, k int) *stream {
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
		s.local = resize(s.local, k)
		for i := range s.local {
			s.local[i] = stats.MeanVar{}
		}
		s.err = nil
	}
	return s
}

// sampleBatch draws count sources in RNG order and prices them against the
// targets in MS-BFS batches of up to 64 lanes on workspace p. Each pass
// fills the depth planes, where a zero depth means "the source itself or
// unreached", and accumulate replays them one target at a time. On a
// whole-network call the passes and that replay are the whole cost;
// DESIGN.md section 11 gives the measured split.
func (s *stream) sampleBatch(ctx context.Context, e *Engine, p *sourcePass, aIndex []int32, k int, stop *sched.Stop, count int64) {
	n := e.n
	// The planes are all zeros between passes: fresh from the allocator, or
	// cleared word by word as accumulate consumes them (and whole on a
	// failed pass). A new k only re-slices that zeroed array.
	if p.k != k {
		p.k, p.planes = k, p.planes[:0]
	}
	p.aIndex = aIndex
	for count > 0 {
		L := int(count)
		if L > msbfs.MaxLanes {
			L = msbfs.MaxLanes
		}
		srcs := p.srcs[:L]
		for j := range srcs {
			srcs[j] = graph.Node(s.rng.IntN(n))
		}
		p.deep = 0
		if err := p.trav.RunCtx(ctx, e.off, e.nbr, srcs, stop, p.settle); err != nil {
			clear(p.planes)
			s.err = err
			return
		}
		np := bits.Len32(uint32(p.deep))
		switch {
		case np <= 8:
			accumulate[uint8](s.local, p.planes, np, L)
		case np <= 16:
			accumulate[uint16](s.local, p.planes, np, L)
		default:
			accumulate[uint32](s.local, p.planes, np, L)
		}
		count -= int64(L)
	}
}

// laneDepth is a decoded lane depth: a pass whose deepest settle fits in 8
// bits decodes to bytes, one fitting 16 bits to uint16s, any other to
// uint32s (BFS depths are below 2^31).
type laneDepth interface{ uint8 | uint16 | uint32 }

// accumulate adds one pass's losses to the targets' accumulators and
// clears the np depth planes behind it. Lane j of target i decodes to
// dist(srcs[j], nodes[i]), or 0 for the source itself or an unreached
// target; lanes [L, 64) are all 0. The loop is target-major: it decodes
// four targets' depths at a time and adds them in lane order, with the four
// accumulators live in registers so their independent sum chains overlap.
// Only the order of the adds within one accumulator decides its bits, and
// every target still takes its adds in lane (draw) order -- element for
// element the float sequence of the scalar one-BFS-per-sample loop.
func accumulate[T laneDepth](local []stats.MeanVar, planes []uint64, np, L int) {
	k := len(local)
	var d0, d1, d2, d3 [msbfs.MaxLanes]T
	i := 0
	for ; i+4 <= k; i += 4 {
		decode(planes, k, np, i, L, &d0)
		decode(planes, k, np, i+1, L, &d1)
		decode(planes, k, np, i+2, L, &d2)
		decode(planes, k, np, i+3, L, &d3)
		m0, m1, m2, m3 := local[i], local[i+1], local[i+2], local[i+3]
		for j, d := range d0[:L] {
			m0.Add(loss(int32(d)))
			m1.Add(loss(int32(d1[j])))
			m2.Add(loss(int32(d2[j])))
			m3.Add(loss(int32(d3[j])))
		}
		local[i], local[i+1], local[i+2], local[i+3] = m0, m1, m2, m3
	}
	for ; i < k; i++ {
		decode(planes, k, np, i, L, &d0)
		m := local[i]
		for _, d := range d0[:L] {
			m.Add(loss(int32(d)))
		}
		local[i] = m
	}
}

// spread[x] holds bit t of x in byte t: one lookup turns a plane word's byte
// into eight one-bit lane depths, and shifting it by the plane's index
// places them as that bit of eight byte lanes.
var spread = func() (s [256]uint64) {
	for x := range s {
		for t := range 8 {
			s[x] |= uint64(x>>t&1) << (8 * t)
		}
	}
	return s
}()

// decode rebuilds target i's lane depths [0, L) into out from its words in
// the np planes, and zeroes those words. Lanes [L, 64) have no bits set;
// out holds zeros there up to the next multiple of 8. Eight planes at a
// time build one byte of each lane's depth, eight lanes per uint64 through
// spread, so no step loops over single lanes' bits.
func decode[T laneDepth](planes []uint64, k, np, i, L int, out *[msbfs.MaxLanes]T) {
	groups := (L + 7) / 8
	for q := 0; q == 0 || 8*q < np; q++ {
		// w holds this octet's plane words; the unused ones stay 0, and
		// spread[0] is 0, so a half-used octet reads only its first four.
		var w [8]uint64
		nb := min(np-8*q, 8)
		for b := range nb {
			at := (8*q+b)*k + i
			w[b], planes[at] = planes[at], 0
		}
		// The masks let the compiler drop its checks for oversized shifts.
		sh := uint(8*q) & 31
		for g := range groups {
			s := uint(8*g) & 63
			v := spread[byte(w[0]>>s)] | spread[byte(w[1]>>s)]<<1 | spread[byte(w[2]>>s)]<<2 | spread[byte(w[3]>>s)]<<3
			if nb > 4 {
				v |= spread[byte(w[4]>>s)]<<4 | spread[byte(w[5]>>s)]<<5 | spread[byte(w[6]>>s)]<<6 | spread[byte(w[7]>>s)]<<7
			}
			o := out[8*g : 8*g+8]
			if q == 0 {
				o[0], o[1], o[2], o[3] = T(byte(v)), T(byte(v>>8)), T(byte(v>>16)), T(byte(v>>24))
				o[4], o[5], o[6], o[7] = T(byte(v>>32)), T(byte(v>>40)), T(byte(v>>48)), T(byte(v>>56))
			} else {
				o[0] |= T(byte(v)) << sh
				o[1] |= T(byte(v>>8)) << sh
				o[2] |= T(byte(v>>16)) << sh
				o[3] |= T(byte(v>>24)) << sh
				o[4] |= T(byte(v>>32)) << sh
				o[5] |= T(byte(v>>40)) << sh
				o[6] |= T(byte(v>>48)) << sh
				o[7] |= T(byte(v>>56)) << sh
			}
		}
	}
}

// recip[d] = 1/float64(d), built by that very division, with recip[0] = 0.
var recip = func() (r [256]float64) {
	for d := 1; d < len(r); d++ {
		r[d] = 1 / float64(d)
	}
	return r
}()

// loss is a sample's loss for a target at BFS depth d >= 0 from the
// source: 1/d, or 0 when d is 0 (the source itself, or unreached). Small
// depths read the memo, larger ones divide; both give the IEEE quotient,
// so this is the one definition of the loss for both round shapes.
func loss(d int32) float64 {
	if uint32(d) < uint32(len(recip)) {
		return recip[d]
	}
	return 1 / float64(d)
}

// batchParallel draws count samples split across the virtual-worker
// streams by a deterministic quota and prices them in the round shape
// targetShape picks (package doc). In the source shape the streams run on
// up to opt.Workers goroutines (sched work stealing — which goroutine runs
// which stream never affects the streams themselves); each stream slot is
// touched by exactly one goroutine per round, with rounds separated by the
// DoCtx barrier, so the lazy activation needs no locking. The target shape
// fans its target batches out instead (targetRound). The per-stream
// accumulators are cumulative across rounds; accs is rebuilt from scratch
// each round, merging streams in stream order so the result is a pure
// function of the seed — skipping a never-activated stream is
// bitwise-equivalent to merging its (all-zero) accumulators.
func (e *Engine) batchParallel(ctx context.Context, sc *callScratch, opt Options, stop *sched.Stop, count int64, accs []stats.MeanVar) error {
	if count <= 0 {
		return nil
	}
	if err := params.Interrupted(ctx); err != nil {
		return err
	}
	k := len(accs)
	nv := sched.VirtualWorkers
	sc.quota = sched.Split(count, nv, sc.quota)
	quota := sc.quota
	if targetShape(quota, k) {
		if err := e.targetRound(ctx, sc, opt, stop); err != nil {
			return err
		}
	} else if err := e.sourceRound(ctx, sc, opt, stop); err != nil {
		return err
	}
	for i := range accs {
		accs[i] = stats.MeanVar{}
	}
	for v := 0; v < nv; v++ {
		if !sc.active[v] {
			continue
		}
		local := sc.streams[v].local
		for i := range accs {
			accs[i].Merge(&local[i])
		}
	}
	return nil
}

// sourceRound prices the round in the source shape: every stream runs its
// own MS-BFS passes over its sampled sources (sampleBatch), on the
// workspace of the goroutine that took it.
func (e *Engine) sourceRound(ctx context.Context, sc *callScratch, opt Options, stop *sched.Stop) error {
	k := len(sc.nodes)
	nv := sched.VirtualWorkers
	quota := sc.quota
	if opt.Workers <= 1 {
		// Inline fast path with DoCtx's exact checkpoint semantics: ctx
		// polled before each stream. Skipping the generic work-stealing
		// machinery (and its escaping closure) keeps the single-worker
		// steady state allocation-free.
		p := sc.sourcePasses(e.n, 1)[0]
		for v := 0; v < nv; v++ {
			if ctx.Err() != nil {
				return &params.CanceledError{Cause: context.Cause(ctx)}
			}
			if quota[v] == 0 {
				continue
			}
			s := sc.activate(e, v, opt.Seed, k)
			if s.err != nil {
				continue
			}
			s.sampleBatch(ctx, e, p, sc.aIndex, k, stop, quota[v])
		}
	} else {
		passes := sc.sourcePasses(e.n, min(opt.Workers, nv))
		sc.srcNext.Store(0)
		if err := sched.DoWithCtx(ctx, nv, len(passes),
			func() *sourcePass { return passes[sc.srcNext.Add(1)-1] },
			func(*sourcePass) {},
			func(p *sourcePass, v int) {
				if quota[v] == 0 {
					return
				}
				s := sc.activate(e, v, opt.Seed, k)
				if s.err != nil {
					return // an earlier round aborted this stream; keep the first error
				}
				s.sampleBatch(ctx, e, p, sc.aIndex, k, stop, quota[v])
			}); err != nil {
			// All-or-nothing: a stream may have drawn while another never ran.
			// The caller discards the whole estimate, so the polluted per-stream
			// accumulators never surface (and release re-pools the scratch —
			// streams re-seed on first use, so the pool is not poisoned).
			return &params.CanceledError{Cause: err}
		}
	}
	for v := 0; v < nv; v++ {
		s := sc.streams[v]
		if s == nil || !sc.active[v] || s.err == nil {
			continue
		}
		return passError(ctx, s.err)
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

// srcChunk caps how many sources the target shape holds at once. A round
// is drawn and priced in chunks of at most srcChunk consecutive sources of
// the stream-order sequence (stream 0's draws, then stream 1's, ...), so a
// chunk may straddle stream boundaries. Per call the target shape holds at
// most srcChunk drawn sources (two int32 buffers, 32 KiB), an n-entry
// int32 source index, and one srcChunk x 64 int32 depth table (1 MiB) plus
// one msbfs.Traversal per concurrently running target batch — at most
// min(Workers, ceil(k/64)) of them. None of it depends on MaxSamples.
const srcChunk = 4096

// targetShape reports whether a round with the given quota split is
// cheaper rooted at the k targets: ceil(k/64) passes per source chunk
// against the source shape's sum_v ceil(quota_v/64). Ties keep the source
// shape.
func targetShape(quota []int64, k int) bool {
	var count, srcPasses int64
	for _, q := range quota {
		count += q
		srcPasses += (q + msbfs.MaxLanes - 1) / msbfs.MaxLanes
	}
	chunks := (count + srcChunk - 1) / srcChunk
	batches := int64((k + msbfs.MaxLanes - 1) / msbfs.MaxLanes)
	return batches*chunks < srcPasses
}

// targetScratch is the target shape's pooled workspace (see srcChunk for
// its memory bound).
type targetScratch struct {
	// slot[u] is u's row in the current chunk's depth tables, -1 for nodes
	// not drawn in the chunk. Maintained sparsely like aIndex: a chunk sets
	// the entries of its distinct sources and flush clears exactly those.
	slot []int32
	srcs []graph.Node // the chunk's distinct sources, row order
	rows []int32      // the chunk's draws in stream order, as table rows
	// segs[:nseg] split rows by stream: each stream's draws are contiguous
	// in a chunk, so there are at most VirtualWorkers segments.
	segs   [sched.VirtualWorkers]segment
	nseg   int
	passes []*targetPass // one per concurrently running target batch
	next   atomic.Int32  // hands passes to fan-out goroutines
}

// segment is one stream's run of draws inside a chunk: rows[lo:hi].
type segment struct {
	s      *stream
	lo, hi int
}

// targetPass is one target batch's traversal and its depth table:
// table[r*lanes+l] is the depth at which target lane l settled the chunk's
// row-r source, 0 when it never did (unreached) — and 0 also for a source
// that is the target itself, so "d > 0" is the scalar path's test.
type targetPass struct {
	trav  *msbfs.Traversal
	slot  []int32
	table []int32
	lanes int
	err   error
}

// settle records the depth of every target lane reaching a drawn source.
// Passed to the traversal as a method value, which does not escape, so a
// pass allocates nothing (TestTargetRoundAllocatesNothing).
func (p *targetPass) settle(u graph.Node, lanes uint64, depth int32) {
	r := p.slot[u]
	if r < 0 {
		return
	}
	row := p.table[int(r)*p.lanes:]
	for m := lanes; m != 0; m &= m - 1 {
		row[bits.TrailingZeros64(m)] = depth
	}
}

// reset clears a chunk's sparse slot entries and buffers. It runs after
// every flush, and on release in case a call died mid-chunk.
func (ts *targetScratch) reset() {
	for _, u := range ts.srcs {
		ts.slot[u] = -1
	}
	ts.srcs = ts.srcs[:0]
	ts.rows = ts.rows[:0]
	ts.nseg = 0
}

// ready sizes the workspace for a round on n nodes with the given number of
// concurrently running target batches. Everything is built once per
// scratch lifetime and reused.
func (ts *targetScratch) ready(n, workers int) {
	if ts.slot == nil {
		ts.slot = make([]int32, n)
		for i := range ts.slot {
			ts.slot[i] = -1
		}
		ts.srcs = make([]graph.Node, 0, srcChunk)
		ts.rows = make([]int32, 0, srcChunk)
	}
	for len(ts.passes) < workers {
		ts.passes = append(ts.passes, &targetPass{trav: msbfs.New(n), slot: ts.slot, table: make([]int32, srcChunk*msbfs.MaxLanes)})
	}
}

// targetRound prices the round in the target shape. It draws each stream's
// quota in stream order with the same RNG calls as sampleBatch, indexing
// the distinct sources, and flushes every srcChunk draws (and at the end).
// ctx is polled per chunk; the passes poll stop.
func (e *Engine) targetRound(ctx context.Context, sc *callScratch, opt Options, stop *sched.Stop) error {
	k := len(sc.nodes)
	batches := (k + msbfs.MaxLanes - 1) / msbfs.MaxLanes
	workers := min(opt.Workers, batches)
	ts := &sc.tgt
	ts.ready(e.n, workers)
	n := e.n
	for v, q := range sc.quota {
		if q == 0 {
			continue
		}
		s := sc.activate(e, v, opt.Seed, k)
		for q > 0 {
			lo := len(ts.rows)
			take := min(q, int64(srcChunk-lo))
			for range take {
				u := graph.Node(s.rng.IntN(n))
				r := ts.slot[u]
				if r < 0 {
					r = int32(len(ts.srcs))
					ts.slot[u] = r
					ts.srcs = append(ts.srcs, u)
				}
				ts.rows = append(ts.rows, r)
			}
			ts.segs[ts.nseg] = segment{s: s, lo: lo, hi: len(ts.rows)}
			ts.nseg++
			q -= take
			if len(ts.rows) == srcChunk {
				if err := e.flush(ctx, sc, stop, workers); err != nil {
					return err
				}
			}
		}
	}
	if len(ts.rows) > 0 {
		return e.flush(ctx, sc, stop, workers)
	}
	return nil
}

// flush prices one chunk: one pass per target batch, fanned out over up to
// workers goroutines (inline, and allocation-free, for one). Each batch
// replays its own targets' adds, so concurrent batches write disjoint
// accumulators.
func (e *Engine) flush(ctx context.Context, sc *callScratch, stop *sched.Stop, workers int) error {
	ts := &sc.tgt
	defer ts.reset()
	batches := (len(sc.nodes) + msbfs.MaxLanes - 1) / msbfs.MaxLanes
	if workers <= 1 {
		p := ts.passes[0]
		for b := 0; b < batches; b++ {
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

// run prices target batch b against the chunk: one MS-BFS pass rooted at
// targets [64b, 64b+64) fills the depth table, then the adds replay
// segment by segment (stream order), each stream's draws in draw order,
// targets inner — per target, exactly the add sequence of the source shape.
func (p *targetPass) run(ctx context.Context, e *Engine, sc *callScratch, b int, stop *sched.Stop) error {
	ts := &sc.tgt
	lo := b * msbfs.MaxLanes
	hi := min(lo+msbfs.MaxLanes, len(sc.nodes))
	p.lanes = hi - lo
	table := p.table[:len(ts.srcs)*p.lanes]
	clear(table)
	if err := p.trav.RunCtx(ctx, e.off, e.nbr, sc.nodes[lo:hi], stop, p.settle); err != nil {
		return err
	}
	for _, sg := range ts.segs[:ts.nseg] {
		local := sg.s.local[lo:hi]
		for _, r := range ts.rows[sg.lo:sg.hi] {
			row := table[int(r)*p.lanes:][:p.lanes]
			for l, d := range row {
				local[l].Add(loss(d))
			}
		}
	}
	return nil
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
