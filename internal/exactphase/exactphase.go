// Package exactphase implements Algorithm Exact_bc (Section IV-B, Lemma 18
// of the SaPHyRa paper): the exact enumeration of all 2-hop intra-block
// shortest paths s-v-t whose middle node v lies in the target set A, which
// forms the exact subspace of the SaPHyRa_bc sample-space partition.
//
// The engine runs on the block-annotated adjacency view bicomp.BlockCSR: the
// inner s-v-t loop streams over pre-grouped per-block neighbor runs with the
// out-reach r-values inlined per edge, so the hot loop performs no per-edge
// block resolution, no OutReach.Of lookup, and no map access.
//
// Parallelism is deterministic and runs on the shared internal/sched
// substrate: endpoints are split into chunks balanced by a per-endpoint cost
// model (1 + deg(s) + sum of deg(v)^2 over s's target neighbors) via
// sched.Bounds, workers pull chunks from a shared counter (sched.DoWith),
// and per-chunk partial sums are merged in chunk-index order — so a fixed
// seed and any worker count produce bitwise-identical (lambdaHat, exact)
// outputs. All scratch (per-worker epoch-stamped sigma/stamp/isNbr arrays,
// the chunk bookkeeping, and the partial-sum buffers) is pooled on the
// Engine, which is cached per graph by core.PreprocessBC: repeated target
// sets hit a zero-allocation steady state.
//
// DESIGN.md section 6 documents the engine (the run-length merge, the
// push/pull choice, and the scheduling); section 7 covers the view layer it
// runs on, including the mmap-backed serving path: the engine only touches
// view arrays and the view's embedded graph, so it runs unchanged on a view
// opened with bicomp.OpenMapped.
package exactphase

import (
	"context"
	"fmt"
	"runtime"
	"slices"
	"sync"

	"saphyra/internal/bicomp"
	"saphyra/internal/graph"
	"saphyra/internal/obs"
	"saphyra/internal/params"
	"saphyra/internal/sched"
)

// maxChunks caps the scheduling granularity: enough chunks for dynamic load
// balancing on any realistic core count while keeping the merge and the
// partial-buffer zeroing cheap.
const maxChunks = 64

// partialBudget bounds the memory held in per-chunk partial-sum buffers
// (chunks * k * 8 bytes); full-network ranking on huge graphs degrades to
// fewer, larger chunks instead of blowing up the heap.
const partialBudget = 16 << 20

// Engine evaluates the exact 2-hop phase for arbitrary target sets over one
// preprocessed graph. Safe for concurrent use.
//
// Scratch is recycled through Engine-owned free lists rather than sync.Pool:
// the GC never evicts them, so repeated ranking calls on a cached Engine
// are allocation-free in steady state (the micro-benchmark contract).
type Engine struct {
	view *bicomp.BlockCSR

	mu          sync.Mutex
	freeWorkers []*workerScratch
	freeRuns    []*runScratch

	// acquire/release are getWorker/putWorker pre-bound once, so the
	// steady-state RunInto hands them to sched.DoWith without allocating
	// method values per call (the 0 allocs/op contract).
	acquire func() *workerScratch
	release func(*workerScratch)
}

// New returns an engine over the given block-annotated view.
func New(view *bicomp.BlockCSR) *Engine {
	e := &Engine{view: view}
	e.acquire = e.getWorker
	e.release = e.putWorker
	return e
}

// middle records one qualifying s-v pair of the current endpoint: the
// target index of the middle v, the edge range of v's run in the shared
// block restricted to ids above the endpoint, and r_b(s) — everything
// phase 2 needs with no further lookups.
type middle struct {
	ai     int32
	rS     float64
	lo, hi int64
}

// workerScratch is the per-goroutine state: epoch-stamped neighbor marks,
// sigma counters, and the A-middle buffer. Epoch stamping makes per-endpoint
// reset O(deg) instead of O(n).
type workerScratch struct {
	isNbr    []int32
	sigStamp []int32
	sigma    []int32
	epochs   *sched.Epoch // over isNbr and sigStamp
	middles  []middle
}

// runScratch is the per-call bookkeeping: endpoint collection, the cost
// prefix, chunk bounds, and per-chunk partial sums.
type runScratch struct {
	endpoints []graph.Node
	epMark    []int32
	epPos     []int32
	epEpochs  *sched.Epoch // over epMark
	cost      []float64
	bounds    []int
	partials  [][]float64
	lambdas   []float64

	// chunkFn is the sched.DoWith body, created once per pooled runScratch
	// and parameterized through the aIndex/wA fields — so repeated RunInto
	// calls schedule chunks without a per-call closure allocation.
	chunkFn func(ws *workerScratch, c int)
	aIndex  []int32
	wA      float64
}

func (e *Engine) getWorker() *workerScratch {
	e.mu.Lock()
	if k := len(e.freeWorkers); k > 0 {
		ws := e.freeWorkers[k-1]
		e.freeWorkers = e.freeWorkers[:k-1]
		e.mu.Unlock()
		return ws
	}
	e.mu.Unlock()
	n := e.view.G.NumNodes()
	ws := &workerScratch{
		isNbr:    make([]int32, n),
		sigStamp: make([]int32, n),
		sigma:    make([]int32, n),
	}
	ws.epochs = sched.NewEpoch(ws.isNbr, ws.sigStamp)
	return ws
}

func (e *Engine) putWorker(ws *workerScratch) {
	e.mu.Lock()
	e.freeWorkers = append(e.freeWorkers, ws)
	e.mu.Unlock()
}

func (e *Engine) getRun() *runScratch {
	e.mu.Lock()
	if k := len(e.freeRuns); k > 0 {
		rs := e.freeRuns[k-1]
		e.freeRuns = e.freeRuns[:k-1]
		e.mu.Unlock()
		return rs
	}
	e.mu.Unlock()
	n := e.view.G.NumNodes()
	rs := &runScratch{
		epMark: make([]int32, n),
		epPos:  make([]int32, n),
	}
	rs.epEpochs = sched.NewEpoch(rs.epMark)
	rs.chunkFn = func(ws *workerScratch, c int) {
		rs.lambdas[c] = e.runChunk(rs.endpoints[rs.bounds[c]:rs.bounds[c+1]], rs.aIndex, rs.wA, rs.partials[c], ws)
	}
	return rs
}

func (e *Engine) putRun(rs *runScratch) {
	e.mu.Lock()
	e.freeRuns = append(e.freeRuns, rs)
	e.mu.Unlock()
}

// Run computes (lambdaHat, exact): the exact-subspace mass and the per-target
// exact risks lhat (Eq 29 normalization by wA). aIndex must map every node
// to its index in targets or -1; wA is the pair mass of the target blocks.
// Cancellation is checked between chunks (never inside one): on a done ctx
// the run aborts with a *params.CanceledError and no output — a nil error
// guarantees the result is bitwise-identical to an uncancelled run.
func (e *Engine) Run(ctx context.Context, targets []graph.Node, aIndex []int32, wA float64, workers int) (float64, []float64, error) {
	exact := make([]float64, len(targets))
	lambdaHat, err := e.RunInto(ctx, exact, targets, aIndex, wA, workers)
	return lambdaHat, exact, err
}

// RunInto is Run writing the exact risks into a caller-provided slice (which
// it zeroes first): the allocation-free form for repeated ranking calls.
// workers <= 0 means GOMAXPROCS, matching the BCOptions.Workers contract.
func (e *Engine) RunInto(ctx context.Context, exact []float64, targets []graph.Node, aIndex []int32, wA float64, workers int) (float64, error) {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	g := e.view.G
	clear(exact)
	if wA == 0 || len(targets) == 0 {
		return 0, nil
	}
	rs := e.getRun()
	defer e.putRun(rs)

	// "exact.schedule" covers endpoint collection, the cost model, and the
	// chunk bounds; "exact.run" the chunk execution + merge. Both are nil
	// no-ops (one atomic load each) when no trace rides ctx.
	schedSpan := obs.StartLeaf(ctx, "exact.schedule")

	// Endpoint candidates: the distinct neighbors of A, sorted.
	ep := rs.epEpochs.Next()
	rs.endpoints = rs.endpoints[:0]
	for _, v := range targets {
		for _, s := range g.Neighbors(v) {
			if rs.epMark[s] != ep {
				rs.epMark[s] = ep
				rs.endpoints = append(rs.endpoints, s)
			}
		}
	}
	if len(rs.endpoints) == 0 {
		schedSpan.End()
		return 0, nil
	}
	slices.Sort(rs.endpoints)

	// Chunk count: a pure function of the inputs (never of the worker
	// count), so the chunk-order merge below is bitwise-identical for any
	// parallelism. Scaled down for small endpoint sets — chunk bookkeeping
	// (zeroing and merging chunks*k partial sums) must not dominate the
	// enumeration itself — and bounded so the partial buffers stay within
	// partialBudget bytes even for full-network target sets.
	chunks := (len(rs.endpoints) + 7) / 8
	if chunks > maxChunks {
		chunks = maxChunks
	}
	if byMem := partialBudget / (8 * len(exact)); chunks > byMem {
		chunks = byMem
	}
	if chunks < 1 {
		chunks = 1
	}

	if chunks == 1 {
		schedSpan.End()
		// Single chunk: no cost model, no partial buffers; accumulating
		// straight into exact is bit-identical to merging one zeroed
		// partial (0 + x == x exactly). The chunk runs whole, so the only
		// checkpoint is before it starts.
		if err := params.Interrupted(ctx); err != nil {
			clear(exact)
			return 0, err
		}
		runSpan := obs.StartLeaf(ctx, "exact.run")
		ws := e.getWorker()
		lambdaHat := e.runChunk(rs.endpoints, aIndex, wA, exact, ws)
		e.putWorker(ws)
		if runSpan != nil {
			runSpan.SetExtra(1)
			runSpan.SetNote(fmt.Sprintf("endpoints=%d", len(rs.endpoints)))
			runSpan.End()
		}
		return lambdaHat, nil
	}

	// Per-endpoint cost model for chunk balancing: 1 + deg(s) + the sum of
	// deg(v)^2 over s's neighbors v in A — the dominant phase-2 scan work
	// of Lemma 18.
	for i, s := range rs.endpoints {
		rs.epPos[s] = int32(i)
	}
	rs.cost = resize(rs.cost, len(rs.endpoints))
	for i, s := range rs.endpoints {
		rs.cost[i] = 1 + float64(g.Degree(s))
	}
	for _, v := range targets {
		d2 := float64(g.Degree(v))
		d2 *= d2
		for _, s := range g.Neighbors(v) {
			rs.cost[rs.epPos[s]] += d2
		}
	}
	rs.bounds = sched.Bounds(rs.cost, chunks, rs.bounds)
	if schedSpan != nil {
		schedSpan.SetExtra(int64(len(rs.endpoints)))
		schedSpan.End()
	}

	// Per-chunk partial sums (zeroed; buffers reused across calls).
	if len(rs.partials) < chunks {
		rs.partials = append(rs.partials, make([][]float64, chunks-len(rs.partials))...)
	}
	for c := 0; c < chunks; c++ {
		rs.partials[c] = resize(rs.partials[c], len(exact))
		clear(rs.partials[c])
	}
	rs.lambdas = resize(rs.lambdas, chunks)
	clear(rs.lambdas)

	rs.aIndex, rs.wA = aIndex, wA
	runSpan := obs.StartLeaf(ctx, "exact.run")
	err := sched.DoWithCtx(ctx, chunks, workers, e.acquire, e.release, rs.chunkFn)
	if runSpan != nil {
		runSpan.SetExtra(int64(chunks))
		runSpan.SetNote(fmt.Sprintf("endpoints=%d workers<=%d", len(rs.endpoints), workers))
		runSpan.End()
	}
	rs.aIndex = nil // do not retain the caller's index map on the free list
	if err != nil {
		// All-or-nothing: some chunks never ran, so the partials are an
		// arbitrary subset. Discard everything.
		return 0, &params.CanceledError{Cause: err}
	}

	// Deterministic merge: chunk-index order, regardless of which worker
	// computed which chunk.
	var lambdaHat float64
	for c := 0; c < chunks; c++ {
		lambdaHat += rs.lambdas[c]
		for i, x := range rs.partials[c] {
			exact[i] += x
		}
	}
	return lambdaHat, nil
}

// runChunk processes one contiguous endpoint range, accumulating lhat masses
// into out and returning the chunk's lambda contribution.
//
// Per endpoint s it (1) marks N(s), (2) collects the qualifying middles —
// target neighbors v with the run of the shared block — from s's grouped
// runs, then (3) computes sigma_st either by the classic push sweep over all
// 2-hop neighbors or, when the runs of the collected middles are small
// relative to s's whole 2-hop ball, by pulling |N(s) ∩ N(t)| for just the
// t's the merge will touch. Both orders produce identical integer sigmas and
// the phase-3 accumulation loop is shared, so the choice never affects the
// output bits.
func (e *Engine) runChunk(endpoints []graph.Node, aIndex []int32, wA float64, out []float64, ws *workerScratch) float64 {
	v := e.view
	g := v.G
	var lambda float64
	for _, s := range endpoints {
		ep := ws.epochs.Next()
		for _, w := range g.Neighbors(s) {
			ws.isNbr[w] = ep
		}
		// Collect A-middles from s's runs; estimate the pull cost as the
		// degree mass of the runs the merge will visit.
		ws.middles = ws.middles[:0]
		var pullEst, pushCost int64
		loS, hiS := v.Runs(s)
		for j := loS; j < hiS; j++ {
			pushCost += v.RunDegSum[j]
			rS := float64(v.RunR[j])
			elo, ehi := v.RunEdges(j)
			for i := elo; i < ehi; i++ {
				mv := v.Nbr[i]
				if ai := aIndex[mv]; ai >= 0 {
					jv := v.NbrRun[i]
					ws.middles = append(ws.middles, middle{
						ai: ai, rS: rS,
						lo: v.Mate[i] + 1, hi: v.RunStart[jv+1],
					})
					pullEst += v.RunDegSum[jv]
				}
			}
		}
		if len(ws.middles) == 0 {
			continue
		}
		// The pair mass is symmetric — the ordered pairs (s, t) and (t, s)
		// contribute the same amount to the same middle, and both ends of
		// every qualifying pair are endpoints — so the merge visits only
		// t > s and doubles. Pull's sigma scans therefore cost about half of
		// pullEst, which itself over-counts t's shared between middles; the
		// factor 4 folds both biases in (measured on the skewed reference
		// workload; see BenchmarkExactPhaseRange).
		pull := pullEst < 4*pushCost
		if !pull {
			// push: count common-neighbor multiplicity over the 2-hop ball.
			// Only t > s is counted — the merge below visits nothing else
			// (symmetric halving). Adjacency lists are sorted, so the
			// excluded t <= s form a prefix: walking each list backward and
			// breaking at the boundary touches exactly the needed suffix,
			// halving the densest loop of Lemma 18 on average. No other
			// validity filtering: the counts of direct neighbors above s
			// are garbage, but never read.
			for _, mv := range g.Neighbors(s) {
				nbrs := g.Neighbors(mv)
				for i := len(nbrs) - 1; i >= 0; i-- {
					t := nbrs[i]
					if t <= s {
						break
					}
					if ws.sigStamp[t] != ep {
						ws.sigStamp[t] = ep
						ws.sigma[t] = 1
					} else {
						ws.sigma[t]++
					}
				}
			}
		}
		// Merge over the pre-grouped runs of the collected middles: every
		// t in middle v's run shares v's block with the edge (s, v), so the
		// intra-block condition of Eq 29 holds by construction. The run's
		// masses accumulate locally first — one indexed store per run, not
		// per pair.
		for _, md := range ws.middles {
			rSW := 2 * md.rS / wA
			var acc float64
			for i := md.lo; i < md.hi; i++ {
				t := v.Nbr[i]
				if ws.isNbr[t] == ep {
					continue
				}
				if pull && ws.sigStamp[t] != ep {
					ws.sigStamp[t] = ep
					var c int32
					for _, w := range g.Neighbors(t) {
						if ws.isNbr[w] == ep {
							c++
						}
					}
					ws.sigma[t] = c
				}
				acc += float64(v.RNbr[i]) / float64(ws.sigma[t])
			}
			acc *= rSW
			out[md.ai] += acc
			lambda += acc
		}
	}
	return lambda
}

func resize(s []float64, n int) []float64 {
	if cap(s) < n {
		return make([]float64, n)
	}
	return s[:n]
}
