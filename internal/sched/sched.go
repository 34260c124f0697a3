// Package sched is the shared worker/determinism substrate of the three
// ranking engines (internal/exactphase, internal/kpath, internal/closeness)
// and of the core sampling drive. It factors out the three mechanisms that
// make parallel runs reproducible bit for bit:
//
//   - deterministic partitioning: Bounds splits a cost-weighted item range
//     into contiguous chunks and Split divides a sample budget into quotas,
//     both as pure functions of their inputs — never of the worker count;
//   - work stealing without order effects: DoCtx and DoWithCtx execute the fixed
//     chunk list on up to `workers` goroutines pulling from an atomic
//     counter. Which goroutine runs which chunk varies run to run, but as
//     long as callers write per-chunk results into per-chunk slots and merge
//     them in chunk-index order (or merge values whose reduction is exact,
//     such as integer counts), the output is independent of scheduling;
//   - epoch-stamped scratch: Epoch manages the mark arrays that give
//     per-iteration O(touched) reset instead of O(n) clearing, with the
//     wrap-around clear centralized in one place.
//
// The fixed virtual-worker count VirtualWorkers decouples the sampling
// engines' random streams from Options.Workers: each virtual worker owns one
// seeded sampler, so any physical worker count replays the same streams. See
// DESIGN.md section 3 (determinism) and section 7 (the shared view layer).
package sched

import (
	"context"
	"math"
	"sync"
	"sync/atomic"

	"saphyra/internal/obs"
)

// VirtualWorkers is the fixed number of independent sampler streams driven
// by the sampling engines, regardless of the physical worker count. Results
// are a pure function of the seed: a run with 1 worker and a run with 64
// workers interleave the same VirtualWorkers streams and merge them in the
// same order. The value is part of the determinism contract — changing it
// changes every sampled estimate — so it is a constant, not an option.
const VirtualWorkers = 16

// Split divides total units across parts as evenly as possible: every part
// receives total/parts, and the first total%parts parts receive one more.
// The returned slice reuses quota when it has sufficient capacity.
func Split(total int64, parts int, quota []int64) []int64 {
	if cap(quota) < parts {
		quota = make([]int64, parts)
	}
	quota = quota[:parts]
	base := total / int64(parts)
	rem := total % int64(parts)
	for i := range quota {
		quota[i] = base
		if int64(i) < rem {
			quota[i]++
		}
	}
	return quota
}

// Bounds partitions items [0, len(cost)) into `chunks` contiguous ranges
// balanced by the per-item cost: chunk c spans [bounds[c], bounds[c+1]).
// A single item dominating the mass cannot capture a prefix of chunks
// (chunk c never starts before item c), though lumpy costs can still leave
// individual chunks empty — callers must treat an empty range as a no-op.
// The result is a pure function of (cost, chunks), so chunk-order merges
// downstream are bitwise-reproducible for any worker count. The returned
// slice (length chunks+1) reuses bounds when it has sufficient capacity.
func Bounds(cost []float64, chunks int, bounds []int) []int {
	if cap(bounds) < chunks+1 {
		bounds = make([]int, chunks+1)
	}
	bounds = bounds[:chunks+1]
	var total float64
	for _, c := range cost {
		total += c
	}
	bounds[0] = 0
	var acc float64
	at := 0
	for c := 1; c < chunks; c++ {
		target := total * float64(c) / float64(chunks)
		for at < len(cost) && (acc < target || at < c) {
			// at < c keeps every chunk non-empty even when one item
			// dominates the cost mass.
			acc += cost[at]
			at++
		}
		bounds[c] = at
	}
	bounds[chunks] = len(cost)
	return bounds
}

// DoCtx runs fn(c) for every chunk c in [0, chunks) on up to `workers`
// goroutines pulling chunk indices from a shared atomic counter. With
// workers <= 1 the chunks run inline on the calling goroutine, in order.
// fn must be safe for concurrent invocation on distinct chunks.
//
// Between chunks every goroutine polls ctx before stealing the next chunk
// and stops stealing once it is done. It returns nil when every chunk ran
// and the context's cause when the run was cut short — in that case an
// arbitrary subset of chunks never executed, so the caller MUST discard all
// partial output (the engines' all-or-nothing contract). The poll is one
// atomic-ish interface call per chunk — chunks are coarse (at most ~64 per
// run), so it is free relative to chunk work.
func DoCtx(ctx context.Context, chunks, workers int, fn func(c int)) error {
	return DoWithCtx(ctx, chunks, workers, func() struct{} { return struct{}{} }, func(struct{}) {},
		func(_ struct{}, c int) { fn(c) })
}

// DoWithCtx is DoCtx with a per-goroutine resource: each participating
// goroutine calls acquire once, processes its stolen chunks with fn, and
// calls release once. It is the shape the engines use for pooled
// per-worker scratch — acquire/release bracket a goroutine's lifetime, not
// a chunk's, so scratch churn is O(workers), not O(chunks). Goroutines
// stop stealing chunks once ctx is done; a chunk already started always runs
// to completion (fn is never interrupted mid-chunk), so per-chunk outputs
// are whole — but the chunk *set* may be incomplete, and the caller must
// treat any non-nil return as "no output". A ctx that is done when the run
// ends is reported even if every chunk ran: a chunk may have cut its own
// work short through a Stop watching the same ctx.
func DoWithCtx[W any](ctx context.Context, chunks, workers int, acquire func() W, release func(W), fn func(w W, c int)) error {
	if chunks <= 0 {
		return nil
	}
	if workers > chunks {
		workers = chunks
	}
	if workers <= 1 {
		w := acquire()
		defer release(w)
		for c := 0; c < chunks && ctx.Err() == nil; c++ {
			fn(w, c)
		}
		if ctx.Err() != nil {
			return context.Cause(ctx)
		}
		return nil
	}
	// limit is a local copy so the closure does not capture the parameter
	// used by the sequential path above.
	limit := int64(chunks)
	var next atomic.Int64
	var wg sync.WaitGroup
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			w := acquire()
			defer release(w)
			for ctx.Err() == nil {
				c := next.Add(1) - 1
				if c >= limit {
					break
				}
				fn(w, int(c))
			}
		}()
	}
	wg.Wait()
	if ctx.Err() != nil {
		return context.Cause(ctx)
	}
	return nil
}

// Stop is the sub-chunk cancellation flag: a single atomic bool the
// engines' innermost loops can poll far more often than the chunk-boundary
// checkpoints of DoCtx allow. The chunk checkpoints bound time-to-cancel by
// one chunk — which for the sampling engine means one stream's whole
// per-round quota, seconds at tight eps on huge budgets — while a Stop
// polled every few thousand pairs bounds it by the poll stride.
//
// The poll (Stopped) is one atomic load with no ordering obligations beyond
// the load itself — the flag only ever transitions false -> true, and a
// missed edge costs one extra stride, never correctness. A nil *Stop is
// permanently unstopped, so samplers can hold one unconditionally and skip
// the nil wiring in non-cancellable paths. Raising the flag never touches
// the RNG streams or any per-sample state: a run that completes with an
// unraised (or never-wired) Stop is bitwise-identical to one with no Stop
// at all — the poll is pure control flow.
type Stop struct {
	flag atomic.Bool
}

// Stopped reports whether the flag was raised. Safe on a nil receiver
// (always false).
func (s *Stop) Stopped() bool { return s != nil && s.flag.Load() }

// Raise raises the flag. Raising is idempotent and never reset — a Stop is
// scoped to one run.
func (s *Stop) Raise() { s.flag.Store(true) }

// Watch raises the flag when ctx is done. The returned release must be
// called when the run finishes to detach the watcher (it reports whether
// the watcher was detached before firing, mirroring context.AfterFunc).
func (s *Stop) Watch(ctx context.Context) (release func() bool) {
	return context.AfterFunc(ctx, s.Raise)
}

// noopRelease is the release returned by WatchStop for non-cancellable
// contexts, shared so the fast path allocates nothing.
func noopRelease() bool { return true }

// WatchStop wires a fresh Stop to ctx, skipping all allocation when ctx can
// never be canceled (Done() == nil, e.g. context.Background()): it then
// returns a nil *Stop — permanently unstopped, valid to poll — and a no-op
// release. Engines call this once per run so non-cancellable callers pay
// neither the Stop nor the context.AfterFunc watcher.
func WatchStop(ctx context.Context) (stop *Stop, release func() bool) {
	if ctx.Done() == nil {
		return nil, noopRelease
	}
	stop = &Stop{}
	return stop, stop.Watch(ctx)
}

// Budget is a worker-goroutine pool shared by concurrent callers — the
// serving layer's defense against one huge query starving everything else.
// It holds `total` worker slots; each call Acquires up to `perCall` of them
// (blocking only for the first, taking the rest greedily) and runs its
// engine with that many workers. Because every engine is bitwise
// worker-count independent (the virtual-worker contract, DESIGN.md
// section 3), granting a loaded caller fewer workers degrades its latency
// and nothing else — results, sample counts, and cache keys are untouched.
//
// Acquire never returns 0 and never deadlocks: a caller holding slots is
// running, and running callers finish and Release.
type Budget struct {
	slots   chan struct{}
	perCall int
}

// NewBudget returns a Budget of `total` worker slots with at most `perCall`
// granted per Acquire. Non-positive total defaults to 1; perCall is clamped
// to [1, total].
func NewBudget(total, perCall int) *Budget {
	if total < 1 {
		total = 1
	}
	if perCall < 1 || perCall > total {
		perCall = total
	}
	b := &Budget{slots: make(chan struct{}, total), perCall: perCall}
	for i := 0; i < total; i++ {
		b.slots <- struct{}{}
	}
	return b
}

// PerCall returns the per-Acquire grant cap.
func (b *Budget) PerCall() int { return b.perCall }

// Acquire blocks until at least one worker slot is free, then takes up to
// min(want, perCall) slots without further blocking and returns the number
// taken (always >= 1). want <= 0 asks for the per-call maximum. The caller
// must Release exactly the returned count when its computation finishes.
func (b *Budget) Acquire(want int) int {
	if want <= 0 || want > b.perCall {
		want = b.perCall
	}
	<-b.slots
	granted := 1
	for granted < want {
		select {
		case <-b.slots:
			granted++
		default:
			return granted
		}
	}
	return granted
}

// AcquireCtx is Acquire with a "sched.budget.wait" trace span covering the
// blocking wait, Extra = slots granted. The grant itself is byte-for-byte
// Acquire — the span only observes how long this caller queued for a
// worker slot, which is exactly the signal an operator needs when a shared
// daemon budget is the bottleneck.
func (b *Budget) AcquireCtx(ctx context.Context, want int) int {
	sp := obs.StartLeaf(ctx, "sched.budget.wait")
	granted := b.Acquire(want)
	if sp != nil {
		sp.SetExtra(int64(granted))
		sp.End()
	}
	return granted
}

// Release returns granted slots to the pool.
func (b *Budget) Release(granted int) {
	for i := 0; i < granted; i++ {
		b.slots <- struct{}{}
	}
}

// Epoch manages epoch-stamped mark arrays: a slot is "set" iff it equals the
// current epoch, so resetting all marks is a single counter increment. The
// registered arrays are cleared together when the epoch counter wraps, which
// keeps the stale-stamp collision impossible. A zeroed mark array is "all
// unset" for every epoch Next returns (epochs start at 1).
//
// An Epoch and its arrays belong to one goroutine at a time; engines pool
// them per worker.
type Epoch struct {
	cur   int32
	marks [][]int32
}

// NewEpoch returns an Epoch over the given mark arrays (typically one or two
// arrays sharing a reset lifetime).
func NewEpoch(marks ...[]int32) *Epoch {
	return &Epoch{marks: marks}
}

// Next starts a new epoch and returns its stamp. All registered arrays are
// logically unset; physical clearing happens only on int32 wrap-around.
func (e *Epoch) Next() int32 {
	if e.cur == math.MaxInt32 {
		for _, m := range e.marks {
			clear(m)
		}
		e.cur = 0
	}
	e.cur++
	return e.cur
}
