// Package obs is the dependency-free telemetry subsystem: a metrics
// Registry (counters, gauges, wait-free log-bucketed histograms — see
// registry.go) and context-threaded trace spans (this file) that follow a
// request from HTTP admission down through the Ranker, the sampling
// rounds, the exact-phase chunks, and the MS-BFS passes.
//
// The spans are strictly observational. They never touch an RNG stream,
// never reorder work, and never feed back into any computation — the only
// writes are into a per-trace span arena and the process clock reads that
// timestamp them — so instrumented runs are bitwise identical to
// uninstrumented ones (the worker-sweep and serve goldens run with this
// package compiled in). When no trace is active the entire StartSpan path
// is one atomic load and an early return: compute layers can instrument
// their hot loops unconditionally.
package obs

import (
	"context"
	"sync/atomic"
	"time"
)

// maxSpans bounds one trace's span arena. A serving request produces a few
// dozen spans (admission, cache, flight, per-round, per-stream draw, exact
// chunks, MS-BFS passes); 512 leaves an order of magnitude of headroom.
// Claims past the cap are counted in Trace.dropped and return a nil *Span,
// whose methods are no-ops — a trace can never allocate past its arena.
const maxSpans = 512

// spanState values, published with atomic stores so a concurrent Snapshot
// (slow-query logging races with a still-running detached flight) reads a
// consistent record: stateStarted publishes name/parent/start, stateEnded
// additionally publishes end/extra/note.
const (
	stateFree int32 = iota
	stateStarted
	stateEnded
)

// Span is one timed region inside a Trace. Spans live in the trace's
// fixed arena and are claimed with an atomic index bump — starting a span
// allocates nothing. A nil *Span is valid and all its methods are no-ops,
// which is what StartSpan hands out when tracing is disabled or the arena
// is full.
type Span struct {
	t      *Trace
	name   string
	note   string
	start  int64 // ns since trace start
	end    int64 // ns since trace start, valid once state == stateEnded
	extra  int64
	parent int32 // arena index of parent span, -1 for roots
	idx    int32
	state  atomic.Int32
}

// End closes the span. Idempotent: the first End wins, so a handler can
// defensively End a span an inner path already closed. The end timestamp
// (and any SetExtra/SetNote written before End) is published by the state
// store, so a concurrent Snapshot either sees the span still running or
// sees it fully closed — never a half-written record.
func (s *Span) End() {
	if s == nil || s.state.Load() != stateStarted {
		return
	}
	s.end = int64(time.Since(s.t.start))
	s.state.CompareAndSwap(stateStarted, stateEnded)
}

// SetExtra attaches one integer datum (samples drawn, chunks run, levels
// expanded) to the span. Call before End.
func (s *Span) SetExtra(v int64) {
	if s == nil {
		return
	}
	s.extra = v
}

// SetNote attaches a short free-form annotation. Call before End.
func (s *Span) SetNote(n string) {
	if s == nil {
		return
	}
	s.note = n
}

// Trace owns a span arena for one request (or one detached flight serving
// several requests). Traces are pooled and refcounted: the HTTP handler
// holds one reference; a detached cache flight that outlives a timed-out
// leader holds another, so span writes never land in a recycled arena.
type Trace struct {
	id      string
	start   time.Time
	spans   [maxSpans]Span
	n       atomic.Int32 // spans claimed (may exceed maxSpans; excess dropped)
	dropped atomic.Int32
	refs    atomic.Int32
}

// activeTraces gates the whole subsystem: StartSpan loads it once and
// returns immediately when zero, so a process serving no traced requests
// pays one atomic load per instrumented site (pinned by
// BenchmarkStartSpanDisabled).
var activeTraces atomic.Int64

// traceFree recycles span arenas (a Trace is ~40 KiB of span records). A
// plain buffered channel rather than a sync.Pool: pools are emptied by the
// garbage collector, and re-zeroing a 40 KiB arena every couple of GC
// cycles is exactly the kind of tail-latency spike the near-free-telemetry
// contract forbids. The channel's inventory survives GC; overflow beyond
// its capacity is simply garbage.
var traceFree = make(chan *Trace, 64)

// Enabled reports whether any trace is live — compute layers can use it to
// skip building span annotations that are themselves costly.
func Enabled() bool { return activeTraces.Load() != 0 }

// NewTrace starts a trace with one reference held by the caller. Release
// it with Unref; the arena returns to the pool when the last reference
// drops.
func NewTrace(id string) *Trace {
	var t *Trace
	select {
	case t = <-traceFree:
	default:
		t = new(Trace)
	}
	t.id = id
	t.start = time.Now()
	t.n.Store(0)
	t.dropped.Store(0)
	t.refs.Store(1)
	activeTraces.Add(1)
	return t
}

// Ref adds a reference — taken by anything that may outlive the creator,
// such as a detached cache flight.
func (t *Trace) Ref() { t.refs.Add(1) }

// Unref drops a reference; the last drop clears the arena and pools it.
func (t *Trace) Unref() {
	if t.refs.Add(-1) != 0 {
		return
	}
	activeTraces.Add(-1)
	n := int(t.n.Load())
	if n > maxSpans {
		n = maxSpans
	}
	for i := 0; i < n; i++ {
		sp := &t.spans[i]
		sp.state.Store(stateFree)
		sp.name = ""
		sp.note = ""
		sp.t = nil
	}
	t.id = ""
	select {
	case traceFree <- t:
	default: // freelist full; let the GC have it
	}
}

// ID returns the caller-supplied trace id ("" when none).
func (t *Trace) ID() string { return t.id }

type traceKey struct{}
type spanKey struct{}

// ContextWithTrace attaches t to ctx; subsequent StartSpan calls under ctx
// record into t's arena.
func ContextWithTrace(ctx context.Context, t *Trace) context.Context {
	return context.WithValue(ctx, traceKey{}, t)
}

// Transplant copies src's trace (and current span, as the parent for spans
// started under dst) onto dst, and returns the trace so the caller can Ref
// it. This is how a detached cache flight — which deliberately runs under
// context.Background so a leader's deadline cannot poison shared work —
// keeps attributing its spans to the trace of the request that launched
// it. Returns (dst, nil) unchanged when src carries no trace.
func Transplant(dst, src context.Context) (context.Context, *Trace) {
	if sp, ok := src.Value(spanKey{}).(*Span); ok && sp != nil && sp.t != nil {
		// The span carries its trace, so one context value moves both.
		return context.WithValue(dst, spanKey{}, sp), sp.t
	}
	t, _ := src.Value(traceKey{}).(*Trace)
	if t == nil {
		return dst, nil
	}
	return context.WithValue(dst, traceKey{}, t), t
}

// StartSpan opens a span named name under ctx's trace and returns a
// derived context carrying it as the parent for nested spans. When no
// trace is attached (the overwhelmingly common case) it returns (ctx, nil)
// after a single atomic load; the nil span's methods are no-ops, so call
// sites need no conditionals.
func StartSpan(ctx context.Context, name string) (context.Context, *Span) {
	if activeTraces.Load() == 0 {
		return ctx, nil
	}
	sp := claim(ctx, name)
	if sp == nil {
		return ctx, nil
	}
	return context.WithValue(ctx, spanKey{}, sp), sp
}

// StartLeaf opens a span that will never have children: same as StartSpan
// but without deriving a context, so the call allocates nothing beyond the
// arena record. For hot leaf sites — admission waits, cache probes,
// per-pass traversal timings — where a derived context would be discarded
// anyway.
func StartLeaf(ctx context.Context, name string) *Span {
	if activeTraces.Load() == 0 {
		return nil
	}
	return claim(ctx, name)
}

// StartSpanIn opens a span in an explicitly supplied trace — the request
// root, where the handler holds the trace it just created and the context
// does not carry it yet. The returned context carries the span (and,
// through it, the trace) for everything nested below; no separate
// ContextWithTrace is needed.
func StartSpanIn(ctx context.Context, t *Trace, name string) (context.Context, *Span) {
	sp := t.claimIn(nil, name)
	if sp == nil {
		return ctx, nil
	}
	return context.WithValue(ctx, spanKey{}, sp), sp
}

// claim finds ctx's trace and claims a span record parented under the
// current span. One context lookup serves both purposes: the current span
// carries its trace, so the separate traceKey is consulted only before the
// first span.
func claim(ctx context.Context, name string) *Span {
	parent, _ := ctx.Value(spanKey{}).(*Span)
	var t *Trace
	if parent != nil && parent.t != nil {
		t = parent.t
	} else {
		parent = nil
		if t, _ = ctx.Value(traceKey{}).(*Trace); t == nil {
			return nil
		}
	}
	return t.claimIn(parent, name)
}

// claimIn claims the next arena slot in t, parented under parent (nil for
// a root).
func (t *Trace) claimIn(parent *Span, name string) *Span {
	idx := t.n.Add(1) - 1
	if idx >= maxSpans {
		t.dropped.Add(1)
		return nil
	}
	sp := &t.spans[idx]
	sp.t = t
	sp.idx = idx
	sp.name = name
	sp.note = ""
	sp.extra = 0
	sp.end = 0
	sp.parent = -1
	if parent != nil {
		sp.parent = parent.idx
	}
	sp.start = int64(time.Since(t.start))
	sp.state.Store(stateStarted)
	return sp
}

// SpanJSON is one node of a rendered span tree, durations in microseconds.
type SpanJSON struct {
	Name       string      `json:"name"`
	StartUs    float64     `json:"start_us"`
	DurUs      float64     `json:"dur_us"`
	Extra      int64       `json:"extra,omitempty"`
	Note       string      `json:"note,omitempty"`
	Unfinished bool        `json:"unfinished,omitempty"`
	Children   []*SpanJSON `json:"children,omitempty"`
}

// TraceJSON is a rendered trace: the span forest in start order plus the
// count of spans dropped past the arena cap.
type TraceJSON struct {
	ID      string      `json:"id,omitempty"`
	Spans   []*SpanJSON `json:"spans"`
	Dropped int32       `json:"dropped,omitempty"`
}

// Snapshot renders the trace's current span forest. Safe to call while
// spans are still being opened and closed (a detached flight may still be
// running): only spans whose start has been published are included, and a
// started-but-unfinished span reports its duration as "so far" with
// Unfinished set.
func (t *Trace) Snapshot() *TraceJSON {
	now := int64(time.Since(t.start))
	n := int(t.n.Load())
	if n > maxSpans {
		n = maxSpans
	}
	nodes := make([]*SpanJSON, n)
	out := &TraceJSON{ID: t.id, Dropped: t.dropped.Load()}
	for i := 0; i < n; i++ {
		sp := &t.spans[i]
		st := sp.state.Load()
		if st == stateFree {
			continue
		}
		node := &SpanJSON{
			Name:    sp.name,
			StartUs: float64(sp.start) / 1e3,
		}
		if st == stateEnded {
			node.DurUs = float64(sp.end-sp.start) / 1e3
			node.Extra = sp.extra
			node.Note = sp.note
		} else {
			node.DurUs = float64(now-sp.start) / 1e3
			node.Unfinished = true
		}
		nodes[i] = node
		if p := sp.parent; p >= 0 && int(p) < n && nodes[p] != nil {
			nodes[p].Children = append(nodes[p].Children, node)
		} else {
			out.Spans = append(out.Spans, node)
		}
	}
	return out
}
