// Package serve is the ranking service layer over a persisted BlockCSR
// view: the request lifecycle behind cmd/saphyrad (DESIGN.md section 8).
// It owns everything between an HTTP request and an engine call —
//
//   - validation and canonicalization: requests become query.Query values
//     (the library's unified query model); Query.Validate's typed
//     internal/params errors split 400 (caller fault) from 500 (server
//     fault), and Query.Key is the one cache-key digest — the serving layer
//     no longer defines any canonicalization of its own;
//   - deadlines and cancellation: each request carries a context
//     (server-default deadline, per-request Timeout-Ms header, client
//     disconnect); the engines poll it at their round/chunk checkpoints
//     with an all-or-nothing contract, and an expired request returns 504
//     (499 for a vanished client) with its admission slot freed;
//   - admission control: at most MaxInFlight computations run at once with a
//     bounded wait queue; excess load is shed immediately with 429 instead
//     of queueing without bound;
//   - a per-request worker budget (sched.Budget): each computation is
//     granted a bounded share of a fixed worker-slot pool, so one
//     full-network query cannot starve concurrent subset queries — safe to
//     do opportunistically because results never depend on the worker count;
//   - a deterministic result cache with singleflight collapsing, keyed by
//     (view generation, Query.Key) — sound because every estimate is a pure
//     function of exactly those inputs. Flights run detached: a leader whose
//     deadline fires abandons the flight, but the computation keeps running
//     for its remaining followers and is canceled only when the last waiter
//     leaves;
//   - a top-k index per method: the full-network ranking computed once per
//     (generation, options), cached, and sliced by GET /v1/topk;
//   - atomic hot reload: POST /admin/reload (or SIGHUP in the daemon) maps
//     the view file afresh under the next generation, swaps it in, and
//     retires the old bicomp.Handle — which unmaps only after the last
//     in-flight query on it drains, per the mmap lifetime rules of
//     DESIGN.md section 7.
//
// Telemetry rides on internal/obs: every counter and gauge lives in one
// metrics Registry, rendered by /metricsz (Prometheus text format, with
// latency and cost histograms) and by /statusz (the same counter and
// gauge samples as one JSON object), request handlers thread trace spans
// through admission, cache, flight, and the compute layers (returned in
// the response envelope on ?trace=1 or a Trace-Id header), and requests
// slower than Config.SlowQueryThreshold emit a structured JSON slow-query
// line with the full span tree. Instrumentation is strictly read-only:
// spans never reach a result bit, and with no trace active each
// instrumented site is one atomic load.
//
// The API surface is JSON over HTTP: POST /v1/rank, GET /v1/topk,
// GET /healthz (liveness: 200 once listening), GET /readyz (readiness:
// 503 until a view generation is loaded), GET /statusz (the registry's
// counters and gauges as JSON), GET /metricsz (Prometheus text format),
// POST /admin/reload.
package serve

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"os"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"saphyra/internal/bicomp"
	"saphyra/internal/faultinject"
	"saphyra/internal/graph"
	"saphyra/internal/obs"
	"saphyra/internal/params"
	"saphyra/internal/query"
	"saphyra/internal/sched"
)

// Config tunes the service. The zero value serves with sensible defaults.
type Config struct {
	// MaxInFlight bounds concurrently running computations (cache misses).
	// Cache hits bypass admission entirely. Default 4.
	MaxInFlight int
	// MaxQueue bounds computations waiting for an in-flight slot; arrivals
	// beyond it are shed with 429. Default 4*MaxInFlight.
	MaxQueue int
	// TotalWorkers is the worker-slot pool shared by every computation.
	// Default GOMAXPROCS.
	TotalWorkers int
	// RequestWorkers caps the slots one computation may take from the pool
	// (the per-request budget). Default max(1, TotalWorkers/2).
	RequestWorkers int
	// CacheEntries bounds the result cache. Default 1024.
	CacheEntries int

	// FastLaneSlots is the compute-slot pool reserved for tiny queries (an
	// estimated cost at most FastLaneCost, see queryCost): tiny queries try
	// this pool first and fall back to the shared pool, while expensive
	// queries never touch it — so a burst of full-network jobs saturating
	// MaxInFlight cannot push tiny-query latency to the shed horizon.
	// Default 2; negative disables the lane.
	FastLaneSlots int
	// FastLaneCost is the queryCost threshold below which a query is tiny.
	// Default 1<<14.
	FastLaneCost float64

	// ClientQPS enables per-client token-bucket quotas: each Client-Id
	// refills at ClientQPS tokens/second up to ClientBurst, one token per
	// request. Zero (the default) disables quotas.
	ClientQPS float64
	// ClientBurst is the bucket capacity. Default max(1, 2*ClientQPS).
	ClientBurst float64

	// DegradeEpsFactor scales a request's epsilon for the coarsened-eps
	// degradation rung (opt-in via the Degrade-Ms header): the degraded
	// recompute runs at min(eps*DegradeEpsFactor, DegradeMaxEps). Default 4.
	DegradeEpsFactor float64
	// DegradeMaxEps caps the coarsened epsilon. Default 0.25.
	DegradeMaxEps float64
	// DefaultDegradeMs opts every rank request into the degradation ladder
	// with this budget (milliseconds) when the request carries no Degrade-Ms
	// header — the operator-side policy knob. Zero means degradation is
	// purely request-driven.
	DefaultDegradeMs int
	// DisableStale removes the stale rung from the ladder: degraded requests
	// then only ever get a coarsened recompute, never a prior generation.
	DisableStale bool

	// DefaultTimeout is the per-request compute deadline. A request's
	// Timeout-Ms header can only tighten it (the effective deadline is the
	// minimum of the two), never extend it past the operator's bound. Zero
	// means no server-side deadline; the header then applies alone. On
	// expiry the request gets 504 and its computation is canceled at the
	// next engine checkpoint (unless other requests still wait on the same
	// flight).
	DefaultTimeout time.Duration

	// DisablePrecompute skips warming the per-method top-k index at load
	// and reload time; the index is then built lazily by the first
	// /v1/topk request per method.
	DisablePrecompute bool

	// SlowQueryThreshold arms the slow-query log: every request whose wall
	// time meets or exceeds it emits one structured JSON line (span tree,
	// query key, generation, outcome) to SlowQueryLog. Zero (the default)
	// disables the log — and with it the per-request tracing it requires,
	// so the zero-config server records no spans at all.
	SlowQueryThreshold time.Duration
	// SlowQueryLog receives slow-query lines (one JSON object per line).
	// Defaults to os.Stderr when SlowQueryThreshold is set. Writes are
	// serialized by the server.
	SlowQueryLog io.Writer

	// PeerFill, when set, is consulted on a cache miss before computing:
	// the cluster tier's hook for asking the key's home peer whether it
	// already holds the result (GET /internal/cache on the peer). It runs
	// inside the singleflight flight — so a cold key costs at most one peer
	// round-trip per flight, never per request — and before admission,
	// because adopting a peer's bytes needs no compute slot. Returning a
	// response with the right generation and aligned ranking arrays
	// short-circuits the computation; anything else (miss, wrong
	// generation, malformed shape) falls through to the local engines.
	// Sharing bytes across replicas is sound for exactly one reason: every
	// result is a pure function of (generation, Query.Key), so the peer's
	// bytes are the bytes this server would have computed.
	PeerFill func(ctx context.Context, gen uint64, key [sha256.Size]byte) (*RankResponse, bool)
}

func (c *Config) setDefaults() {
	if c.MaxInFlight <= 0 {
		c.MaxInFlight = 4
	}
	if c.MaxQueue <= 0 {
		c.MaxQueue = 4 * c.MaxInFlight
	}
	if c.TotalWorkers <= 0 {
		c.TotalWorkers = runtime.GOMAXPROCS(0)
	}
	if c.RequestWorkers <= 0 {
		c.RequestWorkers = max(1, c.TotalWorkers/2)
	}
	if c.CacheEntries <= 0 {
		c.CacheEntries = 1024
	}
	if c.FastLaneSlots == 0 {
		c.FastLaneSlots = 2
	}
	if c.FastLaneSlots < 0 {
		c.FastLaneSlots = 0 // explicit disable
	}
	if c.FastLaneCost <= 0 {
		c.FastLaneCost = 1 << 14
	}
	if c.DegradeEpsFactor <= 1 {
		c.DegradeEpsFactor = 4
	}
	if c.DegradeMaxEps <= 0 {
		c.DegradeMaxEps = 0.25
	}
	if c.SlowQueryThreshold > 0 && c.SlowQueryLog == nil {
		c.SlowQueryLog = os.Stderr
	}
}

// Methods served over HTTP. "saphyra" is betweenness (SaPHyRa_bc); the two
// companion estimators complete the persisted view's consumer set.
const (
	MethodSaPHyRa   = "saphyra"
	MethodKPath     = "kpath"
	MethodCloseness = "closeness"
)

var methods = []string{MethodSaPHyRa, MethodKPath, MethodCloseness}

// measureOf maps a wire method name onto the query model's measure axis.
func measureOf(method string) (query.Measure, error) {
	switch method {
	case MethodSaPHyRa:
		return query.Betweenness, nil
	case MethodKPath:
		return query.KPath, nil
	case MethodCloseness:
		return query.Closeness, nil
	}
	return 0, params.Errorf("method", "unknown method %q (want saphyra | kpath | closeness)", method)
}

// loadedView is one generation of the serving state: the mapped view with
// its lifetime handle plus everything derived from it once per load — the
// Ranker (with its betweenness preprocessing built eagerly) and the
// original-id -> dense-id reverse map.
type loadedView struct {
	handle *bicomp.Handle
	g      *graph.Graph
	ids    []int64              // dense -> original; nil = identity
	back   map[int64]graph.Node // original -> dense; nil = identity
	ranker *query.Ranker
	loaded time.Time
}

func (lv *loadedView) gen() uint64 { return lv.handle.Gen() }

// dense maps an original id to its dense node, reporting existence.
func (lv *loadedView) dense(raw int64) (graph.Node, bool) {
	if lv.back == nil {
		return graph.Node(raw), raw >= 0 && raw < int64(lv.g.NumNodes())
	}
	v, ok := lv.back[raw]
	return v, ok
}

// original maps a dense node back to its original id.
func (lv *loadedView) original(v graph.Node) int64 {
	if lv.ids == nil {
		return int64(v)
	}
	return lv.ids[v]
}

// Server is the ranking service. Create with New, expose via Handler, hot
// reload with Reload, shut down with Close.
type Server struct {
	cfg      Config
	viewPath string

	cur      atomic.Pointer[loadedView]
	reloadMu sync.Mutex // serializes Reload; swaps stay atomic for readers

	cache  *cache
	budget *sched.Budget
	adm    *admission
	quota  *quotas
	mux    *http.ServeMux
	start  time.Time

	// computeEWMA is the exponentially weighted mean compute seconds
	// (float64 bits), fed by every finished flight and read by the
	// queue-depth-derived Retry-After.
	computeEWMA atomic.Uint64

	// m holds every request counter and histogram, registered on an
	// obs.Registry rendered by /metricsz (see metrics.go).
	m      *metrics
	slowMu sync.Mutex // serializes slow-query log writes
}

// New maps the view file, runs the per-process preprocessing, warms the
// top-k index (unless disabled), and returns a Server ready to accept
// requests as generation 1.
func New(viewPath string, cfg Config) (*Server, error) {
	cfg.setDefaults()
	s := &Server{
		cfg:      cfg,
		viewPath: viewPath,
		cache:    newCache(cfg.CacheEntries),
		budget:   sched.NewBudget(cfg.TotalWorkers, cfg.RequestWorkers),
		adm:      newAdmission(cfg.MaxInFlight, cfg.MaxQueue, cfg.FastLaneSlots),
		quota:    newQuotas(cfg.ClientQPS, cfg.ClientBurst),
		start:    time.Now(),
	}
	s.m = newMetrics(s)
	s.cache.onFlight = func(joined int64) { s.m.flightFanIn.ObserveN(joined) }
	lv, err := s.load(1)
	if err != nil {
		return nil, err
	}
	s.cur.Store(lv)
	if !cfg.DisablePrecompute {
		s.precomputeTopK(lv)
	}
	s.mux = http.NewServeMux()
	s.mux.HandleFunc("POST /v1/rank", s.handleRank)
	s.mux.HandleFunc("GET /v1/topk", s.handleTopK)
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	s.mux.HandleFunc("GET /readyz", s.handleReadyz)
	s.mux.HandleFunc("GET /statusz", s.handleStatusz)
	s.mux.HandleFunc("GET /metricsz", s.handleMetricsz)
	s.mux.HandleFunc("POST /admin/reload", s.handleReload)
	s.mux.HandleFunc("GET /internal/cache", s.handleInternalCache)
	return s, nil
}

// Handler returns the HTTP handler for the JSON API.
func (s *Server) Handler() http.Handler { return s.mux }

// Generation returns the current view generation.
func (s *Server) Generation() uint64 { return s.cur.Load().gen() }

// Close retires the current view; in-flight queries drain before the
// mapping is released. The server must not serve requests afterwards.
func (s *Server) Close() error {
	s.reloadMu.Lock()
	defer s.reloadMu.Unlock()
	if lv := s.cur.Load(); lv != nil {
		lv.handle.Retire()
	}
	return nil
}

// load maps viewPath and builds the per-generation derived state.
func (s *Server) load(gen uint64) (*loadedView, error) {
	if err := faultinject.Fire("serve.reload.open"); err != nil {
		return nil, err
	}
	m, err := bicomp.OpenMapped(s.viewPath)
	if err != nil {
		return nil, err
	}
	lv := &loadedView{
		handle: bicomp.NewHandle(m, gen),
		g:      m.View.G,
		ids:    m.IDs,
		ranker: query.NewRankerView(m.View),
		loaded: time.Now(),
	}
	// The betweenness preprocessing (the exact-phase engine over the view's
	// decomposition and out-reach tables, which OpenMapped already rebuilt
	// from the file's sections) is built here, not lazily, so no query ever
	// pays it.
	lv.ranker.Prepare(query.Betweenness)
	if lv.ids != nil {
		lv.back = make(map[int64]graph.Node, len(lv.ids))
		for dense, raw := range lv.ids {
			lv.back[raw] = graph.Node(dense)
		}
	}
	return lv, nil
}

// Reload maps the view file afresh as the next generation and swaps it in.
// The old generation keeps serving its in-flight queries and is unmapped
// when the last of them drains (bicomp.Handle). Queries arriving during the
// swap land on whichever generation their Acquire wins — each response
// reports which one. On error the current view keeps serving untouched.
func (s *Server) Reload() (uint64, error) {
	s.reloadMu.Lock()
	defer s.reloadMu.Unlock()
	reloadStart := time.Now()
	old := s.cur.Load()
	lv, err := s.load(old.gen() + 1)
	if err != nil {
		s.m.reloadFailures.Inc()
		return old.gen(), fmt.Errorf("serve: reload failed, generation %d keeps serving: %w", old.gen(), err)
	}
	if !s.cfg.DisablePrecompute {
		// Warm the new generation before exposing it, so /v1/topk never
		// stalls across a reload.
		s.precomputeTopK(lv)
	}
	s.cur.Store(lv)
	old.handle.Retire()
	s.cache.purgeOtherGens(lv.gen())
	s.m.reloads.Inc()
	s.m.reloadSeconds.Observe(time.Since(reloadStart))
	return lv.gen(), nil
}

// acquire pins the current generation for one request. A tiny retry loop
// covers the window where a reload retires the handle between the pointer
// read and the Acquire.
func (s *Server) acquire() (*loadedView, error) {
	for i := 0; i < 1000; i++ {
		lv := s.cur.Load()
		if lv == nil {
			return nil, errors.New("serve: no view loaded")
		}
		if lv.handle.Acquire() {
			return lv, nil
		}
	}
	return nil, errors.New("serve: could not pin a view generation")
}

// buildQuery assembles the canonical query.Query for one request:
// original-id targets translated to dense nodes, defaults applied by
// Query.Canonical, and the result validated through the shared
// Query.Validate — the serving layer's only rule of its own is the wire
// one that an omitted seed means 1 (Query treats seed 0 as a real seed).
// topk requests carry no targets: the empty canonical target set IS the
// whole-network query, and Query.Key distinguishes it from any explicit
// set.
func (s *Server) buildQuery(lv *loadedView, method string, targets []int64, eps, delta float64, k int, seed int64, topk bool) (query.Query, error) {
	m, err := measureOf(method)
	if err != nil {
		return query.Query{}, err
	}
	if seed == 0 {
		seed = 1
	}
	q := query.Query{Measure: m, K: k, Epsilon: eps, Delta: delta, Seed: seed}
	if !topk {
		if len(targets) == 0 {
			return q, params.Errorf("targets", "empty target set")
		}
		dense := make([]graph.Node, len(targets))
		for i, raw := range targets {
			v, ok := lv.dense(raw)
			if !ok {
				return q, params.Errorf("targets", "node %d not present in the served view", raw)
			}
			dense[i] = v
		}
		q.Targets = dense
	}
	q = q.Canonical()
	if err := q.Validate(lv.g.NumNodes()); err != nil {
		return q, err
	}
	return q, nil
}

// queryCost estimates the compute mass of q for admission classing: the
// sample-space footprint of the target set (Σ degree + |T|; the whole graph
// for an empty set) scaled by the quadratic sample-count dependence on
// epsilon, the same cost-model idiom sched.Bounds applies to chunks. The
// estimate only needs to be monotone enough to separate "tiny" from
// "expensive" — it never reaches a result bit.
func queryCost(lv *loadedView, q query.Query) float64 {
	var mass float64
	if len(q.Targets) == 0 {
		mass = float64(2*lv.g.NumEdges() + int64(lv.g.NumNodes()))
	} else {
		for _, t := range q.Targets {
			mass += float64(lv.g.Degree(t))
		}
		mass += float64(len(q.Targets))
	}
	eps := q.Epsilon
	if eps <= 0 {
		eps = 0.05
	}
	r := 0.05 / eps
	return mass * r * r
}

// lookup runs q through the cache, computing on a miss under admission
// control and the worker budget. The computation runs on a detached flight
// goroutine holding its own view pin (handle.Share), so it may outlive this
// request — ctx abandoning the flight never leaves the engines on unmapped
// pages. Tiny queries (queryCost at most FastLaneCost) are admitted through
// the fast lane when it has a free slot.
func (s *Server) lookup(ctx context.Context, lv *loadedView, q query.Query) (*payload, bool, error) {
	cost := queryCost(lv, q)
	if h := s.m.costFor(q.Measure); h != nil {
		h.ObserveN(int64(cost))
	}
	tiny := cost <= s.cfg.FastLaneCost
	ctx, cacheSpan := obs.StartSpan(ctx, "cache")
	ck := cacheKey{gen: lv.gen(), key: q.Key()}
	// The extra reference is donated to the (possible) flight; if this call
	// does not end up leading one, it is returned below.
	lv.handle.Share()
	p, led, err := s.cache.do(ctx, ck, func(fctx context.Context) (*payload, error) {
		defer lv.handle.Release() // the flight owns the donated reference
		fctx, flightSpan := obs.StartSpan(fctx, "flight")
		defer flightSpan.End()
		// Peer fill runs before admission: adopting a peer's cached bytes
		// needs no compute slot, and because it runs inside the flight a
		// cold key costs at most one peer round-trip no matter how many
		// requests collapse onto it. The adopted payload is cached exactly
		// as a computed one would be (cache.run inserts on success).
		if s.cfg.PeerFill != nil {
			fillSpan := obs.StartLeaf(fctx, "peerfill")
			resp, ok := s.cfg.PeerFill(fctx, ck.gen, ck.key)
			p, err := adoptPeerResponse(resp, ok, ck.gen)
			if fillSpan != nil {
				if p != nil {
					fillSpan.SetNote("hit")
				}
				fillSpan.End()
			}
			if err != nil {
				s.m.peerFillRejected.Inc()
			} else if p != nil {
				s.m.peerFillHits.Inc()
				return p, nil
			} else {
				s.m.peerFillMisses.Inc()
			}
		}
		admSpan := obs.StartLeaf(fctx, "admission")
		enterStart := time.Now()
		release, fast, err := s.adm.enter(fctx, tiny)
		s.m.queueWait.Observe(time.Since(enterStart))
		if admSpan != nil {
			if fast {
				admSpan.SetNote("fastlane")
			}
			admSpan.End()
		}
		if err != nil {
			return nil, err
		}
		defer release()
		// A fast-lane computation runs with one guaranteed worker instead of
		// waiting on the shared budget: with every shared slot busy the pool
		// is typically drained too, and a reserved admission slot that then
		// parks on Budget.Acquire would bound nothing. Tiny queries lose no
		// meaningful parallelism, and the worker count never reaches the
		// bits, so the lane's result is identical either way.
		granted := 1
		if !fast {
			granted = s.budget.AcquireCtx(fctx, 0)
			defer s.budget.Release(granted)
		}
		start := time.Now()
		cctx, computeSpan := obs.StartSpan(fctx, "compute")
		p, err := s.compute(cctx, lv, q, granted)
		computeSpan.End()
		if err == nil {
			d := time.Since(start)
			s.observeCompute(d)
			s.m.computeSeconds.Observe(d)
		}
		return p, err
	})
	if cacheSpan != nil {
		switch {
		case err != nil:
			cacheSpan.SetNote("error")
		case led:
			cacheSpan.SetNote("miss")
		default:
			cacheSpan.SetNote("hit")
		}
		cacheSpan.End()
	}
	if !led {
		lv.handle.Release()
	}
	return p, led, err
}

// adoptPeerResponse validates a peer's cache entry before this server
// adopts it as its own: the generation must be the one this flight is
// computing for (a peer mid-rollout may serve another generation; adopting
// it would poison the (gen, key) line), and the ranking arrays must be
// aligned and non-empty. ok=false (a clean peer miss) returns (nil, nil);
// a malformed or wrong-generation response returns an error so the caller
// can count it — either way the flight falls through to the local engines.
func adoptPeerResponse(resp *RankResponse, ok bool, gen uint64) (*payload, error) {
	if !ok || resp == nil {
		return nil, nil
	}
	if resp.Generation != gen {
		return nil, fmt.Errorf("serve: peer fill generation %d, want %d", resp.Generation, gen)
	}
	n := len(resp.Nodes)
	if n == 0 || len(resp.Scores) != n || len(resp.Ranks) != n || resp.Samples < 0 {
		return nil, fmt.Errorf("serve: peer fill arrays misaligned (%d nodes, %d scores, %d ranks)",
			n, len(resp.Scores), len(resp.Ranks))
	}
	return &payload{
		nodes:   resp.Nodes,
		scores:  resp.Scores,
		ranks:   resp.Ranks,
		samples: resp.Samples,
		adopted: true,
	}, nil
}

// observeCompute folds one successful compute duration into the EWMA behind
// the Retry-After derivation. Alpha 1/8: a few requests move it, one outlier
// does not.
func (s *Server) observeCompute(d time.Duration) {
	sec := d.Seconds()
	for {
		old := s.computeEWMA.Load()
		cur := math.Float64frombits(old)
		next := sec
		if old != 0 {
			next = cur + (sec-cur)/8
		}
		if s.computeEWMA.CompareAndSwap(old, math.Float64bits(next)) {
			return
		}
	}
}

// retryAfterSeconds derives the 429 Retry-After hint from live state: the
// backlog ahead of a new arrival (queued plus running computations) times
// the mean compute time, spread over the compute slots — an estimate of when
// the queue will have drained enough to admit it. Clamped to [1, 60] so a
// cold EWMA still backs clients off and a deep queue cannot park them for
// minutes.
func (s *Server) retryAfterSeconds() int {
	ewma := math.Float64frombits(s.computeEWMA.Load())
	backlog := float64(s.adm.waitingNow() + int64(s.adm.inFlight()))
	sec := int(math.Ceil(ewma * backlog / float64(s.cfg.MaxInFlight)))
	if sec < 1 {
		sec = 1
	}
	if sec > 60 {
		sec = 60
	}
	return sec
}

// compute runs the engines for q with the granted worker count. The worker
// count affects latency only, never bits (DESIGN.md section 3), so the
// grant does not appear in the cache key.
func (s *Server) compute(ctx context.Context, lv *loadedView, q query.Query, workers int) (*payload, error) {
	// Chaos hooks: serve.compute covers every computation (slow/panic/fail);
	// serve.compute.full fires only for whole-network jobs, so the fault
	// harness can saturate the shared pool without touching the fast lane.
	if err := faultinject.Fire("serve.compute"); err != nil {
		return nil, err
	}
	if len(q.Targets) == 0 {
		if err := faultinject.Fire("serve.compute.full"); err != nil {
			return nil, err
		}
	}
	q.Workers = workers
	res, err := lv.ranker.Rank(ctx, q)
	if err != nil {
		return nil, err
	}
	p := &payload{
		nodes:   make([]int64, len(res.Nodes)),
		scores:  res.Scores,
		ranks:   res.Rank,
		samples: res.Samples,
	}
	for i, v := range res.Nodes {
		p.nodes[i] = lv.original(v)
	}
	if len(q.Targets) == 0 {
		// Whole-network query backing the top-k index: store rank-ordered.
		return sortByRank(p), nil
	}
	return p, nil
}

// sortByRank reorders a full-network payload by rank (1 = most central), so
// /v1/topk responses are prefix slices. rank.Ranks returns a permutation of
// 1..k (ties broken by node id), so entry i lands at position ranks[i]-1
// and no sort is needed.
func sortByRank(p *payload) *payload {
	k := len(p.ranks)
	out := &payload{
		nodes:   make([]int64, k),
		scores:  make([]float64, k),
		ranks:   make([]int, k),
		samples: p.samples,
	}
	for i, r := range p.ranks {
		out.nodes[r-1] = p.nodes[i]
		out.scores[r-1] = p.scores[i]
		out.ranks[r-1] = r
	}
	return out
}

// precomputeTopK warms the full-network ranking of every method with the
// configured default options, so the first /v1/topk of a fresh generation
// is already a cache hit. The three methods warm concurrently — admission
// control and the worker budget arbitrate the slots exactly as they do for
// requests (a reload-time warmup competes with live traffic), and the
// warmup — the most expensive queries the server runs — takes the time of
// the slowest method, not the sum. Warmups carry no deadline (they are an
// investment, not a request); failures are non-fatal: the index is then
// built lazily.
func (s *Server) precomputeTopK(lv *loadedView) {
	var wg sync.WaitGroup
	for _, m := range methods {
		q, err := s.buildQuery(lv, m, nil, 0, 0, 0, 0, true)
		if err != nil {
			continue
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			s.lookup(context.Background(), lv, q)
		}()
	}
	wg.Wait()
}

// ---- HTTP layer ----

// RankRequest is the body of POST /v1/rank. Targets are original node ids
// (the id space of the edge list the view was built from). Zero-valued
// fields take Query.Canonical's defaults (eps 0.05, delta 0.01, k-path
// walk length 3). A compute deadline can be tightened per request with
// the Timeout-Ms header (it never extends the server default); on expiry
// the response is 504 and the computation is canceled once no other
// request waits on it.
type RankRequest struct {
	Method  string  `json:"method"`
	Targets []int64 `json:"targets"`
	Eps     float64 `json:"eps,omitempty"`
	Delta   float64 `json:"delta,omitempty"`
	K       int     `json:"k,omitempty"`
	// Seed 0 (omitted) means seed 1; send a nonzero seed for any other.
	Seed int64 `json:"seed,omitempty"`
}

// RankResponse is the body of POST /v1/rank and GET /v1/topk responses.
// Nodes/Scores/Ranks are aligned; for /v1/topk they arrive ordered by rank.
// Generation identifies the view the scores were computed on; Cached
// reports whether the result was served without computing (LRU hit or
// collapsed onto a concurrent identical request).
type RankResponse struct {
	Generation uint64    `json:"generation"`
	Method     string    `json:"method"`
	Eps        float64   `json:"eps"`
	Delta      float64   `json:"delta"`
	K          int       `json:"k,omitempty"`
	Seed       int64     `json:"seed"`
	Cached     bool      `json:"cached"`
	Samples    int64     `json:"samples"`
	Nodes      []int64   `json:"nodes"`
	Scores     []float64 `json:"scores"`
	Ranks      []int     `json:"ranks"`

	// Degraded marks a response served through the degradation ladder
	// (Degrade-Ms opt-in) instead of the request's exact contract: either a
	// coarsened-eps recompute — Eps then reports the achieved epsilon, not
	// the requested one — or a prior-generation cache hit, with Generation
	// reporting the generation actually served. A degraded result is still
	// bitwise-deterministic for its own (generation, eps) contract.
	Degraded bool `json:"degraded,omitempty"`

	// Trace is the request's span tree, present only when the client asked
	// for it (?trace=1 or a Trace-Id header). Purely observational — the
	// ranking fields are bitwise-identical with and without it.
	Trace *obs.TraceJSON `json:"trace,omitempty"`
}

// maxRankBody bounds a /v1/rank request body (16 MiB ≈ several hundred
// thousand JSON-encoded targets): the body is decoded before any
// validation, so without a cap one request could allocate without bound.
const maxRankBody = 16 << 20

// requestCtx derives the compute context for one request: the HTTP request
// context (canceled on client disconnect) plus the deadline from the
// Timeout-Ms header and the server default. The header may only *tighten*
// the operator's bound — with a DefaultTimeout configured, the effective
// deadline is min(header, default), so a client cannot pin compute slots
// past the operator's limit; without one, the header alone applies. Values
// large enough to overflow the nanosecond representation are clamped, not
// wrapped. The returned cancel must always be called.
func (s *Server) requestCtx(r *http.Request) (context.Context, context.CancelFunc, error) {
	d := s.cfg.DefaultTimeout
	if faultinject.Fire("serve.request.expire") != nil {
		// Chaos hook: the request arrives effectively pre-expired, the
		// shape of a deadline firing between admission and compute.
		d = time.Nanosecond
	}
	if h := r.Header.Get("Timeout-Ms"); h != "" {
		ms, err := strconv.ParseInt(h, 10, 64)
		if err != nil || ms <= 0 {
			return nil, nil, params.Errorf("Timeout-Ms", "must be a positive integer, got %q", h)
		}
		hd := time.Duration(math.MaxInt64) // effectively unbounded
		if ms <= int64(hd/time.Millisecond) {
			hd = time.Duration(ms) * time.Millisecond
		}
		if d == 0 || hd < d {
			d = hd
		}
	}
	if d > 0 {
		ctx, cancel := context.WithTimeout(r.Context(), d)
		return ctx, cancel, nil
	}
	ctx, cancel := context.WithCancel(r.Context())
	return ctx, cancel, nil
}

// clientID identifies the requester for quota accounting: the Client-Id
// header, or the shared anonymous bucket when absent.
func clientID(r *http.Request) string {
	if id := r.Header.Get("Client-Id"); id != "" {
		return id
	}
	return "anonymous"
}

// checkQuota spends one token from the requester's bucket, writing the 429
// (with the exact token-refill Retry-After) itself when the bucket is
// drained. Reports whether the request may proceed.
func (s *Server) checkQuota(w http.ResponseWriter, r *http.Request) bool {
	ok, wait := s.quota.take(clientID(r))
	if ok {
		return true
	}
	s.m.quotaDenied.Inc()
	secs := int(math.Ceil(wait.Seconds()))
	if secs < 1 {
		secs = 1
	}
	w.Header().Set("Retry-After", strconv.Itoa(secs))
	writeJSON(w, http.StatusTooManyRequests, map[string]any{
		"error": fmt.Sprintf("serve: quota exhausted for client %q", clientID(r)),
	})
	return false
}

func (s *Server) handleRank(w http.ResponseWriter, r *http.Request) {
	s.m.ranks.Inc()
	s.serveTimed(w, r, "rank", s.rankRequest)
}

// rankRequest is the POST /v1/rank body handler, returning the request's
// outcome label for the per-outcome latency histogram.
func (s *Server) rankRequest(w http.ResponseWriter, r *http.Request, st *reqState) string {
	var req RankRequest
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxRankBody)).Decode(&req); err != nil {
		return s.fail(w, params.Errorf("body", "bad JSON: %v", err))
	}
	st.method = req.Method
	if !s.quotaSpanned(w, r) {
		return outcomeQuota
	}
	ctx, cancel, err := s.requestCtx(r)
	if err != nil {
		return s.fail(w, err)
	}
	defer cancel()
	lv, err := s.acquire()
	if err != nil {
		return s.fail(w, err)
	}
	defer lv.handle.Release()
	st.gen = lv.gen()
	q, err := s.buildQuery(lv, req.Method, req.Targets, req.Eps, req.Delta, req.K, req.Seed, false)
	if err != nil {
		return s.fail(w, err)
	}
	st.key, st.hasKey = q.Key(), true
	p, led, err := s.lookup(ctx, lv, q)
	if err != nil {
		if resp := s.tryDegrade(r, lv, req.Method, q, err); resp != nil {
			st.attachTrace(resp)
			writeJSON(w, http.StatusOK, resp)
			return outcomeDegraded
		}
		return s.fail(w, err)
	}
	resp := rankResponse(lv.gen(), req.Method, q, p, !led)
	st.attachTrace(resp)
	writeJSON(w, http.StatusOK, resp)
	return outcomeOK
}

// quotaSpanned is checkQuota under a "quota" span.
func (s *Server) quotaSpanned(w http.ResponseWriter, r *http.Request) bool {
	sp := obs.StartLeaf(r.Context(), "quota")
	ok := s.checkQuota(w, r)
	if sp != nil {
		if !ok {
			sp.SetNote("denied")
		}
		sp.End()
	}
	return ok
}

// degradable reports whether an error is the kind the degradation ladder
// rescues: shed load and expired deadlines. A vanished client (bare
// context.Canceled) gets nothing — nobody is listening.
func degradable(err error) bool {
	if errors.Is(err, errOverloaded) || errors.Is(err, context.DeadlineExceeded) {
		return true
	}
	return false
}

// degradeBudget returns the request's degradation opt-in: the Degrade-Ms
// header when present and valid, the operator's DefaultDegradeMs policy
// otherwise. Zero means no opt-in.
func (s *Server) degradeBudget(r *http.Request) time.Duration {
	if h := r.Header.Get("Degrade-Ms"); h != "" {
		ms, err := strconv.ParseInt(h, 10, 64)
		if err != nil || ms <= 0 {
			return 0
		}
		return time.Duration(ms) * time.Millisecond
	}
	return time.Duration(s.cfg.DefaultDegradeMs) * time.Millisecond
}

// tryDegrade walks the degradation ladder for a request whose exact answer
// failed with a degradable error. Rungs, cheapest first:
//
//  1. stale — the same query key answered by the last retired generation,
//     free (no admission, no compute);
//  2. coarse — a recompute at min(eps*DegradeEpsFactor, DegradeMaxEps)
//     under the Degrade-Ms budget. The coarsened query is a DIFFERENT query
//     with its own Query.Key: it lands in (and may be served from) its own
//     cache line, so the bitwise-determinism contract is untouched — no key
//     ever maps to two payloads.
//
// Returns nil when the ladder has nothing to offer; the caller then fails
// with the original error.
func (s *Server) tryDegrade(r *http.Request, lv *loadedView, method string, q query.Query, cause error) *RankResponse {
	if !degradable(cause) {
		return nil
	}
	budget := s.degradeBudget(r)
	if budget <= 0 {
		return nil
	}
	if !s.cfg.DisableStale {
		staleSpan := obs.StartLeaf(r.Context(), "degrade.stale")
		gen, p, ok := s.cache.staleGet(q.Key())
		staleSpan.End()
		if ok {
			s.m.staleServed.Inc()
			resp := rankResponse(gen, method, q, p, true)
			resp.Degraded = true
			return resp
		}
	}
	ceps := math.Min(q.Epsilon*s.cfg.DegradeEpsFactor, s.cfg.DegradeMaxEps)
	if ceps <= q.Epsilon {
		return nil // already coarser than the ladder's floor
	}
	cq := q
	cq.Epsilon = ceps
	cq = cq.Canonical()
	// The degraded attempt runs under its own deadline derived from the
	// live connection — the original request context has typically already
	// expired.
	dctx, cancel := context.WithTimeout(r.Context(), budget)
	defer cancel()
	dctx, coarseSpan := obs.StartSpan(dctx, "degrade.coarse")
	p, led, err := s.lookup(dctx, lv, cq)
	coarseSpan.End()
	if err != nil {
		return nil
	}
	s.m.degraded.Inc()
	resp := rankResponse(lv.gen(), method, cq, p, !led)
	resp.Degraded = true
	return resp
}

func (s *Server) handleTopK(w http.ResponseWriter, r *http.Request) {
	s.m.topks.Inc()
	s.serveTimed(w, r, "topk", s.topkRequest)
}

// topkRequest is the GET /v1/topk handler, returning the outcome label.
func (s *Server) topkRequest(w http.ResponseWriter, r *http.Request, st *reqState) string {
	if !s.quotaSpanned(w, r) {
		return outcomeQuota
	}
	qs := r.URL.Query()
	k, err := queryInt(qs.Get("k"), 10)
	if err != nil {
		return s.fail(w, params.Errorf("k", "%v", err))
	}
	if k < 1 {
		return s.fail(w, params.Errorf("k", "must be >= 1, got %d", k))
	}
	eps, err1 := queryFloat(qs.Get("eps"))
	delta, err2 := queryFloat(qs.Get("delta"))
	seed, err3 := queryInt64(qs.Get("seed"))
	walkK, err4 := queryInt(qs.Get("walk_k"), 0)
	if err := errors.Join(err1, err2, err3, err4); err != nil {
		return s.fail(w, params.Errorf("query", "%v", err))
	}
	ctx, cancel, err := s.requestCtx(r)
	if err != nil {
		return s.fail(w, err)
	}
	defer cancel()
	lv, err := s.acquire()
	if err != nil {
		return s.fail(w, err)
	}
	defer lv.handle.Release()
	st.gen = lv.gen()
	method := qs.Get("method")
	if method == "" {
		method = MethodSaPHyRa
	}
	st.method = method
	q, err := s.buildQuery(lv, method, nil, eps, delta, walkK, seed, true)
	if err != nil {
		return s.fail(w, err)
	}
	st.key, st.hasKey = q.Key(), true
	p, led, err := s.lookup(ctx, lv, q)
	if err != nil {
		if resp := s.tryDegrade(r, lv, method, q, err); resp != nil {
			if k < len(resp.Nodes) {
				resp.Nodes, resp.Scores, resp.Ranks = resp.Nodes[:k], resp.Scores[:k], resp.Ranks[:k]
			}
			st.attachTrace(resp)
			writeJSON(w, http.StatusOK, resp)
			return outcomeDegraded
		}
		return s.fail(w, err)
	}
	if k > len(p.nodes) {
		k = len(p.nodes)
	}
	top := &payload{nodes: p.nodes[:k], scores: p.scores[:k], ranks: p.ranks[:k], samples: p.samples}
	resp := rankResponse(lv.gen(), method, q, top, !led)
	st.attachTrace(resp)
	writeJSON(w, http.StatusOK, resp)
	return outcomeOK
}

func rankResponse(gen uint64, method string, q query.Query, p *payload, cached bool) *RankResponse {
	// A payload adopted from a peer's cache was served, not computed, even
	// when this request led the flight — clients (and hit-rate accounting)
	// see a cache answer either way.
	cached = cached || p.adopted
	return &RankResponse{
		Generation: gen,
		Method:     method,
		Eps:        q.Epsilon,
		Delta:      q.Delta,
		K:          q.K,
		Seed:       q.Seed,
		Cached:     cached,
		Samples:    p.samples,
		Nodes:      p.nodes,
		Scores:     p.scores,
		Ranks:      p.ranks,
	}
}

// handleHealthz is LIVENESS: 200 from the moment the mux answers, no
// matter what is (or is not) loaded — a router restarts a live-but-stuck
// process on /healthz, it routes traffic on /readyz. The split matters
// during startup and botched reloads: a process relinking its view must
// not be killed for being temporarily unservable.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	resp := map[string]any{"status": "ok"}
	if lv := s.cur.Load(); lv != nil {
		resp["generation"] = lv.gen()
	}
	writeJSON(w, http.StatusOK, resp)
}

// ReadyzResponse is the GET /readyz body. Generation is the view the
// replica currently serves — the rollout driver gates each step on it.
type ReadyzResponse struct {
	Status     string `json:"status"`
	Generation uint64 `json:"generation,omitempty"`
}

// handleReadyz is READINESS: 503 until a view generation is loaded and
// servable. A failed reload keeps readiness green — the old generation
// still answers every query (Reload swaps only on success).
func (s *Server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	lv := s.cur.Load()
	if lv == nil {
		writeJSON(w, http.StatusServiceUnavailable, &ReadyzResponse{Status: "loading"})
		return
	}
	writeJSON(w, http.StatusOK, &ReadyzResponse{Status: "ready", Generation: lv.gen()})
}

// handleStatusz renders the registry's counters and gauges as one JSON
// object, keyed as their /metricsz sample lines.
func (s *Server) handleStatusz(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.m.reg.Snapshot())
}

// handleMetricsz renders the registry in the Prometheus text exposition
// format: the counter and gauge families, and the latency / cost
// histograms with `_bucket` series plus companion quantile gauges.
func (s *Server) handleMetricsz(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	w.WriteHeader(http.StatusOK)
	s.m.reg.WritePrometheus(w)
}

// Registry exposes the server's metrics registry (for embedding servers
// that surface their own /metricsz, and for the exposition tests).
func (s *Server) Registry() *obs.Registry { return s.m.reg }

// ReloadResponse is the POST /admin/reload body. Generation reports the
// generation now serving: the NEW one on success, the RETAINED one on
// failure (a failed reload never unseats the current view). The rollout
// driver (internal/cluster) gates each step of a rolling reload on the
// success generation instead of polling /statusz.
type ReloadResponse struct {
	Status     string `json:"status"`
	Generation uint64 `json:"generation"`
	Error      string `json:"error,omitempty"`
}

func (s *Server) handleReload(w http.ResponseWriter, r *http.Request) {
	gen, err := s.Reload()
	if err != nil {
		s.m.internalErrors.Inc()
		writeJSON(w, http.StatusInternalServerError, &ReloadResponse{
			Status: "failed", Generation: gen, Error: err.Error(),
		})
		return
	}
	writeJSON(w, http.StatusOK, &ReloadResponse{Status: "reloaded", Generation: gen})
}

// handleInternalCache is GET /internal/cache?gen=&key=: the peer side of
// the cluster cache-fill tier. It answers purely from the local LRU
// (cache.peek — no flight join, no computation, no recency or counter
// side effects), 404 on a miss, so a probing peer can fall through to its
// own engines immediately. The body is the canonical RankResponse
// envelope; only the ranking payload fields are populated — the requester
// knows its own method and options, and validates generation and shape
// before adopting (adoptPeerResponse).
func (s *Server) handleInternalCache(w http.ResponseWriter, r *http.Request) {
	qs := r.URL.Query()
	gen, err := strconv.ParseUint(qs.Get("gen"), 10, 64)
	if err != nil {
		s.m.badRequests.Inc()
		writeJSON(w, http.StatusBadRequest, map[string]any{"error": "gen: must be a uint64"})
		return
	}
	raw, err := hex.DecodeString(qs.Get("key"))
	if err != nil || len(raw) != sha256.Size {
		s.m.badRequests.Inc()
		writeJSON(w, http.StatusBadRequest, map[string]any{
			"error": fmt.Sprintf("key: want %d hex chars", 2*sha256.Size),
		})
		return
	}
	ck := cacheKey{gen: gen}
	copy(ck.key[:], raw)
	p, ok := s.cache.peek(ck)
	if !ok {
		s.m.internalCacheMisses.Inc()
		writeJSON(w, http.StatusNotFound, map[string]any{"error": "serve: not cached"})
		return
	}
	s.m.internalCacheHits.Inc()
	writeJSON(w, http.StatusOK, &RankResponse{
		Generation: gen,
		Cached:     true,
		Samples:    p.samples,
		Nodes:      p.nodes,
		Scores:     p.scores,
		Ranks:      p.ranks,
	})
}

// StatusClientClosedRequest is the nginx-convention status for a request
// abandoned by its client before the response was ready (context canceled
// without a deadline). There is no standard constant; 499 is the de facto
// one.
const StatusClientClosedRequest = 499

// fail classifies err and writes the matching status: typed parameter
// errors are the caller's fault (400), shed load is 429 with a Retry-After
// hint, a deadline expiry is 504, a client disconnect 499, anything else a
// 500. Returns the outcome label for the per-outcome latency histogram.
func (s *Server) fail(w http.ResponseWriter, err error) string {
	switch {
	case params.IsBadInput(err):
		s.m.badRequests.Inc()
		writeJSON(w, http.StatusBadRequest, map[string]any{"error": err.Error()})
		return outcomeBadRequest
	case errors.Is(err, errOverloaded):
		s.m.shed.Inc()
		// The hint is derived from live queue depth and the compute-time
		// EWMA — an estimate of when the backlog will have drained — not a
		// constant: under light overload clients come back quickly, under a
		// deep queue they stay away proportionally longer.
		w.Header().Set("Retry-After", strconv.Itoa(s.retryAfterSeconds()))
		writeJSON(w, http.StatusTooManyRequests, map[string]any{"error": err.Error()})
		return outcomeShed
	case params.IsCanceled(err), errors.Is(err, context.Canceled), errors.Is(err, context.DeadlineExceeded):
		if errors.Is(err, context.DeadlineExceeded) {
			s.m.deadlines.Inc()
			writeJSON(w, http.StatusGatewayTimeout, map[string]any{"error": err.Error()})
			return outcomeDeadline
		}
		s.m.canceled.Inc()
		writeJSON(w, StatusClientClosedRequest, map[string]any{"error": err.Error()})
		return outcomeClientClosed
	default:
		s.m.internalErrors.Inc()
		writeJSON(w, http.StatusInternalServerError, map[string]any{"error": err.Error()})
		return outcomeInternal
	}
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(v)
}

func queryInt(s string, def int) (int, error) {
	if s == "" {
		return def, nil
	}
	return strconv.Atoi(s)
}

func queryInt64(s string) (int64, error) {
	if s == "" {
		return 0, nil
	}
	return strconv.ParseInt(s, 10, 64)
}

func queryFloat(s string) (float64, error) {
	if s == "" {
		return 0, nil
	}
	return strconv.ParseFloat(s, 64)
}

// ---- admission control ----

var errOverloaded = errors.New("serve: overloaded, try again later")

// admission bounds concurrently running computations with a bounded wait
// queue plus a reserved fast lane: slots hold the shared run capacity,
// fast holds slots only tiny queries may take, waiting counts computations
// blocked on a shared slot, and arrivals beyond maxWait are shed immediately
// — the queue never grows without bound, so p99 under overload stays the
// service time of the queue, not of the backlog.
//
// The lanes are asymmetric by design: a tiny query tries the fast lane
// first and falls back to the shared pool (it is never worse off than
// before the lane existed), while an expensive query never touches the fast
// lane — the reservation is what bounds tiny-query latency when
// full-network jobs saturate the shared pool.
type admission struct {
	slots    chan struct{}
	fast     chan struct{} // nil when the lane is disabled
	waiting  atomic.Int64
	maxWait  int64
	fastHits atomic.Int64
}

func newAdmission(inFlight, maxWait, fastSlots int) *admission {
	a := &admission{slots: make(chan struct{}, inFlight), maxWait: int64(maxWait)}
	for i := 0; i < inFlight; i++ {
		a.slots <- struct{}{}
	}
	if fastSlots > 0 {
		a.fast = make(chan struct{}, fastSlots)
		for i := 0; i < fastSlots; i++ {
			a.fast <- struct{}{}
		}
	}
	return a
}

// enter blocks for a compute slot until ctx is done, returning the release
// for the slot it took and whether the grant came from the fast lane: a
// canceled flight leaves the wait queue immediately (freeing its queue
// position), so deadline-exceeded requests never hold admission state for
// work that will not run. The release closes over the lane, so a fast-lane
// grant can never be returned to the shared pool or vice versa.
func (a *admission) enter(ctx context.Context, tiny bool) (release func(), fast bool, err error) {
	if tiny && a.fast != nil {
		select {
		case <-a.fast:
			a.fastHits.Add(1)
			return func() { a.fast <- struct{}{} }, true, nil
		default: // fast lane busy: fall through to the shared pool
		}
	}
	releaseShared := func() { a.slots <- struct{}{} }
	select {
	case <-a.slots:
		return releaseShared, false, nil
	default:
	}
	if a.waiting.Add(1) > a.maxWait {
		a.waiting.Add(-1)
		return nil, false, errOverloaded
	}
	defer a.waiting.Add(-1)
	select {
	case <-a.slots:
		return releaseShared, false, nil
	case <-ctx.Done():
		return nil, false, &params.CanceledError{Cause: context.Cause(ctx)}
	}
}

func (a *admission) inFlight() int {
	n := cap(a.slots) - len(a.slots)
	if a.fast != nil {
		n += cap(a.fast) - len(a.fast)
	}
	return n
}
func (a *admission) waitingNow() int64 { return a.waiting.Load() }
func (a *admission) fastAdmits() int64 { return a.fastHits.Load() }
