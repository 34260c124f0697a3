package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"slices"
	"time"

	"saphyra/internal/obs"
	"saphyra/internal/serve"
)

// maxRelayBody bounds a request or response body the router holds in
// memory (it must buffer request bodies to re-send them on a hop retry).
// Matches the serving layer's own /v1/rank body cap.
const maxRelayBody = 16 << 20

// RouterConfig tunes a Router. Replicas is the only required field.
type RouterConfig struct {
	// Replicas is the ordered base-URL list of the fleet ("http://host:port").
	// Order matters: every fleet member must be handed the same list, in the
	// same order, for ring agreement.
	Replicas []string
	// VNodes per replica on the ring. Default DefaultVNodes.
	VNodes int
	// HopBudget bounds replicas tried per request (the home plus retries on
	// connect failure / 5xx). Default 3, clamped to the fleet size.
	HopBudget int
	// Client issues the proxied requests and probes. Default: a dedicated
	// client with no overall timeout (request deadlines ride in on the
	// proxied context; a router-side cap would race the replicas' own
	// Timeout-Ms handling).
	Client *http.Client
	// ProbeInterval spaces the active /readyz probe loop. Zero means
	// DefaultProbeInterval; negative disables active probing (passive
	// health from forwarded traffic still applies — used by tests that
	// want deterministic health transitions).
	ProbeInterval time.Duration
	// ProbeTimeout bounds one probe. Default 1s.
	ProbeTimeout time.Duration
}

// DefaultProbeInterval spaces active health probes.
const DefaultProbeInterval = 500 * time.Millisecond

// Router is the fleet front-end: it consistent-hashes each query onto the
// replica ring and proxies /v1/rank and /v1/topk with policy headers
// intact, retrying on the next ring owner on connect failure or 5xx within
// a per-request hop budget. Placement is affinity, not correctness — any
// replica computes any query bitwise-identically — so the router parses
// only enough of each request to hash its result-relevant wire fields; the
// canonical Query.Key (which needs the view) stays a replica concern, and
// the peer-fill tier using it guarantees single-compute even when the
// router's placement and the replicas' ring disagree about a key's home.
//
// The router carries no view, no cache, and no per-key state: it can be
// restarted, or run N-way redundant, with no effect on results.
type Router struct {
	cfg    RouterConfig
	ring   *Ring
	health []*healthState
	client *http.Client
	mux    *http.ServeMux
	reg    *obs.Registry
	m      routerMetrics

	probeStop  context.CancelFunc
	probeDone  chan struct{}
	reloadGate chan struct{} // capacity 1: serializes rolling reloads
}

type routerMetrics struct {
	forwarded  []*obs.Counter          // per replica: requests answered by it
	connectErr []*obs.Counter          // per replica: transport failures
	upstream5  []*obs.Counter          // per replica: 5xx hopped past
	exhausted  *obs.Counter            // requests that ran out of hops
	hops       *obs.Hist               // replicas tried per answered request
	relayed    map[string]*obs.Counter // per endpoint
}

// NewRouter validates the config, builds the ring, and starts the active
// probe loop. Close stops the loop.
func NewRouter(cfg RouterConfig) (*Router, error) {
	ring, err := NewRing(cfg.Replicas, cfg.VNodes)
	if err != nil {
		return nil, err
	}
	if cfg.HopBudget <= 0 {
		cfg.HopBudget = 3
	}
	if cfg.HopBudget > len(cfg.Replicas) {
		cfg.HopBudget = len(cfg.Replicas)
	}
	if cfg.Client == nil {
		cfg.Client = &http.Client{}
	}
	if cfg.ProbeInterval == 0 {
		cfg.ProbeInterval = DefaultProbeInterval
	}
	if cfg.ProbeTimeout <= 0 {
		cfg.ProbeTimeout = time.Second
	}
	rt := &Router{
		cfg:        cfg,
		ring:       ring,
		health:     make([]*healthState, len(cfg.Replicas)),
		client:     cfg.Client,
		reg:        obs.NewRegistry(),
		reloadGate: make(chan struct{}, 1),
	}
	rt.m.forwarded = make([]*obs.Counter, len(cfg.Replicas))
	rt.m.connectErr = make([]*obs.Counter, len(cfg.Replicas))
	rt.m.upstream5 = make([]*obs.Counter, len(cfg.Replicas))
	for i, url := range cfg.Replicas {
		rt.health[i] = newHealthState()
		lbl := obs.Label("replica", url)
		const routeHelp = "Hops taken by the router, by replica and outcome."
		rt.m.forwarded[i] = rt.reg.Counter("saphyra_router_route_total", routeHelp, lbl+`,outcome="forwarded"`)
		rt.m.connectErr[i] = rt.reg.Counter("saphyra_router_route_total", routeHelp, lbl+`,outcome="connect_error"`)
		rt.m.upstream5[i] = rt.reg.Counter("saphyra_router_route_total", routeHelp, lbl+`,outcome="upstream_5xx"`)
		h := rt.health[i]
		rt.reg.GaugeFunc("saphyra_router_replica_health", "Passive health EWMA per replica (1 = healthy).", lbl,
			func() float64 { return h.score() })
	}
	rt.m.exhausted = rt.reg.Counter("saphyra_router_exhausted_total",
		"Requests that failed every replica within the hop budget.", "")
	rt.m.hops = rt.reg.Histogram("saphyra_router_hops",
		"Replicas tried per proxied request.", "", obs.UnitCount)
	rt.m.relayed = map[string]*obs.Counter{}
	for _, ep := range []string{"rank", "topk"} {
		rt.m.relayed[ep] = rt.reg.Counter("saphyra_router_requests_total",
			"Requests received by the router, by endpoint.", `endpoint="`+ep+`"`)
	}

	rt.mux = http.NewServeMux()
	rt.mux.HandleFunc("POST /v1/rank", rt.handleRank)
	rt.mux.HandleFunc("GET /v1/topk", rt.handleTopK)
	rt.mux.HandleFunc("GET /healthz", rt.handleHealthz)
	rt.mux.HandleFunc("GET /readyz", rt.handleReadyz)
	rt.mux.HandleFunc("GET /statusz", rt.handleStatusz)
	rt.mux.HandleFunc("GET /metricsz", rt.handleMetricsz)
	rt.mux.HandleFunc("POST /admin/reload", rt.handleReload)

	if cfg.ProbeInterval > 0 {
		ctx, cancel := context.WithCancel(context.Background())
		rt.probeStop = cancel
		rt.probeDone = make(chan struct{})
		go rt.probeLoop(ctx)
	}
	return rt, nil
}

// Handler returns the router's HTTP handler.
func (rt *Router) Handler() http.Handler { return rt.mux }

// Close stops the active probe loop. The handler stays usable (with
// passive health only); Close exists so tests and daemons shut down clean.
func (rt *Router) Close() {
	if rt.probeStop != nil {
		rt.probeStop()
		<-rt.probeDone
		rt.probeStop = nil
	}
}

// probeLoop actively probes every replica's /readyz on a fixed cadence.
func (rt *Router) probeLoop(ctx context.Context) {
	defer close(rt.probeDone)
	tick := time.NewTicker(rt.cfg.ProbeInterval)
	defer tick.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-tick.C:
			for i, url := range rt.cfg.Replicas {
				rt.health[i].probe(ctx, rt.client, url, rt.cfg.ProbeTimeout)
			}
		}
	}
}

// routeHashRank hashes a rank request's result-relevant wire fields for
// placement: method, the sorted target multiset, and the option fields.
// This mirrors (but need not equal) the replicas' canonical Query.Key — the
// router cannot translate original ids to dense nodes without the view, and
// does not need to: equal requests hash equal, which is all affinity needs.
func routeHashRank(req *serve.RankRequest) uint64 {
	targets := slices.Clone(req.Targets)
	slices.Sort(targets)
	var b bytes.Buffer
	b.WriteString(req.Method)
	for _, t := range targets {
		fmt.Fprintf(&b, "/%d", t)
	}
	fmt.Fprintf(&b, "|%x|%x|%d|%d",
		math.Float64bits(req.Eps), math.Float64bits(req.Delta), req.K, req.Seed)
	return Hash64(b.String())
}

func (rt *Router) handleRank(w http.ResponseWriter, r *http.Request) {
	rt.m.relayed["rank"].Inc()
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxRelayBody))
	if err != nil {
		writeError(w, http.StatusBadRequest, fmt.Sprintf("cluster: reading body: %v", err))
		return
	}
	var req serve.RankRequest
	var h uint64
	if err := json.Unmarshal(body, &req); err != nil {
		// Not decodable here — forward anyway (hashing the raw bytes) and
		// let the replica produce its canonical 400.
		h = Hash64(string(body))
	} else {
		h = routeHashRank(&req)
	}
	rt.forward(w, r, h, "/v1/rank", body)
}

func (rt *Router) handleTopK(w http.ResponseWriter, r *http.Request) {
	rt.m.relayed["topk"].Inc()
	// The full encoded query string is already a canonical-enough route key:
	// equal requests produce equal strings for every client that builds
	// them the same way, and a cold key landing on a non-home replica costs
	// one peer probe, not a recompute.
	h := Hash64(r.URL.RawQuery)
	rt.forward(w, r, h, "/v1/topk?"+r.URL.RawQuery, nil)
}

// forward proxies one request to the ring owners of h in order: healthy
// owners first, then — only if every owner looks unhealthy — the unhealthy
// ones (an EWMA is a guess; a guess must not turn a servable request into a
// 503). Hops retry ONLY on transport failure or upstream 5xx; every other
// status (200, 400, 429, 404) is the replica's answer and is relayed as-is,
// so a shed (429) never multiplies across the fleet. The replica that
// answered is reported in the X-Saphyra-Replica response header.
func (rt *Router) forward(w http.ResponseWriter, r *http.Request, h uint64, path string, body []byte) {
	_, span := obs.StartSpan(r.Context(), "cluster.route")
	owners := rt.ring.Owners(h, rt.ring.Size())
	order := make([]int, 0, len(owners))
	for _, i := range owners {
		if rt.health[i].healthy() {
			order = append(order, i)
		}
	}
	for _, i := range owners {
		if !rt.health[i].healthy() {
			order = append(order, i)
		}
	}
	if len(order) > rt.cfg.HopBudget {
		order = order[:rt.cfg.HopBudget]
	}
	hops := 0
	lastNote := "no replicas"
	for _, i := range order {
		if r.Context().Err() != nil {
			break // client gone: stop burning replicas
		}
		hops++
		out, err := http.NewRequestWithContext(r.Context(), r.Method, rt.cfg.Replicas[i]+path, bytes.NewReader(body))
		if err != nil {
			break
		}
		out.Header = r.Header.Clone() // policy headers intact: Timeout-Ms, Degrade-Ms, Client-Id, Trace-Id
		resp, err := rt.client.Do(out)
		if err != nil {
			rt.health[i].observe(false)
			rt.m.connectErr[i].Inc()
			lastNote = fmt.Sprintf("replica %s: %v", rt.cfg.Replicas[i], err)
			continue
		}
		if resp.StatusCode >= 500 {
			rt.health[i].observe(false)
			rt.m.upstream5[i].Inc()
			lastNote = fmt.Sprintf("replica %s: status %d", rt.cfg.Replicas[i], resp.StatusCode)
			drain(resp)
			continue
		}
		rt.health[i].observe(true)
		rt.m.forwarded[i].Inc()
		rt.m.hops.ObserveN(int64(hops))
		rt.relay(w, resp, rt.cfg.Replicas[i])
		if span != nil {
			span.SetNote(fmt.Sprintf("hops=%d", hops))
			span.End()
		}
		return
	}
	rt.m.exhausted.Inc()
	rt.m.hops.ObserveN(int64(hops))
	if span != nil {
		span.SetNote("exhausted")
		span.End()
	}
	// Every candidate failed (or none exist): shed with a short retry hint,
	// the same contract a single overloaded replica presents.
	w.Header().Set("Retry-After", "1")
	writeError(w, http.StatusServiceUnavailable,
		fmt.Sprintf("cluster: no replica answered within %d hops (last: %s)", hops, lastNote))
}

// relay copies a replica response to the client, stamping which replica
// answered.
func (rt *Router) relay(w http.ResponseWriter, resp *http.Response, replica string) {
	defer resp.Body.Close()
	for k, vs := range resp.Header {
		for _, v := range vs {
			w.Header().Add(k, v)
		}
	}
	w.Header().Set("X-Saphyra-Replica", replica)
	w.WriteHeader(resp.StatusCode)
	io.Copy(w, io.LimitReader(resp.Body, maxRelayBody))
}

func (rt *Router) handleHealthz(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{"status": "ok"})
}

// handleReadyz: the router is ready when at least one replica is healthy —
// it can then route every key somewhere (possibly via hops).
func (rt *Router) handleReadyz(w http.ResponseWriter, r *http.Request) {
	for _, h := range rt.health {
		if h.healthy() {
			writeJSON(w, http.StatusOK, &serve.ReadyzResponse{Status: "ready"})
			return
		}
	}
	w.Header().Set("Retry-After", "1")
	writeJSON(w, http.StatusServiceUnavailable, &serve.ReadyzResponse{Status: "no healthy replicas"})
}

// handleStatusz renders the router's counters and gauges (per-replica
// route outcomes and health, exhausted requests) as one JSON object, keyed
// as their /metricsz sample lines.
func (rt *Router) handleStatusz(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, rt.reg.Snapshot())
}

func (rt *Router) handleMetricsz(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	w.WriteHeader(http.StatusOK)
	rt.reg.WritePrometheus(w)
}

// handleReload rolls a reload across the whole fleet, one replica at a
// time (RollingReload), so operators and load harnesses drive a fleet
// reload through the same POST /admin/reload they drive a single replica
// with. Concurrent requests are rejected with 409 — two interleaved rolls
// would ping-pong generations.
func (rt *Router) handleReload(w http.ResponseWriter, r *http.Request) {
	select {
	case rt.reloadGate <- struct{}{}:
		defer func() { <-rt.reloadGate }()
	default:
		writeError(w, http.StatusConflict, "cluster: a rolling reload is already in progress")
		return
	}
	gens, err := RollingReload(r.Context(), rt.client, rt.cfg.Replicas)
	if err != nil {
		writeJSON(w, http.StatusInternalServerError, &serve.ReloadResponse{
			Status: "failed", Error: err.Error(),
		})
		return
	}
	writeJSON(w, http.StatusOK, &serve.ReloadResponse{
		Status: "reloaded", Generation: slices.Min(gens),
	})
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(v)
}

func writeError(w http.ResponseWriter, status int, msg string) {
	writeJSON(w, status, map[string]any{"error": msg})
}
