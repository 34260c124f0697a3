package serve

import (
	"math"
	"time"

	"saphyra/internal/bicomp"
	"saphyra/internal/obs"
	"saphyra/internal/query"
)

// Request outcome labels: the per-outcome latency histogram's label set and
// the value every handler returns to its timing wrapper. One request maps
// to exactly one outcome.
const (
	outcomeOK           = "ok"
	outcomeDegraded     = "degraded"
	outcomeBadRequest   = "bad_request"
	outcomeShed         = "shed"
	outcomeQuota        = "quota"
	outcomeDeadline     = "deadline"
	outcomeClientClosed = "client_closed"
	outcomeInternal     = "internal"
)

var outcomes = []string{
	outcomeOK, outcomeDegraded, outcomeBadRequest, outcomeShed,
	outcomeQuota, outcomeDeadline, outcomeClientClosed, outcomeInternal,
}

// metrics is the server's view of its obs.Registry, the one source of
// both /metricsz and /statusz: the request counters, the operational
// gauges, and the latency/cost histograms. Counters owned by other structs
// (cache hits, admission depth, the compute EWMA) are bridged with
// CounterFunc/GaugeFunc rather than moved — their owners keep their
// atomics, the registry reads them at scrape time.
type metrics struct {
	reg *obs.Registry

	ranks, topks                   *obs.Counter
	badRequests, shed, quotaDenied *obs.Counter
	deadlines, canceled            *obs.Counter
	internalErrors                 *obs.Counter
	degraded, staleServed          *obs.Counter
	reloads, reloadFailures        *obs.Counter

	// Cluster tier: peerFill* count this server's outbound home-peer
	// probes on cache misses (hit = adopted the peer's bytes, rejected =
	// the peer answered but failed validation); internalCache* count the
	// inbound side, peers probing this server's GET /internal/cache.
	peerFillHits, peerFillMisses, peerFillRejected *obs.Counter
	internalCacheHits, internalCacheMisses         *obs.Counter

	latency        map[string]*obs.Hist // per-outcome request wall time
	computeSeconds *obs.Hist            // successful flight compute time
	queueWait      *obs.Hist            // admission wait inside a flight
	flightFanIn    *obs.Hist            // requesters collapsed per flight
	reloadSeconds  *obs.Hist            // reload wall time (success only)
	queryCost      map[string]*obs.Hist // per-method queryCost estimate
}

func newMetrics(s *Server) *metrics {
	reg := obs.NewRegistry()
	m := &metrics{reg: reg}

	m.ranks = reg.Counter("saphyra_requests_total", "Requests received by endpoint.", `endpoint="rank"`)
	m.topks = reg.Counter("saphyra_requests_total", "Requests received by endpoint.", `endpoint="topk"`)

	const errHelp = "Requests that did not return a ranking."
	m.badRequests = reg.Counter("saphyra_request_errors_total", errHelp, `reason="bad_request"`)
	m.shed = reg.Counter("saphyra_request_errors_total", errHelp, `reason="shed"`)
	m.quotaDenied = reg.Counter("saphyra_request_errors_total", errHelp, `reason="quota"`)
	m.deadlines = reg.Counter("saphyra_request_errors_total", errHelp, `reason="deadline"`)
	m.canceled = reg.Counter("saphyra_request_errors_total", errHelp, `reason="canceled"`)
	m.internalErrors = reg.Counter("saphyra_request_errors_total", errHelp, `reason="internal"`)

	const cacheHelp = "Result cache events."
	reg.CounterFunc("saphyra_cache_events_total", cacheHelp, `kind="hit"`,
		func() float64 { return float64(s.cache.hits.Load()) })
	reg.CounterFunc("saphyra_cache_events_total", cacheHelp, `kind="miss"`,
		func() float64 { return float64(s.cache.misses.Load()) })
	reg.CounterFunc("saphyra_cache_events_total", cacheHelp, `kind="collapsed"`,
		func() float64 { return float64(s.cache.collapsed.Load()) })

	const degradeHelp = "Responses served through the degradation ladder."
	m.degraded = reg.Counter("saphyra_degraded_total", degradeHelp, `rung="coarse"`)
	m.staleServed = reg.Counter("saphyra_degraded_total", degradeHelp, `rung="stale"`)

	const fillHelp = "Home-peer cache probes issued on local misses."
	m.peerFillHits = reg.Counter("saphyra_peer_fill_total", fillHelp, `result="hit"`)
	m.peerFillMisses = reg.Counter("saphyra_peer_fill_total", fillHelp, `result="miss"`)
	m.peerFillRejected = reg.Counter("saphyra_peer_fill_total", fillHelp, `result="rejected"`)
	const internalHelp = "Peer probes served by GET /internal/cache."
	m.internalCacheHits = reg.Counter("saphyra_internal_cache_total", internalHelp, `result="hit"`)
	m.internalCacheMisses = reg.Counter("saphyra_internal_cache_total", internalHelp, `result="miss"`)

	reg.CounterFunc("saphyra_fastlane_admits_total", "Computations admitted via the tiny-query fast lane.", "",
		func() float64 { return float64(s.adm.fastAdmits()) })
	m.reloads = reg.Counter("saphyra_reloads_total", "Completed hot reloads.", "")
	m.reloadFailures = reg.Counter("saphyra_reload_failures_total", "Hot reloads that failed (old generation kept serving).", "")

	reg.GaugeFunc("saphyra_generation", "Current view generation.", "", func() float64 {
		if lv := s.cur.Load(); lv != nil {
			return float64(lv.gen())
		}
		return 0
	})
	reg.GaugeFunc("saphyra_cache_entries", "Result cache entries resident.", "",
		func() float64 { return float64(s.cache.len()) })
	reg.GaugeFunc("saphyra_cache_capacity", "Result cache capacity.", "",
		func() float64 { return float64(s.cfg.CacheEntries) })
	reg.GaugeFunc("saphyra_inflight_computations", "Computations holding an admission slot.", "",
		func() float64 { return float64(s.adm.inFlight()) })
	reg.GaugeFunc("saphyra_waiting_computations", "Computations queued for an admission slot.", "",
		func() float64 { return float64(s.adm.waitingNow()) })
	reg.GaugeFunc("saphyra_workers_total", "Worker-slot pool size.", "",
		func() float64 { return float64(s.cfg.TotalWorkers) })
	reg.GaugeFunc("saphyra_workers_per_request", "Per-computation worker-slot cap.", "",
		func() float64 { return float64(s.cfg.RequestWorkers) })
	reg.GaugeFunc("saphyra_open_mappings", "Live mmapped views in this process.", "",
		func() float64 { return float64(bicomp.OpenMappings()) })
	reg.GaugeFunc("saphyra_view_nodes", "Nodes in the served view.", "", func() float64 {
		if lv := s.cur.Load(); lv != nil {
			return float64(lv.g.NumNodes())
		}
		return 0
	})
	reg.GaugeFunc("saphyra_view_edges", "Edges in the served view.", "", func() float64 {
		if lv := s.cur.Load(); lv != nil {
			return float64(lv.g.NumEdges())
		}
		return 0
	})
	reg.GaugeFunc("saphyra_view_loaded_timestamp_seconds", "Unix time the served view generation was loaded.", "", func() float64 {
		if lv := s.cur.Load(); lv != nil {
			return float64(lv.loaded.UnixNano()) / 1e9
		}
		return 0
	})
	reg.GaugeFunc("saphyra_uptime_seconds", "Seconds since process start.", "",
		func() float64 { return time.Since(s.start).Seconds() })
	reg.GaugeFunc("saphyra_compute_ewma_seconds", "EWMA of successful compute seconds (feeds Retry-After).", "",
		func() float64 { return math.Float64frombits(s.computeEWMA.Load()) })
	reg.GaugeFunc("saphyra_retry_after_seconds", "Retry-After a shed request would receive right now.", "",
		func() float64 { return float64(s.retryAfterSeconds()) })

	m.latency = make(map[string]*obs.Hist, len(outcomes))
	for _, o := range outcomes {
		m.latency[o] = reg.Histogram("saphyra_request_seconds",
			"Request wall time by outcome.", `outcome="`+o+`"`, obs.UnitSeconds)
	}
	m.computeSeconds = reg.Histogram("saphyra_compute_seconds",
		"Successful flight compute time.", "", obs.UnitSeconds)
	m.queueWait = reg.Histogram("saphyra_queue_wait_seconds",
		"Admission wait inside a flight (slot acquisition).", "", obs.UnitSeconds)
	m.flightFanIn = reg.Histogram("saphyra_flight_fanin_requests",
		"Requesters served per singleflight computation (leader plus collapsed followers).", "", obs.UnitCount)
	m.reloadSeconds = reg.Histogram("saphyra_reload_seconds",
		"Hot reload wall time (successful reloads).", "", obs.UnitSeconds)

	m.queryCost = make(map[string]*obs.Hist, len(methods))
	for _, meth := range methods {
		m.queryCost[meth] = reg.Histogram("saphyra_query_cost",
			"Estimated compute mass per request (admission cost model units).",
			`method="`+meth+`"`, obs.UnitCount)
	}
	return m
}

// costFor returns the per-method query-cost histogram for a measure.
func (m *metrics) costFor(meas query.Measure) *obs.Hist {
	switch meas {
	case query.Betweenness:
		return m.queryCost[MethodSaPHyRa]
	case query.KPath:
		return m.queryCost[MethodKPath]
	case query.Closeness:
		return m.queryCost[MethodCloseness]
	}
	return nil
}

// latencyFor returns the latency histogram for an outcome label, falling
// back to the internal bucket for a label no handler should produce.
func (m *metrics) latencyFor(outcome string) *obs.Hist {
	if h, ok := m.latency[outcome]; ok {
		return h
	}
	return m.latency[outcomeInternal]
}
