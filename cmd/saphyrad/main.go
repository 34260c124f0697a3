// Command saphyrad serves centrality rankings from a persisted view file
// over HTTP — the always-on counterpart of the one-shot `saphyra -view`
// invocation. One process maps the view once and answers any number of
// subset-ranking and top-k queries with (eps, delta)-guaranteed estimates;
// concurrent saphyrad processes serving the same file share one physical
// copy of the arrays through the page cache.
//
// Usage:
//
//	saphyra -graph net.txt -save-view net.sbcv     # build once
//	saphyrad -view net.sbcv -addr :8372            # serve many
//
// API (JSON):
//
//	POST /v1/rank     {"method":"saphyra","targets":[17,99],"eps":0.05,"delta":0.01,"seed":1}
//	GET  /v1/topk?method=closeness&k=10
//	GET  /healthz                                  # liveness: 200 while the process runs
//	GET  /readyz                                   # readiness: 503 until a view generation serves
//	GET  /statusz                                  # the /metricsz counters and gauges as one JSON object
//	GET  /metricsz                                 # Prometheus text format
//	POST /admin/reload                             # also: kill -HUP <pid>
//
// Telemetry: /metricsz exposes counters, gauges, and latency/cost histograms
// from the internal/obs registry. `-slow-query-ms N` arms the slow-query
// log — any request slower than N ms writes one structured JSON line to
// stderr with its full span tree. A request carrying `?trace=1` or a
// Trace-Id header gets its span breakdown back in the response envelope.
// `-pprof-addr` serves net/http/pprof on a separate (loopback) listener,
// kept off the public handler so profiling is never reachable from the
// service port.
//
// Deadlines: -timeout sets a default compute deadline; a request may
// tighten (never extend) it with a Timeout-Ms header. An expired request
// returns 504, frees its
// admission slot, and its computation is canceled at the next engine
// checkpoint (unless other requests still wait on the same cached flight) —
// cancellation is all-or-nothing, so a completed response is always
// bitwise-identical to an undeadlined one.
//
// Overload: -client-qps arms per-client token-bucket quotas keyed by the
// Client-Id request header; quota-denied and shed requests get 429 with a
// Retry-After derived from the token-refill horizon or live queue depth —
// a hint worth obeying (internal/workload.Client does). Tiny queries ride
// a reserved fast-lane slot pool (-fastlane) with a guaranteed worker, so
// point lookups stay fast while full-network jobs saturate the compute
// slots. A Degrade-Ms request header (or -default-degrade-ms fleet-wide)
// opts a request into graceful degradation: when the exact answer is shed
// or misses its deadline, the service answers from the prior generation's
// cache or with a coarsened-eps recompute, flagged "degraded":true (see
// DESIGN.md section 10).
//
// Methods are saphyra (betweenness), kpath, and closeness; targets and
// reported nodes use the original id space of the edge list the view was
// built from. Responses are deterministic: a fixed (method, eps, delta,
// seed, targets) returns bitwise-identical scores across requests, worker
// counts, restarts, and processes — which is also why the daemon may cache
// and collapse identical requests (see internal/serve and DESIGN.md
// section 8).
//
// Hot reload: SIGHUP or POST /admin/reload re-maps the view file under the
// next generation. In-flight queries finish on the old mapping before it is
// released; new queries see the new generation immediately.
//
// Clustering: -peers (with -peer-self) joins this process to a peer
// cache-fill ring — on a local cache miss it first asks the key's
// consistent-hash home replica via GET /internal/cache and adopts the
// entry instead of recomputing, sound because responses are bitwise
// reproducible and generation-tagged. Front a fleet of such daemons with
// cmd/saphyrarouter, and roll new views across it with its -rollout mode
// (DESIGN.md section 14):
//
//	saphyrad -view net.sbcv -addr :8372 \
//	    -peers http://a:8372,http://b:8372 -peer-self 0
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"runtime"
	"strings"
	"syscall"
	"time"

	"saphyra/internal/cluster"
	"saphyra/internal/serve"
)

func main() {
	var (
		viewPath    = flag.String("view", "", "serialized view file to serve (required; build with saphyra -save-view)")
		addr        = flag.String("addr", ":8372", "listen address")
		maxInFlight = flag.Int("max-inflight", 0, "concurrent computations admitted (0 = default 4)")
		maxQueue    = flag.Int("max-queue", 0, "computations allowed to wait for a slot before shedding with 429 (0 = 4x max-inflight)")
		workers     = flag.Int("workers", 0, "worker-goroutine pool shared by all computations (0 = all CPUs)")
		reqWorkers  = flag.Int("request-workers", 0, "max workers one computation may take from the pool (0 = half the pool)")
		cacheSize   = flag.Int("cache", 0, "result cache entries (0 = default 1024)")
		timeout     = flag.Duration("timeout", 0, "default per-request compute deadline (e.g. 30s; 0 = none); a Timeout-Ms request header may tighten but never extend it. Expired requests get 504 and their computation is canceled")
		noWarm      = flag.Bool("no-precompute", false, "skip warming the per-method top-k index at startup/reload")

		fastSlots = flag.Int("fastlane", 0, "admission slots reserved for tiny queries so they never queue behind full-network work (0 = default 2, negative = disabled)")
		fastCost  = flag.Float64("fastlane-cost", 0, "cost threshold below which a query rides the fast lane (0 = default 16384; see internal/sched's chunk cost model)")
		clientQPS = flag.Float64("client-qps", 0, "per-client token-bucket refill rate keyed by the Client-Id header (0 = quotas disabled)")
		clientBur = flag.Float64("client-burst", 0, "per-client token-bucket capacity (0 = 2x client-qps, min 1)")
		degradeMs = flag.Int("default-degrade-ms", 0, "opt every rank request into the degradation ladder with this budget in ms when it sends no Degrade-Ms header (0 = request-driven only)")
		degFactor = flag.Float64("degrade-eps-factor", 0, "epsilon multiplier for the coarsened-recompute degradation rung (0 = default 4)")
		degMaxEps = flag.Float64("degrade-max-eps", 0, "cap on the coarsened epsilon (0 = default 0.25)")
		noStale   = flag.Bool("no-stale", false, "remove the stale rung from the degradation ladder: degraded requests only ever get a coarsened recompute, never a prior generation's cache")

		slowMs    = flag.Int("slow-query-ms", 0, "log any request slower than this many ms as one structured JSON line on stderr, span tree included (0 = disabled)")
		pprofAddr = flag.String("pprof-addr", "", "serve net/http/pprof on this separate address, e.g. localhost:6060 (empty = disabled; keep it loopback-only)")

		peersFlag   = flag.String("peers", "", "comma-separated ordered replica base URLs of the whole fleet, including this process — joins the peer cache-fill ring (every replica must be given the SAME ordered list; empty = no peer fill)")
		peerSelf    = flag.Int("peer-self", -1, "this replica's index in -peers (required with -peers)")
		peerTimeout = flag.Duration("peer-timeout", 0, "bound on one peer cache probe (0 = default)")
	)
	flag.Parse()
	if *viewPath == "" {
		fmt.Fprintln(os.Stderr, "saphyrad: -view is required")
		flag.Usage()
		os.Exit(2)
	}

	// Peer cache fill: on a local miss, ask the key's home peer for its
	// cached entry before computing — sound to adopt because responses are
	// bitwise reproducible and generation-tagged (DESIGN.md section 14).
	var peerFill func(ctx context.Context, gen uint64, key [32]byte) (*serve.RankResponse, bool)
	if *peersFlag != "" {
		var urls []string
		for _, u := range strings.Split(*peersFlag, ",") {
			if u = strings.TrimSpace(u); u != "" {
				urls = append(urls, u)
			}
		}
		if *peerSelf < 0 || *peerSelf >= len(urls) {
			fmt.Fprintf(os.Stderr, "saphyrad: -peer-self %d is not an index into the %d -peers entries\n", *peerSelf, len(urls))
			os.Exit(2)
		}
		peers, err := cluster.NewPeers(urls, *peerSelf, 0, &http.Client{}, *peerTimeout)
		if err != nil {
			fmt.Fprintln(os.Stderr, "saphyrad:", err)
			os.Exit(2)
		}
		peerFill = peers.Fill
	}

	start := time.Now()
	srv, err := serve.New(*viewPath, serve.Config{
		MaxInFlight:        *maxInFlight,
		MaxQueue:           *maxQueue,
		TotalWorkers:       *workers,
		RequestWorkers:     *reqWorkers,
		CacheEntries:       *cacheSize,
		DefaultTimeout:     *timeout,
		DisablePrecompute:  *noWarm,
		FastLaneSlots:      *fastSlots,
		FastLaneCost:       *fastCost,
		ClientQPS:          *clientQPS,
		ClientBurst:        *clientBur,
		DefaultDegradeMs:   *degradeMs,
		DegradeEpsFactor:   *degFactor,
		DegradeMaxEps:      *degMaxEps,
		DisableStale:       *noStale,
		SlowQueryThreshold: time.Duration(*slowMs) * time.Millisecond,
		PeerFill:           peerFill,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "saphyrad:", err)
		os.Exit(1)
	}
	fmt.Fprintf(os.Stderr, "saphyrad: serving %s (generation %d) on %s after %v warmup, %d CPUs\n",
		*viewPath, srv.Generation(), *addr, time.Since(start).Round(time.Millisecond), runtime.GOMAXPROCS(0))

	// Transport-level bounds back the admission control's overload story:
	// admission only gates computations, so slow-header connections and
	// idle keep-alives must be bounded here or they pin goroutines and fds
	// before a request ever exists. (Request bodies are bounded inside the
	// handler; no WriteTimeout — a cache-miss computation may legitimately
	// outlive any fixed write deadline.)
	httpSrv := &http.Server{
		Addr:              *addr,
		Handler:           srv.Handler(),
		ReadHeaderTimeout: 10 * time.Second,
		IdleTimeout:       2 * time.Minute,
	}

	// pprof gets its own listener and mux: importing net/http/pprof would
	// register on http.DefaultServeMux, which the service handler never
	// touches, so profiling stays unreachable from the service port and
	// entirely off unless the flag is set.
	if *pprofAddr != "" {
		pmux := http.NewServeMux()
		pmux.HandleFunc("/debug/pprof/", pprof.Index)
		pmux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		pmux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		pmux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		pmux.HandleFunc("/debug/pprof/trace", pprof.Trace)
		go func() {
			psrv := &http.Server{Addr: *pprofAddr, Handler: pmux, ReadHeaderTimeout: 10 * time.Second}
			fmt.Fprintf(os.Stderr, "saphyrad: pprof on %s\n", *pprofAddr)
			if err := psrv.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
				fmt.Fprintln(os.Stderr, "saphyrad: pprof:", err)
			}
		}()
	}

	hup := make(chan os.Signal, 1)
	signal.Notify(hup, syscall.SIGHUP)
	go func() {
		for range hup {
			gen, err := srv.Reload()
			if err != nil {
				fmt.Fprintln(os.Stderr, "saphyrad:", err)
				continue
			}
			fmt.Fprintf(os.Stderr, "saphyrad: reloaded %s as generation %d\n", *viewPath, gen)
		}
	}()

	stop := make(chan os.Signal, 1)
	signal.Notify(stop, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-stop
		fmt.Fprintln(os.Stderr, "saphyrad: shutting down")
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		httpSrv.Shutdown(ctx)
	}()

	if err := httpSrv.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
		fmt.Fprintln(os.Stderr, "saphyrad:", err)
		os.Exit(1)
	}
	srv.Close() // drain and unmap after the listener stops
}
