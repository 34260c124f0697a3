// Command saphyrarouter fronts a fleet of saphyrad replicas: it
// consistent-hashes each query onto a replica ring and proxies /v1/rank and
// /v1/topk with policy headers intact, retrying on the next ring owner on
// connect failure or upstream 5xx within a per-request hop budget. The
// router carries no view and no cache — placement is affinity, not
// correctness, because every replica computes every query
// bitwise-identically (see DESIGN.md section 14).
//
// Usage:
//
//	saphyrad -view net.sbcv -addr :8372 &            # each replica
//	saphyrad -view net.sbcv -addr :8373 &
//	saphyrarouter -replicas http://localhost:8372,http://localhost:8373 -addr :8371
//
// Every fleet member must be handed the SAME replica list in the SAME
// order (and the same -vnodes): ring agreement is positional.
//
// Rollout mode pushes a new view file to each replica's view path and then
// rolls POST /admin/reload across the fleet one replica at a time, gating
// each step on /readyz reporting the new generation:
//
//	saphyrarouter -replicas http://a:8372,http://b:8372 \
//	    -rollout new.sbcv -push /srv/a/net.sbcv,/srv/b/net.sbcv
//
// -push paths pair positionally with -replicas and may be omitted when the
// files are already in place (e.g. a shared mount) — then -rollout only
// drives the reload sequence. A failed step aborts the roll; replicas
// already rolled serve the new generation, the rest keep the old one, and
// both answer correctly (the generation invariant, DESIGN.md section 14).
//
// API: same as saphyrad for /v1/rank, /v1/topk, /healthz, /metricsz.
// GET /readyz is 200 while at least one replica looks healthy.
// GET /statusz is the router's /metricsz counters and gauges (per-replica
// route outcomes and health EWMAs) as one JSON object. POST /admin/reload
// rolls the whole fleet (409 while another roll is in progress).
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"saphyra/internal/cluster"
)

func main() {
	var (
		replicasFlag = flag.String("replicas", "", "comma-separated ordered replica base URLs, e.g. http://host:8372 (required; order must match on every fleet member)")
		addr         = flag.String("addr", ":8371", "listen address")
		vnodes       = flag.Int("vnodes", 0, "virtual nodes per replica on the ring (0 = default 64; must match peer-fill config)")
		hops         = flag.Int("hops", 0, "max replicas tried per request (0 = default 3, clamped to fleet size)")
		probeEvery   = flag.Duration("probe-interval", 0, "active /readyz probe cadence (0 = default 500ms, negative = passive health only)")
		probeTimeout = flag.Duration("probe-timeout", 0, "single probe deadline (0 = default 1s)")
		rollout      = flag.String("rollout", "", "rollout mode: push this view file and roll /admin/reload across the fleet, then exit")
		push         = flag.String("push", "", "comma-separated destination view paths, paired positionally with -replicas (rollout mode; empty = reload only)")
	)
	flag.Parse()
	if *replicasFlag == "" {
		fmt.Fprintln(os.Stderr, "saphyrarouter: -replicas is required")
		flag.Usage()
		os.Exit(2)
	}
	replicas := splitList(*replicasFlag)

	if *rollout != "" {
		if err := runRollout(*rollout, splitList(*push), replicas); err != nil {
			fmt.Fprintln(os.Stderr, "saphyrarouter:", err)
			os.Exit(1)
		}
		return
	}
	if *push != "" {
		fmt.Fprintln(os.Stderr, "saphyrarouter: -push only makes sense with -rollout")
		os.Exit(2)
	}

	rt, err := cluster.NewRouter(cluster.RouterConfig{
		Replicas:      replicas,
		VNodes:        *vnodes,
		HopBudget:     *hops,
		ProbeInterval: *probeEvery,
		ProbeTimeout:  *probeTimeout,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "saphyrarouter:", err)
		os.Exit(1)
	}
	fmt.Fprintf(os.Stderr, "saphyrarouter: routing %d replicas on %s\n", len(replicas), *addr)

	httpSrv := &http.Server{
		Addr:              *addr,
		Handler:           rt.Handler(),
		ReadHeaderTimeout: 10 * time.Second,
		IdleTimeout:       2 * time.Minute,
	}
	stop := make(chan os.Signal, 1)
	signal.Notify(stop, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-stop
		fmt.Fprintln(os.Stderr, "saphyrarouter: shutting down")
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		httpSrv.Shutdown(ctx)
	}()

	if err := httpSrv.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
		fmt.Fprintln(os.Stderr, "saphyrarouter:", err)
		os.Exit(1)
	}
	rt.Close()
}

// runRollout distributes src to each replica's view path (when given) and
// rolls the reload across the fleet one replica at a time.
func runRollout(src string, dests, replicas []string) error {
	if len(dests) > 0 && len(dests) != len(replicas) {
		return fmt.Errorf("-push lists %d paths for %d replicas (they pair positionally)", len(dests), len(replicas))
	}
	for i, dst := range dests {
		if err := cluster.PushView(src, dst); err != nil {
			return fmt.Errorf("pushing to replica %d (%s): %w", i, replicas[i], err)
		}
		fmt.Fprintf(os.Stderr, "saphyrarouter: pushed %s -> %s\n", src, dst)
	}
	gens, err := cluster.RollingReload(context.Background(), http.DefaultClient, replicas)
	for i, gen := range gens {
		fmt.Printf("%s generation %d\n", replicas[i], gen)
	}
	if err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "saphyrarouter: rolled %d replicas\n", len(gens))
	return nil
}

// splitList splits a comma-separated flag, dropping empty entries so a
// trailing comma is harmless.
func splitList(s string) []string {
	var out []string
	for _, part := range strings.Split(s, ",") {
		if p := strings.TrimSpace(part); p != "" {
			out = append(out, p)
		}
	}
	return out
}
