// Command saphyraload replays deterministic traffic mixes against the
// saphyrad serving layer and gates the result on per-mix SLOs — the
// load-generation half of the reproducible experiment harness
// (internal/loadgen, DESIGN.md section 12).
//
// Two modes:
//
//	saphyraload -view net.sbcv                     # in-process server
//	saphyraload -view net.sbcv -base http://host:8372   # live daemon
//
// With no -view, a deterministic synthetic network is built, so
// `saphyraload` alone is a complete serving check. Each named mix
// (hit-dominated, miss-heavy, reload-storm; -mix selects one, default all)
// is expanded from one seed into a byte-identical open-loop request
// schedule, replayed, and summarized on stderr: p50/p99/p999 served
// latency, hit and shed and error rates, and bitwise verification of every
// -verify-every'th 200 against the library reference for its reported
// (eps, delta, seed) contract. The exit status is the gate: non-zero when
// any mix violates its SLO or any sampled response is not bitwise-equal to
// the reference. CI runs `saphyraload -cluster 3`; the recorded, compared
// serving numbers come from bench/run.sh.
//
// -cluster N additionally boots an in-process N-replica fleet behind a
// consistent-hash router (internal/cluster: peer cache fill wired, rolling
// reload via the router) over the same view and replays the
// cluster-hit-dominated mix through the router under the same SLO and
// bitwise gates.
package main

import (
	"context"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"time"

	"saphyra"
	"saphyra/internal/cluster"
	"saphyra/internal/loadgen"
	"saphyra/internal/serve"
)

func main() {
	var (
		viewPath    = flag.String("view", "", "serialized view file to load against (default: build a synthetic network)")
		base        = flag.String("base", "", "base URL of a live daemon (default: serve -view in-process)")
		mixName     = flag.String("mix", "all", "mix to replay: hit-dominated | miss-heavy | reload-storm | all")
		rate        = flag.Float64("rate", 0, "override the mix's offered rate (req/s; 0 = mix default)")
		duration    = flag.Duration("duration", 0, "override the mix's scheduled span (0 = mix default)")
		seed        = flag.Int64("seed", 1, "schedule seed; one seed yields a byte-identical request schedule")
		speed       = flag.Float64("speed", 1, "schedule-clock compression factor (2 = replay twice as fast)")
		verifyEvery = flag.Int("verify-every", 8, "bitwise-verify every Nth scheduled request's 200 response (0 = off)")
		noWarm      = flag.Bool("no-warm", false, "skip pre-firing the cacheable working set before the clock starts")

		clusterN    = flag.Int("cluster", 0, "also boot an in-process N-replica fleet behind a consistent-hash router and replay the cluster-hit-dominated mix through it (0 = no fleet)")
		synthNodes  = flag.Int("synth-nodes", 2000, "synthetic network size when no -view is given")
		maxInFlight = flag.Int("max-inflight", 0, "in-process server: concurrent computations admitted (0 = default)")
		timeout     = flag.Duration("timeout", 10*time.Second, "in-process server: default per-request compute deadline")
		slowMs      = flag.Int("slow-query-ms", 0, "in-process server: log any request slower than this many ms as structured JSON on stderr (0 = disabled)")
	)
	flag.Parse()
	if err := run(*viewPath, *base, *mixName, *rate, *duration, *seed, *speed,
		*verifyEvery, !*noWarm, *clusterN, *synthNodes, *maxInFlight, *timeout,
		time.Duration(*slowMs)*time.Millisecond); err != nil {
		fmt.Fprintln(os.Stderr, "saphyraload:", err)
		os.Exit(1)
	}
}

func run(viewPath, base, mixName string, rate float64, duration time.Duration,
	seed int64, speed float64, verifyEvery int, warm bool,
	clusterN, synthNodes, maxInFlight int, timeout, slowQuery time.Duration) error {
	if clusterN > 0 && base != "" {
		return fmt.Errorf("-cluster boots its own in-process fleet; it cannot be combined with -base")
	}

	// Resolve the view: given, or synthesized deterministically.
	if viewPath == "" {
		dir, err := os.MkdirTemp("", "saphyraload")
		if err != nil {
			return err
		}
		defer os.RemoveAll(dir)
		viewPath = filepath.Join(dir, "synth.sbcv")
		g := saphyra.Generate.BarabasiAlbert(synthNodes, 4, 7)
		if err := saphyra.BuildView(g, nil).WriteFile(viewPath); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "saphyraload: built synthetic view (%d nodes) at %s\n", synthNodes, viewPath)
	}
	view, err := saphyra.OpenView(viewPath)
	if err != nil {
		return err
	}
	ids := viewIDs(view)
	view.Close()

	// Resolve the target: a live daemon, or an in-process server on a
	// loopback listener (a real HTTP hop, so in-process numbers include the
	// same transport cost the daemon pays).
	cfg := serve.Config{
		MaxInFlight:        maxInFlight,
		DefaultTimeout:     timeout,
		SlowQueryThreshold: slowQuery,
	}
	if base == "" {
		srv, err := serve.New(viewPath, cfg)
		if err != nil {
			return err
		}
		defer srv.Close()
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return err
		}
		httpSrv := &http.Server{Handler: srv.Handler()}
		go httpSrv.Serve(ln)
		defer httpSrv.Close()
		base = "http://" + ln.Addr().String()
		fmt.Fprintf(os.Stderr, "saphyraload: serving %s in-process on %s\n", viewPath, base)
	}

	var verifier *loadgen.Verifier
	if verifyEvery > 0 {
		if verifier, err = loadgen.NewVerifier(viewPath); err != nil {
			return err
		}
		defer verifier.Close()
	}

	var mixes []loadgen.Mix
	if mixName == "all" {
		mixes = loadgen.Mixes()
	} else {
		m, err := loadgen.ByName(mixName)
		if err != nil {
			return err
		}
		mixes = []loadgen.Mix{m}
	}

	opt := loadgen.Options{
		Base: base, Speed: speed, Warm: warm,
		VerifyEvery: verifyEvery, Verifier: verifier,
	}
	failed := false
	for _, m := range mixes {
		pass, err := replay(m.Scale(rate, duration), ids, seed, opt)
		if err != nil {
			return err
		}
		failed = failed || !pass
	}
	if clusterN > 0 {
		m := loadgen.ClusterHitDominated().Scale(rate, duration)
		pass, err := runCluster(viewPath, clusterN, cfg, m, ids, seed, opt)
		if err != nil {
			return err
		}
		failed = failed || !pass
	}
	if failed {
		return fmt.Errorf("one or more mixes failed their SLO or bitwise verification")
	}
	return nil
}

// runCluster is the -cluster section: boot an in-process fleet over the
// same view and replay m through its router under the same SLO and bitwise
// gates as the single-box mixes. It reports whether the mix passed.
func runCluster(viewPath string, replicas int, cfg serve.Config, m loadgen.Mix,
	ids []int64, seed int64, opt loadgen.Options) (bool, error) {
	f, err := cluster.StartFleet(viewPath, cluster.FleetConfig{Replicas: replicas, Serve: cfg})
	if err != nil {
		return false, err
	}
	defer f.Close()
	fmt.Fprintf(os.Stderr, "saphyraload: cluster: %d replicas behind router %s\n",
		replicas, f.RouterURL)
	opt.Base = f.RouterURL
	return replay(m, ids, seed, opt)
}

// replay builds the mix's schedule, runs it against opt.Base and prints the
// stderr summary: one verdict line, then every SLO violation and every
// failed bitwise check. It reports whether the mix passed.
func replay(m loadgen.Mix, ids []int64, seed int64, opt loadgen.Options) (bool, error) {
	sched, err := loadgen.Build(m, ids, seed)
	if err != nil {
		return false, err
	}
	fmt.Fprintf(os.Stderr, "saphyraload: %s: %d requests over %v (rate %.0f/s)\n",
		m.Name, sched.Requests(), m.Duration, m.Rate)
	r, err := loadgen.Run(context.Background(), sched, opt)
	if err != nil {
		return false, fmt.Errorf("mix %s: %w", m.Name, err)
	}
	status := "PASS"
	if !r.Pass {
		status = "FAIL"
	}
	fmt.Fprintf(os.Stderr,
		"saphyraload: %s: %s  p50 %.2fms p99 %.2fms p999 %.2fms  hit %.0f%% shed %.1f%% degraded %.1f%% err %.1f%%  verified %d (%d failed)\n",
		m.Name, status, r.P50Ms, r.P99Ms, r.P999Ms,
		100*r.HitRate, 100*r.ShedRate, 100*r.DegradedRate, 100*r.ErrorRate,
		r.Verified, r.VerifyFailed)
	for _, v := range r.SLOViolations {
		fmt.Fprintf(os.Stderr, "saphyraload: %s: SLO violation: %s\n", m.Name, v)
	}
	for _, v := range r.VerifyErrors {
		fmt.Fprintf(os.Stderr, "saphyraload: %s: verify: %s\n", m.Name, v)
	}
	return r.Pass, nil
}

// viewIDs returns the view's original id space (identity when dense).
func viewIDs(v *saphyra.View) []int64 {
	if ids := v.IDs(); ids != nil {
		out := make([]int64, len(ids))
		copy(out, ids)
		return out
	}
	n := v.Graph().NumNodes()
	out := make([]int64, n)
	for i := range out {
		out[i] = int64(i)
	}
	return out
}
