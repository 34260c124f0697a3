// Serving demonstrates the full production topology in one process: build
// a view artifact once, stand up the saphyrad serving stack on a loopback
// listener, and drive it with the resilient workload client — subset
// ranking with the deterministic result cache, the precomputed top-k index,
// per-client quotas with honored Retry-After, an atomic hot reload, and the
// graceful-degradation ladder, all with bitwise-reproducible scores.
//
// Run with: go run ./examples/serving
package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"time"

	"saphyra"
	"saphyra/internal/serve"
	"saphyra/internal/workload"
)

func main() {
	// Build once: a synthetic social network persisted as a view artifact —
	// in production this is `saphyra -graph net.txt -save-view net.sbcv`.
	// The writer publishes atomically (temp file + rename + fsync) with a
	// whole-file checksum, so a served artifact is never torn or bit-rotted.
	g := saphyra.Generate.PowerLawCluster(3000, 4, 0.2, 11)
	dir, err := os.MkdirTemp("", "saphyra-serving")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)
	viewPath := filepath.Join(dir, "net.sbcv")
	if err := saphyra.BuildView(g, nil).WriteFile(viewPath); err != nil {
		log.Fatal(err)
	}
	st, _ := os.Stat(viewPath)
	fmt.Printf("built view: %d nodes, %d edges, %d bytes on disk\n",
		g.NumNodes(), g.NumEdges(), st.Size())

	// Serve many: the saphyrad stack (cmd/saphyrad wires the same package
	// to flags and signals) on an ephemeral loopback port. Quotas on so the
	// client's Retry-After handling has something to push against.
	srv, err := serve.New(viewPath, serve.Config{
		ClientQPS: 5, ClientBurst: 3,
	})
	if err != nil {
		log.Fatal(err)
	}
	defer srv.Close()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	go http.Serve(ln, srv.Handler())
	base := "http://" + ln.Addr().String()
	fmt.Printf("saphyrad serving on %s (generation %d)\n\n", base, srv.Generation())

	// The workload client is the reference well-behaved caller: identified
	// traffic, bounded retries, server backpressure hints honored exactly.
	client := &workload.Client{Base: base, ClientID: "example"}
	ctx := context.Background()

	// Ranking the same subset twice: the second answer comes from the
	// deterministic cache — same bits, no computation.
	// eps 0.01 makes the compute real work (tens of milliseconds), so the
	// deadline demos below have something to cut short.
	req := serve.RankRequest{
		Method:  "saphyra",
		Targets: []int64{17, 99, 1024, 2048},
		Eps:     0.01, Delta: 0.01, Seed: 7,
	}
	first, err := client.Rank(ctx, req)
	if err != nil {
		log.Fatal(err)
	}
	second, err := client.Rank(ctx, req)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("POST /v1/rank, method=saphyra, 4 targets:")
	for i := range first.Nodes {
		fmt.Printf("  rank %d  node %-5d score %.6g\n", first.Ranks[i], first.Nodes[i], first.Scores[i])
	}
	fmt.Printf("first:  cached=%v samples=%d\n", first.Cached, first.Samples)
	fmt.Printf("second: cached=%v identical=%v\n\n", second.Cached, identical(first, second))

	// The top-k index was precomputed at load time for every method.
	for _, method := range []string{"saphyra", "kpath", "closeness"} {
		top, err := client.TopK(ctx, method, 3)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("GET /v1/topk method=%-9s (cached=%v):", method, top.Cached)
		for i := range top.Nodes {
			fmt.Printf("  #%d node %d (%.4g)", top.Ranks[i], top.Nodes[i], top.Scores[i])
		}
		fmt.Println()
	}

	// Quota backpressure: a burst past the token bucket gets 429 with the
	// exact token-refill time as Retry-After; the client sleeps that long
	// and succeeds — no guessing, no hammering.
	fmt.Println("\nburst of 6 distinct queries against a 3-token bucket (5 tokens/s):")
	for i := 0; i < 6; i++ {
		r := req
		r.Seed = int64(100 + i)
		if _, err := client.Rank(ctx, r); err != nil {
			log.Fatal(err)
		}
	}
	cs := client.Stats()
	fmt.Printf("all 6 served; client retried %d time(s), sleeping %v total as directed by Retry-After\n",
		cs.Retries, cs.Waited.Round(time.Millisecond))

	// Hot reload: remap the artifact under the next generation. In-flight
	// queries drain on the old mapping; new ones see generation 2 — and,
	// the file being unchanged, bitwise-identical scores. The purged
	// generation-1 results move to the stale store, arming the degradation
	// ladder's cheapest rung.
	resp, err := http.Post(base+"/admin/reload", "application/json", nil)
	if err != nil {
		log.Fatal(err)
	}
	resp.Body.Close()
	fmt.Printf("\nafter POST /admin/reload: generation %d\n", srv.Generation())

	// Graceful degradation: this client would rather have a slightly worse
	// answer than an error. The reload emptied the generation-2 cache, so
	// req needs a fresh compute — and Timeout-Ms 1 makes that impossible
	// (the engines cancel at their next checkpoint — nothing partial
	// exists). Degrade-Ms opts into the ladder, and the service answers
	// from the retired generation's cache: flagged, generation reported,
	// bitwise-identical to what generation 1 served when it was current.
	degrading := &workload.Client{Base: base, ClientID: "example", TimeoutMs: 1, DegradeMs: 2000}
	deg, err := degrading.Rank(ctx, req)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("with Timeout-Ms: 1 and Degrade-Ms: 2000: degraded=%v generation=%d eps=%g identical=%v\n",
		deg.Degraded, deg.Generation, deg.Eps, identical(first, deg))

	// Given time, the same request recomputes exactly under generation 2 —
	// the file is unchanged, so the bits are too.
	third, err := client.Rank(ctx, req)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("same query, no deadline: generation %d cached=%v (keys carry the generation), identical=%v\n",
		third.Generation, third.Cached, identical(first, third))

	// Without the opt-in the same impossible deadline is a hard 504, which
	// the client retries and then surfaces as a typed error.
	strict := &workload.Client{Base: base, ClientID: "strict", TimeoutMs: 1,
		MaxAttempts: 2, BaseBackoff: 10 * time.Millisecond}
	hard := req
	hard.Seed = 404 // uncached: forces a real (and here impossible) compute
	_, err = strict.Rank(ctx, hard)
	var se *workload.StatusError
	if errors.As(err, &se) {
		fmt.Printf("same deadline without Degrade-Ms: status %d after retries (deadline-exceeded compute is canceled, never partial)\n", se.Code)
	} else if err != nil {
		fmt.Printf("same deadline without Degrade-Ms: %v\n", err)
	}

	// /statusz is the registry's counters and gauges as one JSON object,
	// keyed exactly as their /metricsz sample lines.
	status := *getJSON[map[string]float64](base + "/statusz")
	fmt.Printf("\nstatusz: gen=%g cache{hits=%g misses=%g} requests{rank=%g quota_denied=%g deadline=%g} degraded{coarse=%g stale=%g} open_mappings=%g\n",
		status["saphyra_generation"],
		status[`saphyra_cache_events_total{kind="hit"}`], status[`saphyra_cache_events_total{kind="miss"}`],
		status[`saphyra_requests_total{endpoint="rank"}`],
		status[`saphyra_request_errors_total{reason="quota"}`], status[`saphyra_request_errors_total{reason="deadline"}`],
		status[`saphyra_degraded_total{rung="coarse"}`], status[`saphyra_degraded_total{rung="stale"}`],
		status["saphyra_open_mappings"])

	// The same counters in Prometheus text format, ready to scrape.
	mresp, err := http.Get(base + "/metricsz")
	if err != nil {
		log.Fatal(err)
	}
	metrics, _ := io.ReadAll(mresp.Body)
	mresp.Body.Close()
	fmt.Println("\nGET /metricsz (excerpt):")
	for _, line := range strings.Split(string(metrics), "\n") {
		if strings.HasPrefix(line, "saphyra_requests_total") ||
			strings.HasPrefix(line, "saphyra_request_errors_total{reason=\"quota\"}") ||
			strings.HasPrefix(line, "saphyra_degraded_total") ||
			strings.HasPrefix(line, "saphyra_generation") {
			fmt.Println("  " + line)
		}
	}
}

func getJSON[T any](url string) *T {
	resp, err := http.Get(url)
	if err != nil {
		log.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		log.Fatalf("%s: status %s", url, resp.Status)
	}
	out := new(T)
	if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
		log.Fatal(err)
	}
	return out
}

func identical(a, b *serve.RankResponse) bool {
	if len(a.Scores) != len(b.Scores) {
		return false
	}
	for i := range a.Scores {
		if a.Scores[i] != b.Scores[i] {
			return false
		}
	}
	return true
}
