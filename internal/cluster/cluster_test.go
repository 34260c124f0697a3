package cluster

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"path/filepath"
	"strconv"
	"sync"
	"testing"
	"time"

	"saphyra"
	"saphyra/internal/loadgen"
	"saphyra/internal/serve"
)

// buildClusterView persists a view with a non-identity original-id space
// (original = dense*3 + 1), mirroring the serving-layer tests so id
// translation bugs cannot hide behind identity mappings.
func buildClusterView(t testing.TB, n int) (path string, ids []int64) {
	t.Helper()
	g := saphyra.Generate.BarabasiAlbert(n, 3, 12)
	ids = make([]int64, g.NumNodes())
	for i := range ids {
		ids[i] = int64(i)*3 + 1
	}
	path = filepath.Join(t.TempDir(), "cluster.sbcv")
	if err := saphyra.BuildView(g, ids).WriteFile(path); err != nil {
		t.Fatal(err)
	}
	return path, ids
}

// startTestFleet boots a 3-replica fleet with active probing off, so health
// transitions happen only through forwarded traffic and the tests stay
// deterministic.
func startTestFleet(t testing.TB, viewPath string) *Fleet {
	t.Helper()
	f, err := StartFleet(viewPath, FleetConfig{
		Replicas: 3,
		Serve:    serve.Config{DisablePrecompute: true, CacheEntries: 1 << 12},
		Router:   RouterConfig{ProbeInterval: -1},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(f.Close)
	return f
}

func postRankURL(t testing.TB, base string, req serve.RankRequest) (*serve.RankResponse, int, http.Header) {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(base+"/v1/rank", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatalf("POST %s: %v", base, err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		return nil, resp.StatusCode, resp.Header
	}
	var out serve.RankResponse
	if err := json.Unmarshal(raw, &out); err != nil {
		t.Fatalf("bad 200 body: %v", err)
	}
	return &out, resp.StatusCode, resp.Header
}

// statusz reads a replica's or the router's GET /statusz: every counter and
// gauge sample, keyed as its /metricsz line (`saphyra_generation`,
// `saphyra_peer_fill_total{result="hit"}`).
func statusz(t testing.TB, base string) map[string]float64 {
	t.Helper()
	resp, err := http.Get(base + "/statusz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s/statusz: status %d", base, resp.StatusCode)
	}
	var st map[string]float64
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	return st
}

// computesOf returns the fleet-wide count of actual engine computations
// across the given replicas: cache misses start a flight, but a flight
// satisfied by peer fill never computes, so computes = misses - peer hits.
func computesOf(t testing.TB, bases []string) int64 {
	t.Helper()
	var total int64
	for _, base := range bases {
		st := statusz(t, base)
		total += int64(st[`saphyra_cache_events_total{kind="miss"}`] - st[`saphyra_peer_fill_total{result="hit"}`])
	}
	return total
}

// canonicalKeyOf reconstructs the serving layer's cache key from a 200
// response: the response reports its full achieved contract (method, eps,
// delta, seed, K, and the canonical target set in Nodes), which is exactly
// what the replicas key their caches — and their peer-fill ring — by.
func canonicalKeyOf(t testing.TB, resp *serve.RankResponse, pos map[int64]saphyra.Node) [sha256.Size]byte {
	t.Helper()
	var m saphyra.Measure
	switch resp.Method {
	case serve.MethodSaPHyRa:
		m = saphyra.Betweenness
	case serve.MethodKPath:
		m = saphyra.KPath
	case serve.MethodCloseness:
		m = saphyra.Closeness
	default:
		t.Fatalf("unknown method %q", resp.Method)
	}
	targets := make([]saphyra.Node, len(resp.Nodes))
	for i, id := range resp.Nodes {
		n, ok := pos[id]
		if !ok {
			t.Fatalf("response node %d not in the view", id)
		}
		targets[i] = n
	}
	q := saphyra.Query{Measure: m, Targets: targets, K: resp.K,
		Epsilon: resp.Eps, Delta: resp.Delta, Seed: resp.Seed}
	return q.Key()
}

// TestClusterBitwiseUnderReloadAndKill is the tier-1 acceptance run for the
// distributed serving tier: a 3-replica fleet behind the router, driven
// through a rolling reload with traffic in flight and then a hard replica
// kill mid-traffic. Every 200 must be bitwise-equal to the library
// reference for its reported contract (any generation maps the same view
// bytes, so one reference covers all), responses may only ever carry
// adjacent generations during the roll, and the compute accounting must
// show that neither hop retries nor duplicate in-flight requests ever
// compute one (generation, key) twice on the surviving fleet.
func TestClusterBitwiseUnderReloadAndKill(t *testing.T) {
	viewPath, ids := buildClusterView(t, 600)
	f := startTestFleet(t, viewPath)
	verifier, err := loadgen.NewVerifier(viewPath)
	if err != nil {
		t.Fatal(err)
	}
	defer verifier.Close()

	// check runs from concurrent traffic goroutines too, so it must only
	// ever Error, never FailNow.
	check := func(resp *serve.RankResponse) {
		t.Helper()
		if err := verifier.Check(loadgen.EventRank, resp); err != nil {
			t.Errorf("non-bitwise 200: %v", err)
		}
	}

	warmSet := []serve.RankRequest{
		{Method: serve.MethodSaPHyRa, Targets: []int64{ids[7], ids[99], ids[300]}, Eps: 0.1, Delta: 0.05, Seed: 1},
		{Method: serve.MethodSaPHyRa, Targets: []int64{ids[4], ids[512]}, Eps: 0.1, Delta: 0.05, Seed: 2},
		{Method: serve.MethodCloseness, Targets: []int64{ids[12], ids[34], ids[56]}, Eps: 0.1, Delta: 0.05, Seed: 3},
		{Method: serve.MethodKPath, Targets: []int64{ids[88], ids[188]}, Eps: 0.1, Delta: 0.05, K: 3, Seed: 4},
		{Method: serve.MethodSaPHyRa, Targets: []int64{ids[1], ids[2], ids[3], ids[5]}, Eps: 0.1, Delta: 0.05, Seed: 5},
		{Method: serve.MethodCloseness, Targets: []int64{ids[400], ids[401]}, Eps: 0.1, Delta: 0.05, Seed: 6},
	}

	// Phase A: warm traffic, no failures. Each distinct query twice through
	// the router: the second must be a cache hit on the same replica, and
	// the fleet as a whole must compute each exactly once.
	base := computesOf(t, f.ReplicaURLs)
	for i, req := range warmSet {
		first, code, _ := postRankURL(t, f.RouterURL, req)
		if code != http.StatusOK {
			t.Fatalf("warm %d: status %d", i, code)
		}
		check(first)
		if first.Generation != 1 {
			t.Fatalf("warm %d: generation %d, want 1", i, first.Generation)
		}
		second, code, _ := postRankURL(t, f.RouterURL, req)
		if code != http.StatusOK {
			t.Fatalf("warm %d repeat: status %d", i, code)
		}
		check(second)
		if !second.Cached {
			t.Errorf("warm %d repeat: not served from cache", i)
		}
	}
	if got := computesOf(t, f.ReplicaURLs) - base; got != int64(len(warmSet)) {
		t.Fatalf("no-failure phase computed %d times for %d distinct queries", got, len(warmSet))
	}

	// Concurrent duplicates of one cold query must collapse into a single
	// computation (router affinity lands them on one replica; its
	// singleflight does the rest).
	base = computesOf(t, f.ReplicaURLs)
	burst := serve.RankRequest{Method: serve.MethodSaPHyRa,
		Targets: []int64{ids[42], ids[43], ids[44]}, Eps: 0.1, Delta: 0.05, Seed: 999}
	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, code, _ := postRankURL(t, f.RouterURL, burst)
			if code != http.StatusOK {
				t.Errorf("burst: status %d", code)
				return
			}
			check(resp)
		}()
	}
	wg.Wait()
	if got := computesOf(t, f.ReplicaURLs) - base; got != 1 {
		t.Fatalf("16 concurrent duplicates computed %d times, want 1", got)
	}

	// Phase B: rolling reload with traffic in flight. Collect every 200 the
	// background load receives; during the roll the fleet may answer from
	// generation 1 or 2, never anything else, and every byte must still
	// verify.
	stop := make(chan struct{})
	var collected []*serve.RankResponse
	var cmu sync.Mutex
	var tg sync.WaitGroup
	for w := 0; w < 4; w++ {
		tg.Add(1)
		go func(w int) {
			defer tg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				resp, code, _ := postRankURL(t, f.RouterURL, warmSet[(i+w)%len(warmSet)])
				if code != http.StatusOK {
					t.Errorf("mid-roll status %d", code)
					continue
				}
				cmu.Lock()
				collected = append(collected, resp)
				cmu.Unlock()
			}
		}(w)
	}
	time.Sleep(50 * time.Millisecond)
	gens, err := RollingReload(context.Background(), http.DefaultClient, f.ReplicaURLs)
	if err != nil {
		t.Fatalf("rolling reload: %v", err)
	}
	time.Sleep(50 * time.Millisecond)
	close(stop)
	tg.Wait()
	for i, gen := range gens {
		if gen != 2 {
			t.Fatalf("replica %d rolled to generation %d, want 2", i, gen)
		}
	}
	for _, resp := range collected {
		if resp.Generation != 1 && resp.Generation != 2 {
			t.Fatalf("mid-roll response carries generation %d; only adjacent generations may coexist", resp.Generation)
		}
		check(resp)
	}
	for i, base := range f.ReplicaURLs {
		if gen := statusz(t, base)["saphyra_generation"]; gen != 2 {
			t.Fatalf("replica %d still at generation %v after the roll", i, gen)
		}
	}

	// Re-warm post-roll and record which replica owns each warm key now —
	// the X-Saphyra-Replica header is the router telling us.
	owner := make([]string, len(warmSet))
	for i, req := range warmSet {
		resp, code, hdr := postRankURL(t, f.RouterURL, req)
		if code != http.StatusOK {
			t.Fatalf("re-warm %d: status %d", i, code)
		}
		if resp.Generation != 2 {
			t.Fatalf("re-warm %d: generation %d after roll, want 2 (stale cache served across generations)", i, resp.Generation)
		}
		check(resp)
		owner[i] = hdr.Get("X-Saphyra-Replica")
		if owner[i] == "" {
			t.Fatalf("re-warm %d: no X-Saphyra-Replica header", i)
		}
	}

	// Phase C: hard-kill the replica serving warm key 0, with traffic in
	// flight. Every request must still answer 200 (the hop budget covers
	// one dead replica) and the survivors may recompute each of the
	// victim's keys at most once — a hop retry lands on one survivor and
	// singleflight collapses everything behind it.
	victim := -1
	for i, u := range f.ReplicaURLs {
		if u == owner[0] {
			victim = i
		}
	}
	if victim < 0 {
		t.Fatalf("answering replica %q not in fleet %v", owner[0], f.ReplicaURLs)
	}
	survivors := make([]string, 0, 2)
	for i, u := range f.ReplicaURLs {
		if i != victim {
			survivors = append(survivors, u)
		}
	}
	victimKeys := 0
	for _, o := range owner {
		if o == owner[0] {
			victimKeys++
		}
	}
	base = computesOf(t, survivors)

	stop = make(chan struct{})
	var kg sync.WaitGroup
	for w := 0; w < 4; w++ {
		kg.Add(1)
		go func(w int) {
			defer kg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				resp, code, hdr := postRankURL(t, f.RouterURL, warmSet[(i+w)%len(warmSet)])
				if code != http.StatusOK {
					t.Errorf("mid-kill status %d", code)
					continue
				}
				if got := hdr.Get("X-Saphyra-Replica"); got == "" {
					t.Errorf("mid-kill response without X-Saphyra-Replica")
				}
				check(resp)
			}
		}(w)
	}
	time.Sleep(30 * time.Millisecond)
	f.KillReplica(victim)
	time.Sleep(200 * time.Millisecond)
	close(stop)
	kg.Wait()

	// One deterministic sequential pass: everything re-homed during the
	// concurrent window, so nothing may compute again — hop retries hit the
	// survivors' caches, not their engines.
	settled := computesOf(t, survivors)
	if delta := settled - base; delta > int64(victimKeys) {
		t.Fatalf("kill failover computed %d times for %d victim-owned keys (duplicate computes)", delta, victimKeys)
	}
	for i, req := range warmSet {
		resp, code, hdr := postRankURL(t, f.RouterURL, req)
		if code != http.StatusOK {
			t.Fatalf("post-kill %d: status %d", i, code)
		}
		if got := hdr.Get("X-Saphyra-Replica"); got == owner[0] {
			t.Fatalf("post-kill %d: answered by the killed replica %s", i, got)
		}
		if resp.Generation != 2 {
			t.Fatalf("post-kill %d: generation %d, want 2", i, resp.Generation)
		}
		check(resp)
	}
	if delta := computesOf(t, survivors) - settled; delta != 0 {
		t.Fatalf("settled post-kill pass computed %d times, want 0 (hop retries must not duplicate computes)", delta)
	}
}

// TestClusterPeerFillSingleCompute pins the peer cache-fill tier end to
// end: once a key's TRUE ring home has computed it, every other replica
// serves it by adopting the home's cached envelope — zero extra
// computations, bitwise-identical bytes.
func TestClusterPeerFillSingleCompute(t *testing.T) {
	viewPath, ids := buildClusterView(t, 400)
	f := startTestFleet(t, viewPath)
	pos := make(map[int64]saphyra.Node, len(ids))
	for i, id := range ids {
		pos[id] = saphyra.Node(i)
	}

	req := serve.RankRequest{Method: serve.MethodSaPHyRa,
		Targets: []int64{ids[10], ids[20], ids[30]}, Eps: 0.1, Delta: 0.05, Seed: 77}
	// Find the key's true home on the replica ring without issuing any
	// request: the canonical key is a pure function of the query contract,
	// and the ring every fleet member built is positional over ReplicaURLs.
	key := canonicalKeyOf(t, &serve.RankResponse{
		Method: req.Method, Nodes: req.Targets,
		Eps: req.Eps, Delta: req.Delta, Seed: req.Seed,
	}, pos)
	ring, err := NewRing(f.ReplicaURLs, 0)
	if err != nil {
		t.Fatal(err)
	}
	home := ring.Owner(KeyHash(key))

	// Warm the home directly — the key's ONLY computation — then hit the
	// other replicas directly: each must answer without computing.
	homeResp, code, _ := postRankURL(t, f.ReplicaURLs[home], req)
	if code != http.StatusOK {
		t.Fatalf("home warm: status %d", code)
	}
	before := computesOf(t, f.ReplicaURLs)
	for i, u := range f.ReplicaURLs {
		if i == home {
			continue
		}
		got, code, _ := postRankURL(t, u, req)
		if code != http.StatusOK {
			t.Fatalf("replica %d: status %d", i, code)
		}
		if !got.Cached {
			t.Errorf("replica %d: peer-filled response not marked cached", i)
		}
		a, _ := json.Marshal(homeResp.Scores)
		b, _ := json.Marshal(got.Scores)
		if !bytes.Equal(a, b) {
			t.Fatalf("replica %d: adopted scores differ from the home's bytes", i)
		}
	}
	if delta := computesOf(t, f.ReplicaURLs) - before; delta != 0 {
		t.Fatalf("peer fill still computed %d times; want every non-home replica to adopt", delta)
	}
	fills := 0.0
	for i, u := range f.ReplicaURLs {
		if i != home {
			fills += statusz(t, u)[`saphyra_peer_fill_total{result="hit"}`]
		}
	}
	if fills < 2 {
		t.Fatalf("peer fill hits %v, want 2 (one per non-home replica)", fills)
	}
}

// TestClusterLoadgenHitDominatedSLO replays the cluster-hit-dominated mix
// open-loop through the router and gates on bitwise verification of
// sampled responses and on the hit rate — the same acceptance shape the
// single-box serving tier has, aimed at the fleet. The mix's SLO verdict
// is wall-clock, and a loaded machine can miss it with no code at fault,
// so it is TestClusterLoadgenHitDominatedSLOWallClock's (build tag
// timing), which runs alone.
func TestClusterLoadgenHitDominatedSLO(t *testing.T) {
	r := replayClusterHitDominated(t)
	if r.HitRate < 0.9 {
		t.Fatalf("hit rate %.2f through the router; warmed hit-dominated traffic should be nearly all hits", r.HitRate)
	}
}

// replayClusterHitDominated replays the cluster-hit-dominated mix, scaled
// to 200 requests a second for a second, through a fresh 3-replica fleet's
// router, verifying every fourth response bit for bit against the view,
// and returns the run's report. Any verification failure fails t.
func replayClusterHitDominated(t *testing.T) *loadgen.Report {
	t.Helper()
	viewPath, ids := buildClusterView(t, 600)
	f := startTestFleet(t, viewPath)
	verifier, err := loadgen.NewVerifier(viewPath)
	if err != nil {
		t.Fatal(err)
	}
	defer verifier.Close()

	m := loadgen.ClusterHitDominated().Scale(200, time.Second)
	sched, err := loadgen.Build(m, ids, 1)
	if err != nil {
		t.Fatal(err)
	}
	r, err := loadgen.Run(context.Background(), sched, loadgen.Options{
		Base: f.RouterURL, Warm: true, VerifyEvery: 4, Verifier: verifier,
	})
	if err != nil {
		t.Fatal(err)
	}
	if r.Verified == 0 {
		t.Fatal("no responses verified")
	}
	if r.VerifyFailed > 0 {
		t.Fatalf("%d of %d sampled responses not bitwise-equal: %v", r.VerifyFailed, r.Verified, r.VerifyErrors)
	}
	return r
}

// TestRouterRelaysBackpressure pins the router's non-retry contract: a 4xx
// from a replica (including 429 shed) is that replica's answer and must
// come back as-is — multiplied shed would turn one overloaded replica into
// fleet-wide retry pressure.
func TestRouterRelaysBackpressure(t *testing.T) {
	viewPath, ids := buildClusterView(t, 400)
	f := startTestFleet(t, viewPath)
	_, code, _ := postRankURL(t, f.RouterURL, serve.RankRequest{
		Method: "no-such-method", Targets: []int64{ids[1]}})
	if code != http.StatusBadRequest {
		t.Fatalf("contract error relayed as %d, want 400", code)
	}

	// Kill the whole fleet: the router must exhaust its hop budget and shed
	// with 503 + Retry-After, the same backpressure shape one overloaded
	// replica presents.
	for i := range f.ReplicaURLs {
		f.KillReplica(i)
	}
	body, _ := json.Marshal(serve.RankRequest{Method: serve.MethodSaPHyRa, Targets: []int64{ids[1]}})
	resp, err := http.Post(f.RouterURL+"/v1/rank", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	io.Copy(io.Discard, resp.Body)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("dead fleet answered %d, want 503", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("hops-exhausted 503 must carry Retry-After")
	}
	st := statusz(t, f.RouterURL)
	if st["saphyra_router_exhausted_total"] == 0 {
		t.Fatal("router statusz should count the exhausted request")
	}
	// Every router /statusz entry is a /metricsz sample with the same value.
	r2, err := http.Get(f.RouterURL + "/metricsz")
	if err != nil {
		t.Fatal(err)
	}
	defer r2.Body.Close()
	metricsz, err := io.ReadAll(r2.Body)
	if err != nil {
		t.Fatal(err)
	}
	for key, v := range st {
		line := fmt.Sprintf("\n%s %s\n", key, strconv.FormatFloat(v, 'g', -1, 64))
		if !bytes.Contains(metricsz, []byte(line)) {
			t.Errorf("router statusz %s = %v is not a /metricsz sample", key, v)
		}
	}
}
