package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"testing"
	"time"

	"saphyra"
	"saphyra/internal/obs"
	"saphyra/internal/serve"
)

// benchView writes the view the benchmarks and the route-hit gates serve: a
// Fig-3-sized synthetic social graph — the same graph shape the single-box
// serving benchmarks use, so the route-hit row is directly comparable to
// BenchmarkServeRankCacheHit — with non-identity original ids. It returns
// the file, the ids and the body of one small SaPHyRa query against it.
func benchView(t testing.TB) (path string, ids []int64, body []byte) {
	t.Helper()
	g := saphyra.Generate.BarabasiAlbert(4000, 5, 42)
	ids = make([]int64, g.NumNodes())
	for i := range ids {
		ids[i] = int64(i)*3 + 1
	}
	path = t.TempDir() + "/bench.sbcv"
	if err := saphyra.BuildView(g, ids).WriteFile(path); err != nil {
		t.Fatal(err)
	}
	body, err := json.Marshal(serve.RankRequest{
		Method:  serve.MethodSaPHyRa,
		Targets: []int64{ids[17], ids[99], ids[1024], ids[2048]},
		Eps:     0.05, Delta: 0.05, Seed: 7,
	})
	if err != nil {
		t.Fatal(err)
	}
	return path, ids, body
}

// benchServe is the serving config of every replica and single box here.
var benchServe = serve.Config{DisablePrecompute: true, CacheEntries: 1 << 16}

// startBenchFleet boots a 3-replica fleet on path with active probing off.
func startBenchFleet(t testing.TB, path string) *Fleet {
	t.Helper()
	f, err := StartFleet(path, FleetConfig{
		Replicas: 3,
		Serve:    benchServe,
		Router:   RouterConfig{ProbeInterval: -1},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(f.Close)
	return f
}

func postOnce(t testing.TB, client *http.Client, url string, body []byte) {
	t.Helper()
	resp, err := client.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
}

// BenchmarkClusterRouteHit is the steady-state cost of a cache hit through
// the whole cluster path: client HTTP hop to the router, ring placement,
// router HTTP hop to the replica, replica cache hit, two relays back. The
// single-box baseline is BenchmarkServeRankCacheHit (internal/serve);
// TestClusterRouteHitLatencyWallClock holds the p99 ratio.
func BenchmarkClusterRouteHit(b *testing.B) {
	path, _, body := benchView(b)
	f := startBenchFleet(b, path)
	client := &http.Client{}
	url := f.RouterURL + "/v1/rank"
	postOnce(b, client, url, body) // warm the entry at its route home
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		postOnce(b, client, url, body)
	}
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "req/s")
}

// BenchmarkPeerFill is the cost of one peer cache-fill round trip: the
// GET /internal/cache probe plus envelope decode against a peer that holds
// the entry — the price a non-home replica pays to skip a recompute.
func BenchmarkPeerFill(b *testing.B) {
	path, ids, body := benchView(b)
	f := startBenchFleet(b, path)
	client := &http.Client{}
	pos := make(map[int64]saphyra.Node, len(ids))
	for i, id := range ids {
		pos[id] = saphyra.Node(i)
	}

	// Warm the entry at its TRUE ring home (direct request), then probe it
	// from outside the fleet (self = -1 probes whoever owns the key).
	var resp *serve.RankResponse
	{
		r, err := client.Post(f.RouterURL+"/v1/rank", "application/json", bytes.NewReader(body))
		if err != nil {
			b.Fatal(err)
		}
		defer r.Body.Close()
		if err := json.NewDecoder(r.Body).Decode(&resp); err != nil {
			b.Fatal(err)
		}
	}
	key := canonicalKeyOf(b, resp, pos)
	ring, err := NewRing(f.ReplicaURLs, 0)
	if err != nil {
		b.Fatal(err)
	}
	home := ring.Owner(KeyHash(key))
	postOnce(b, client, f.ReplicaURLs[home]+"/v1/rank", body)

	peers, err := NewPeers(f.ReplicaURLs, -1, 0, client, time.Second)
	if err != nil {
		b.Fatal(err)
	}
	ctx := context.Background()
	if _, ok := peers.Fill(ctx, resp.Generation, key); !ok {
		b.Fatal("warmed entry not fillable")
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok := peers.Fill(ctx, resp.Generation, key); !ok {
			b.Fatal("peer fill missed")
		}
	}
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "fill/s")
}

// routeHitRequests is how many cache hits each route-hit gate sends.
const routeHitRequests = 1200

// TestClusterRouteHitLatencyGate checks what a warm cache hit through the
// router does: each of the requests is relayed once, to the same replica,
// and answered from that replica's cache, with no miss, no retry hop and no
// peer fill anywhere in the fleet. What the hit costs in wall-clock time is
// TestClusterRouteHitLatencyWallClock's bound (build tag timing), which runs
// alone because a loaded machine moves it.
func TestClusterRouteHitLatencyGate(t *testing.T) {
	path, _, body := benchView(t)
	f := startBenchFleet(t, path)
	client := &http.Client{}
	url := f.RouterURL + "/v1/rank"
	postOnce(t, client, url, body)

	statuszAll := func() []map[string]float64 {
		out := []map[string]float64{statusz(t, f.RouterURL)}
		for _, u := range f.ReplicaURLs {
			out = append(out, statusz(t, u))
		}
		return out
	}
	before := statuszAll()
	var home string
	for i := 0; i < routeHitRequests; i++ {
		resp, err := client.Post(url, "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		var out serve.RankResponse
		err = json.NewDecoder(resp.Body).Decode(&out)
		resp.Body.Close()
		if err != nil || resp.StatusCode != http.StatusOK {
			t.Fatalf("request %d: status %d, decode error %v", i, resp.StatusCode, err)
		}
		if !out.Cached {
			t.Fatalf("request %d: not a cache hit", i)
		}
		replica := resp.Header.Get("X-Saphyra-Replica")
		if home == "" {
			home = replica
		}
		if replica != home {
			t.Fatalf("request %d answered by %q, earlier ones by %q", i, replica, home)
		}
	}
	after := statuszAll()

	check := func(i int, key string, want float64) {
		t.Helper()
		if _, ok := after[i][key]; !ok {
			t.Fatalf("no counter %s", key)
		}
		if d := after[i][key] - before[i][key]; d != want {
			t.Errorf("%s: moved by %v over %d hits, want %v", key, d, routeHitRequests, want)
		}
	}
	for r, u := range f.ReplicaURLs {
		want := 0.0
		if u == home {
			want = routeHitRequests
		}
		route := `saphyra_router_route_total{` + obs.Label("replica", u)
		check(0, route+`,outcome="forwarded"}`, want)
		check(0, route+`,outcome="connect_error"}`, 0)
		check(0, route+`,outcome="upstream_5xx"}`, 0)
		check(r+1, `saphyra_cache_events_total{kind="hit"}`, want)
		check(r+1, `saphyra_cache_events_total{kind="miss"}`, 0)
		for _, res := range []string{"hit", "miss", "rejected"} {
			check(r+1, `saphyra_peer_fill_total{result="`+res+`"}`, 0)
		}
		check(r+1, `saphyra_internal_cache_total{result="hit"}`, 0)
		check(r+1, `saphyra_internal_cache_total{result="miss"}`, 0)
	}
}
