//go:build timing

package cluster

import (
	"bytes"
	"io"
	"net"
	"net/http"
	"sort"
	"testing"
	"time"

	"saphyra/internal/serve"
)

// measureHitP99 issues n sequential cache-hit requests and returns the p99
// latency.
func measureHitP99(t testing.TB, client *http.Client, url string, body []byte, n int) time.Duration {
	t.Helper()
	lat := make([]time.Duration, 0, n)
	for i := 0; i < n; i++ {
		t0 := time.Now()
		resp, err := client.Post(url, "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("status %d", resp.StatusCode)
		}
		lat = append(lat, time.Since(t0))
	}
	sort.Slice(lat, func(a, b int) bool { return lat[a] < lat[b] })
	return lat[n*99/100]
}

// TestClusterRouteHitLatencyWallClock is the distributed tier's latency
// acceptance bar: a cache hit through the router must stay within 5x the
// p99 of the same hit against a single replica over the same transport
// (one HTTP hop to a lone server on a loopback listener). The comparison
// is like for like — both sides pay a real HTTP round trip — so the gate
// prices exactly what the cluster adds: ring placement, the second hop,
// and the relay. A floor absorbs loopback scheduling noise when the
// single-box p99 lands in the sub-millisecond range. A loaded machine moves
// both p99s unevenly, so it runs alone:
//
//	go test -tags timing -p 1 -count=1 -run WallClock ./internal/cluster/
func TestClusterRouteHitLatencyWallClock(t *testing.T) {
	if testing.Short() {
		t.Skip("timing test")
	}
	path, _, body := benchView(t)
	client := &http.Client{}

	// Single box over a real loopback listener.
	single, err := serve.New(path, benchServe)
	if err != nil {
		t.Fatal(err)
	}
	defer single.Close()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	hs := &http.Server{Handler: single.Handler()}
	go hs.Serve(ln)
	defer hs.Close()
	singleURL := "http://" + ln.Addr().String() + "/v1/rank"
	postOnce(t, client, singleURL, body)
	singleP99 := measureHitP99(t, client, singleURL, body, routeHitRequests)

	f := startBenchFleet(t, path)
	routerURL := f.RouterURL + "/v1/rank"
	postOnce(t, client, routerURL, body)
	clusterP99 := measureHitP99(t, client, routerURL, body, routeHitRequests)

	floor := 500 * time.Microsecond
	budget := 5 * max(singleP99, floor)
	t.Logf("single-box hit p99 %v, cluster hit p99 %v, budget %v", singleP99, clusterP99, budget)
	if clusterP99 > budget {
		t.Fatalf("cluster cache-hit p99 %v exceeds 5x single-box p99 %v (budget %v)",
			clusterP99, singleP99, budget)
	}
}
