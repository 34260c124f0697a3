package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"runtime"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"

	"saphyra"
	"saphyra/internal/graph"
)

// writeTestView builds a view over g with a non-identity original-id space
// (original = dense*3 + 1) and persists it.
func writeTestView(t testing.TB, g *graph.Graph) (path string, ids []int64) {
	t.Helper()
	ids = make([]int64, g.NumNodes())
	for i := range ids {
		ids[i] = int64(i)*3 + 1
	}
	path = filepath.Join(t.TempDir(), "serve.sbcv")
	if err := saphyra.BuildView(g, ids).WriteFile(path); err != nil {
		t.Fatal(err)
	}
	return path, ids
}

func newTestServer(t testing.TB, g *graph.Graph, cfg Config) (*Server, []int64) {
	t.Helper()
	path, ids := writeTestView(t, g)
	s, err := New(path, cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	return s, ids
}

func postRank(t testing.TB, h http.Handler, req RankRequest) (*RankResponse, int) {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	w := httptest.NewRecorder()
	h.ServeHTTP(w, httptest.NewRequest("POST", "/v1/rank", bytes.NewReader(body)))
	if w.Code != http.StatusOK {
		return nil, w.Code
	}
	var resp RankResponse
	if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil {
		t.Fatalf("bad response body: %v", err)
	}
	return &resp, w.Code
}

// TestServeGoldenBitwise is the acceptance gate: for all three methods, the
// daemon's scores for a persisted view must be bitwise-identical to what
// `cmd/saphyra -view` computes — i.e. to the library serving path
// (OpenView + View.Ranker) on the same file. JSON float64 encoding is exact
// (shortest round-trip form), so the comparison is on the decoded bits.
func TestServeGoldenBitwise(t *testing.T) {
	g := saphyra.Generate.BarabasiAlbert(800, 3, 12)
	s, ids := newTestServer(t, g, Config{DisablePrecompute: true})

	// Original-id targets; the library path translates them exactly like
	// cmd/saphyra does.
	rawTargets := []int64{ids[7], ids[100], ids[500], ids[777]}
	dense := []saphyra.Node{7, 100, 500, 777}
	q := saphyra.Query{Targets: dense, Epsilon: 0.05, Delta: 0.05, Seed: 5, Workers: 4}

	view, err := saphyra.OpenView(s.viewPath)
	if err != nil {
		t.Fatal(err)
	}
	defer view.Close()

	want := map[string]*saphyra.Result{}
	vr := view.Ranker()
	for method, m := range map[string]saphyra.Measure{
		MethodSaPHyRa: saphyra.Betweenness, MethodKPath: saphyra.KPath, MethodCloseness: saphyra.Closeness,
	} {
		mq := q
		mq.Measure, mq.K = m, 4
		if want[method], err = vr.Rank(context.Background(), mq); err != nil {
			t.Fatal(err)
		}
	}

	for _, method := range methods {
		resp, code := postRank(t, s.Handler(), RankRequest{
			Method: method, Targets: rawTargets,
			Eps: q.Epsilon, Delta: q.Delta, Seed: q.Seed, K: 4,
		})
		if code != http.StatusOK {
			t.Fatalf("%s: status %d", method, code)
		}
		ref := want[method]
		if resp.Samples != ref.Samples {
			t.Errorf("%s: samples %d, library %d", method, resp.Samples, ref.Samples)
		}
		if len(resp.Nodes) != len(ref.Nodes) {
			t.Fatalf("%s: %d nodes, library %d", method, len(resp.Nodes), len(ref.Nodes))
		}
		for i := range ref.Nodes {
			if resp.Nodes[i] != ids[ref.Nodes[i]] {
				t.Errorf("%s: node[%d] = %d, library %d", method, i, resp.Nodes[i], ids[ref.Nodes[i]])
			}
			if resp.Scores[i] != ref.Scores[i] {
				t.Errorf("%s: score[%d] = %v, library %v — not bitwise-identical", method, i, resp.Scores[i], ref.Scores[i])
			}
			if resp.Ranks[i] != ref.Rank[i] {
				t.Errorf("%s: rank[%d] = %d, library %d", method, i, resp.Ranks[i], ref.Rank[i])
			}
		}
	}
}

// TestServeCachedFlagAndDeterminism: the second identical request is an LRU
// hit with an identical body; a request differing only in worker-irrelevant
// ways hits the same entry.
func TestServeCachedFlagAndDeterminism(t *testing.T) {
	g := saphyra.Generate.BarabasiAlbert(300, 3, 9)
	s, ids := newTestServer(t, g, Config{DisablePrecompute: true})
	req := RankRequest{Method: MethodSaPHyRa, Targets: []int64{ids[3], ids[30], ids[200]}, Eps: 0.1, Delta: 0.05, Seed: 2}

	first, code := postRank(t, s.Handler(), req)
	if code != http.StatusOK {
		t.Fatal("first request failed")
	}
	if first.Cached {
		t.Error("first request reported cached")
	}
	second, _ := postRank(t, s.Handler(), req)
	if !second.Cached {
		t.Error("second identical request missed the cache")
	}
	// Duplicated + reordered targets canonicalize to the same set → same entry.
	shuffled := req
	shuffled.Targets = []int64{ids[200], ids[3], ids[30], ids[3]}
	third, _ := postRank(t, s.Handler(), shuffled)
	if !third.Cached {
		t.Error("reordered target set missed the cache")
	}
	for i := range first.Scores {
		if first.Scores[i] != second.Scores[i] || first.Scores[i] != third.Scores[i] {
			t.Fatal("cached responses differ from the computed one")
		}
	}
	if hits := s.cache.hits.Load(); hits != 2 {
		t.Errorf("cache hits = %d, want 2", hits)
	}
}

// TestServeTopK: ordered prefix of the full ranking, warm after precompute,
// consistent with a direct full rank-all.
func TestServeTopK(t *testing.T) {
	g := saphyra.Generate.BarabasiAlbert(250, 3, 4)
	s, ids := newTestServer(t, g, Config{})

	w := httptest.NewRecorder()
	s.Handler().ServeHTTP(w, httptest.NewRequest("GET", "/v1/topk?method=closeness&k=10", nil))
	if w.Code != http.StatusOK {
		t.Fatalf("topk status %d: %s", w.Code, w.Body.String())
	}
	var resp RankResponse
	if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if !resp.Cached {
		t.Error("topk was not precomputed")
	}
	if len(resp.Nodes) != 10 {
		t.Fatalf("topk returned %d rows, want 10", len(resp.Nodes))
	}
	for i, r := range resp.Ranks {
		if r != i+1 {
			t.Fatalf("topk rank[%d] = %d, want %d (must be ordered)", i, r, i+1)
		}
	}

	// Cross-check the head against the library's full ranking.
	view, err := saphyra.OpenView(s.viewPath)
	if err != nil {
		t.Fatal(err)
	}
	defer view.Close()
	all := make([]saphyra.Node, g.NumNodes())
	for i := range all {
		all[i] = saphyra.Node(i)
	}
	ref, err := view.Ranker().Rank(context.Background(), saphyra.Query{
		Measure: saphyra.Closeness, Targets: all, Epsilon: 0.05, Delta: 0.01, Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	byRank := make(map[int]int, len(ref.Rank))
	for i, r := range ref.Rank {
		byRank[r] = i
	}
	for i := 0; i < 10; i++ {
		j := byRank[i+1]
		if resp.Nodes[i] != ids[ref.Nodes[j]] || resp.Scores[i] != ref.Scores[j] {
			t.Fatalf("topk row %d = (%d, %v), library (%d, %v)",
				i, resp.Nodes[i], resp.Scores[i], ids[ref.Nodes[j]], ref.Scores[j])
		}
	}

	// k larger than n clamps.
	w = httptest.NewRecorder()
	s.Handler().ServeHTTP(w, httptest.NewRequest("GET", "/v1/topk?method=closeness&k=100000", nil))
	json.Unmarshal(w.Body.Bytes(), &resp)
	if len(resp.Nodes) != g.NumNodes() {
		t.Fatalf("oversized k returned %d rows, want n = %d", len(resp.Nodes), g.NumNodes())
	}
}

// TestSortByRankMatchesSort: the top-k index's rank order, built by placing
// each entry at its rank, is the payload a sort by rank builds, field for
// field and bit for bit, on every method's whole-network payload.
func TestSortByRankMatchesSort(t *testing.T) {
	g := saphyra.Generate.BarabasiAlbert(250, 3, 4)
	s, _ := newTestServer(t, g, Config{DisablePrecompute: true})
	lv := s.cur.Load()
	for _, m := range methods {
		q, err := s.buildQuery(lv, m, nil, 0, 0, 0, 0, true)
		if err != nil {
			t.Fatal(err)
		}
		res, err := lv.ranker.Rank(context.Background(), q)
		if err != nil {
			t.Fatal(err)
		}
		p := &payload{nodes: make([]int64, len(res.Nodes)), scores: res.Scores, ranks: res.Rank, samples: res.Samples}
		for i, v := range res.Nodes {
			p.nodes[i] = lv.original(v)
		}
		if len(p.ranks) != g.NumNodes() {
			t.Fatalf("%s: %d ranks, want a whole-network payload of %d", m, len(p.ranks), g.NumNodes())
		}
		got, want := sortByRank(p), sortByRankReference(p)
		if got.samples != want.samples || !slices.Equal(got.nodes, want.nodes) || !slices.Equal(got.ranks, want.ranks) ||
			!slices.EqualFunc(got.scores, want.scores, func(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }) {
			t.Fatalf("%s: sortByRank differs from the sort-based order", m)
		}
	}
}

// sortByRankReference is sortByRank's former body: sort the entry order
// by rank, then gather.
func sortByRankReference(p *payload) *payload {
	order := make([]int, len(p.ranks))
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool { return p.ranks[order[a]] < p.ranks[order[b]] })
	out := &payload{
		nodes:   make([]int64, len(order)),
		scores:  make([]float64, len(order)),
		ranks:   make([]int, len(order)),
		samples: p.samples,
	}
	for i, j := range order {
		out.nodes[i] = p.nodes[j]
		out.scores[i] = p.scores[j]
		out.ranks[i] = p.ranks[j]
	}
	return out
}

// TestServeErrorClassification: caller faults are 400 with the offending
// field in the body, unknown routes 404, and the health/status endpoints
// report coherent state.
func TestServeErrorClassification(t *testing.T) {
	g := saphyra.Generate.BarabasiAlbert(200, 2, 3)
	s, ids := newTestServer(t, g, Config{DisablePrecompute: true})
	h := s.Handler()

	post := func(body string) *httptest.ResponseRecorder {
		w := httptest.NewRecorder()
		h.ServeHTTP(w, httptest.NewRequest("POST", "/v1/rank", bytes.NewReader([]byte(body))))
		return w
	}
	for name, tc := range map[string]struct {
		body string
		want string
	}{
		"bad json":       {"{", "body"},
		"unknown method": {`{"method":"pagerank","targets":[1]}`, "method"},
		"empty targets":  {`{"method":"saphyra","targets":[]}`, "targets"},
		"alien target":   {`{"method":"saphyra","targets":[2]}`, "targets"}, // ids are 3k+1: 2 not present
		"bad eps":        {`{"method":"saphyra","targets":[1],"eps":1.5}`, "epsilon"},
		"bad delta":      {`{"method":"saphyra","targets":[1],"delta":-1}`, "delta"},
		"bad k":          {`{"method":"kpath","targets":[1],"k":-2}`, "k"},
		"k above uint32": {`{"method":"kpath","targets":[1],"k":4294967299}`, "k"}, // would share k=3's cache key
	} {
		w := post(tc.body)
		if w.Code != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400 (%s)", name, w.Code, w.Body.String())
		}
		if !bytes.Contains(w.Body.Bytes(), []byte(tc.want)) {
			t.Errorf("%s: body %q does not name %q", name, w.Body.String(), tc.want)
		}
	}
	// A valid target in the original id space works (id 1 = dense 0).
	if _, code := postRank(t, h, RankRequest{Method: MethodSaPHyRa, Targets: []int64{ids[0]}, Eps: 0.3, Delta: 0.1}); code != http.StatusOK {
		t.Errorf("valid original-id target rejected: %d", code)
	}

	w := httptest.NewRecorder()
	h.ServeHTTP(w, httptest.NewRequest("GET", "/v1/rank", nil)) // wrong verb
	if w.Code != http.StatusMethodNotAllowed && w.Code != http.StatusNotFound {
		t.Errorf("GET /v1/rank = %d", w.Code)
	}

	w = httptest.NewRecorder()
	h.ServeHTTP(w, httptest.NewRequest("GET", "/healthz", nil))
	if w.Code != http.StatusOK {
		t.Errorf("healthz = %d", w.Code)
	}

	w = httptest.NewRecorder()
	h.ServeHTTP(w, httptest.NewRequest("GET", "/statusz", nil))
	if w.Code != http.StatusOK {
		t.Fatalf("statusz = %d", w.Code)
	}
	var st map[string]float64
	if err := json.Unmarshal(w.Body.Bytes(), &st); err != nil {
		t.Fatal(err)
	}
	if st["saphyra_generation"] != 1 || st["saphyra_view_nodes"] != float64(g.NumNodes()) ||
		st[`saphyra_request_errors_total{reason="bad_request"}`] < 7 {
		t.Errorf("statusz = %v", st)
	}
	// Every /statusz entry is a /metricsz sample with the same value (uptime
	// moves between the two reads).
	w = httptest.NewRecorder()
	h.ServeHTTP(w, httptest.NewRequest("GET", "/metricsz", nil))
	for key, v := range st {
		line := fmt.Sprintf("\n%s %s\n", key, strconv.FormatFloat(v, 'g', -1, 64))
		if key != "saphyra_uptime_seconds" && !strings.Contains(w.Body.String(), line) {
			t.Errorf("statusz %s = %v is not a /metricsz sample", key, v)
		}
	}
}

// TestServeReloadSwapsGeneration: a reload bumps the generation, keeps
// serving bitwise-identical results for the unchanged file, and purges
// old-generation cache entries.
func TestServeReloadSwapsGeneration(t *testing.T) {
	g := saphyra.Generate.BarabasiAlbert(300, 3, 6)
	s, ids := newTestServer(t, g, Config{DisablePrecompute: true})
	req := RankRequest{Method: MethodCloseness, Targets: []int64{ids[1], ids[99]}, Eps: 0.1, Delta: 0.05, Seed: 3}

	before, _ := postRank(t, s.Handler(), req)
	if before.Generation != 1 {
		t.Fatalf("generation = %d, want 1", before.Generation)
	}

	w := httptest.NewRecorder()
	s.Handler().ServeHTTP(w, httptest.NewRequest("POST", "/admin/reload", nil))
	if w.Code != http.StatusOK {
		t.Fatalf("reload status %d: %s", w.Code, w.Body.String())
	}
	if s.Generation() != 2 {
		t.Fatalf("generation after reload = %d, want 2", s.Generation())
	}

	after, _ := postRank(t, s.Handler(), req)
	if after.Generation != 2 {
		t.Fatalf("post-reload response generation = %d, want 2", after.Generation)
	}
	if after.Cached {
		t.Error("old-generation cache entry served after reload (keys must carry the generation)")
	}
	for i := range before.Scores {
		if before.Scores[i] != after.Scores[i] {
			t.Fatal("same file, different bits across generations")
		}
	}
	if n := s.cache.len(); n != 1 {
		t.Errorf("cache holds %d entries after purge, want 1", n)
	}
}

// TestAdmissionDeterministic drives the admission state machine directly:
// one slot, one queue position, third caller shed.
func TestAdmissionDeterministic(t *testing.T) {
	a := newAdmission(1, 1, 0)
	release, _, err := a.enter(context.Background(), false)
	if err != nil {
		t.Fatal(err)
	}
	if a.inFlight() != 1 {
		t.Fatalf("inFlight = %d, want 1", a.inFlight())
	}
	waiterDone := make(chan error, 1)
	go func() {
		r, _, err := a.enter(context.Background(), false)
		if err == nil {
			defer r()
		}
		waiterDone <- err
	}()
	for a.waitingNow() != 1 {
		runtime.Gosched() // until the waiter is queued
	}
	if _, _, err := a.enter(context.Background(), false); err != errOverloaded {
		t.Fatalf("third caller got %v, want overload shed", err)
	}
	release()
	if err := <-waiterDone; err != nil {
		t.Fatalf("queued caller got %v", err)
	}
	if a.inFlight() != 0 || a.waitingNow() != 0 {
		t.Fatalf("state leaked: inflight %d waiting %d", a.inFlight(), a.waitingNow())
	}
}

// TestServeOverloadSheds: with the single compute slot held and the queue
// position taken, the next distinct (uncacheable) request is shed with 429
// — deterministically, by occupying the admission state from the test.
func TestServeOverloadSheds(t *testing.T) {
	g := saphyra.Generate.BarabasiAlbert(400, 3, 7)
	s, ids := newTestServer(t, g, Config{MaxInFlight: 1, MaxQueue: 1, FastLaneSlots: -1, DisablePrecompute: true})
	mkReq := func(seed int64) RankRequest {
		// distinct seeds defeat both the cache and singleflight
		return RankRequest{
			Method: MethodSaPHyRa, Targets: []int64{ids[5], ids[50]},
			Eps: 0.02, Delta: 0.05, Seed: seed,
		}
	}

	release, _, err := s.adm.enter(context.Background(), false) // the test holds the only compute slot
	if err != nil {
		t.Fatal(err)
	}
	type result struct {
		resp *RankResponse
		code int
	}
	waiter := make(chan result, 1)
	go func() {
		resp, code := postRank(t, s.Handler(), mkReq(100))
		waiter <- result{resp, code}
	}()
	for s.adm.waitingNow() != 1 {
		runtime.Gosched() // until the request above is queued on the slot
	}

	if _, code := postRank(t, s.Handler(), mkReq(101)); code != http.StatusTooManyRequests {
		t.Fatalf("request beyond the queue bound got %d, want 429", code)
	}
	if s.m.shed.Value() != 1 {
		t.Fatalf("shed counter = %d, want 1", s.m.shed.Value())
	}

	release() // the queued request now computes and must succeed
	got := <-waiter
	if got.code != http.StatusOK {
		t.Fatalf("queued request got %d, want 200", got.code)
	}
	if got.resp.Cached || len(got.resp.Scores) != 2 {
		t.Fatalf("queued request returned a bad payload: %+v", got.resp)
	}
}

// testKey builds a distinct cacheKey for cache unit tests.
func testKey(gen uint64, tag byte) cacheKey {
	k := cacheKey{gen: gen}
	k.key[0] = tag
	return k
}

// TestCacheSingleflightCollapses: concurrent identical misses share one
// computation.
func TestCacheSingleflightCollapses(t *testing.T) {
	c := newCache(8)
	key := testKey(1, 'x')
	var calls atomic.Int64
	release := make(chan struct{})
	ready := make(chan struct{})

	leaderDone := make(chan *payload, 1)
	go func() {
		p, led, err := c.do(context.Background(), key, func(context.Context) (*payload, error) {
			calls.Add(1)
			close(ready)
			<-release
			return &payload{samples: 42}, nil
		})
		if !led || err != nil {
			t.Errorf("leader: led=%v err=%v", led, err)
		}
		leaderDone <- p
	}()
	<-ready

	const followers = 4
	followerDone := make(chan *payload, followers)
	for i := 0; i < followers; i++ {
		go func() {
			p, led, err := c.do(context.Background(), key, func(context.Context) (*payload, error) {
				calls.Add(1)
				return nil, fmt.Errorf("follower must not compute")
			})
			if led || err != nil {
				t.Errorf("follower: led=%v err=%v", led, err)
			}
			followerDone <- p
		}()
	}
	for c.collapsed.Load() != followers {
		runtime.Gosched() // until every follower has parked on the flight
	}
	close(release)

	want := <-leaderDone
	for i := 0; i < followers; i++ {
		if got := <-followerDone; got != want {
			t.Fatal("follower received a different payload")
		}
	}
	if calls.Load() != 1 {
		t.Fatalf("fn ran %d times, want 1", calls.Load())
	}
	if p, led, _ := c.do(context.Background(), key, nil); led || p != want {
		t.Fatal("post-flight lookup missed")
	}
}

// TestCachePanickingFlightDoesNotWedgeKey: a panic inside the flight
// computation (which now runs on a detached goroutine with no net/http
// recovery above it) must be recovered and settle the flight — the leader
// and every follower get an error instead of a dead process or a key that
// parks every future request forever.
func TestCachePanickingFlightDoesNotWedgeKey(t *testing.T) {
	c := newCache(4)
	key := testKey(1, 'b')

	_, led, err := c.do(context.Background(), key, func(context.Context) (*payload, error) {
		panic("engine blew up")
	})
	if !led || err == nil || !strings.Contains(err.Error(), "panicked") {
		t.Fatalf("led=%v err=%v, want led and a panic error", led, err)
	}

	done := make(chan error, 1)
	go func() {
		_, _, err := c.do(context.Background(), key, func(context.Context) (*payload, error) { return &payload{samples: 1}, nil })
		done <- err
	}()
	if err := <-done; err != nil {
		t.Fatalf("key wedged after flight panic: %v", err)
	}
	if p, led, err := c.do(context.Background(), key, nil); led || err != nil || p.samples != 1 {
		t.Fatalf("recomputed entry not cached: led=%v err=%v", led, err)
	}
}

// TestCacheEvictionAndPurge: LRU bound holds; purge drops other gens only.
func TestCacheEvictionAndPurge(t *testing.T) {
	c := newCache(3)
	ctx := context.Background()
	for i := int64(0); i < 5; i++ {
		i := i
		c.do(ctx, testKey(1, byte(i)), func(context.Context) (*payload, error) { return &payload{samples: i}, nil })
	}
	if c.len() != 3 {
		t.Fatalf("len = %d, want 3 (capacity)", c.len())
	}
	if _, led, _ := c.do(ctx, testKey(1, 0), func(context.Context) (*payload, error) { return &payload{}, nil }); !led {
		t.Fatal("evicted entry still served")
	}
	c.do(ctx, testKey(2, 100), func(context.Context) (*payload, error) { return &payload{}, nil })
	c.purgeOtherGens(2)
	if c.len() != 1 {
		t.Fatalf("len after purge = %d, want 1", c.len())
	}
	if _, led, _ := c.do(ctx, testKey(2, 100), func(context.Context) (*payload, error) { return &payload{}, nil }); led {
		t.Fatal("current-gen entry was purged")
	}
}
