package serve

import (
	"context"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"testing"

	"saphyra"
)

// keyOf canonicalizes a request through the server's own buildQuery and
// returns (generation, hex query key) — what a peer would use to probe
// /internal/cache for it.
func keyOf(t *testing.T, s *Server, req RankRequest) (uint64, string) {
	t.Helper()
	lv, err := s.acquire()
	if err != nil {
		t.Fatal(err)
	}
	defer lv.handle.Release()
	q, err := s.buildQuery(lv, req.Method, req.Targets, req.Eps, req.Delta, req.K, req.Seed, false)
	if err != nil {
		t.Fatal(err)
	}
	k := q.Key()
	return lv.gen(), hex.EncodeToString(k[:])
}

func getInternalCache(t *testing.T, h http.Handler, gen uint64, key string) (*RankResponse, int) {
	t.Helper()
	w := httptest.NewRecorder()
	h.ServeHTTP(w, httptest.NewRequest("GET",
		fmt.Sprintf("/internal/cache?gen=%d&key=%s", gen, key), nil))
	if w.Code != http.StatusOK {
		return nil, w.Code
	}
	var resp RankResponse
	if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil {
		t.Fatalf("bad body: %v", err)
	}
	return &resp, w.Code
}

// TestInternalCacheEndpoint: GET /internal/cache answers from the local LRU
// only — bitwise-equal payload for a cached key, 404 for an uncached one
// (without computing), 400 for malformed parameters — and peer probes do
// not distort the cache's own hit statistics.
func TestInternalCacheEndpoint(t *testing.T) {
	g := saphyra.Generate.BarabasiAlbert(300, 3, 9)
	s, ids := newTestServer(t, g, Config{DisablePrecompute: true})
	req := RankRequest{Method: MethodSaPHyRa, Targets: []int64{ids[3], ids[30], ids[200]}, Eps: 0.1, Delta: 0.05, Seed: 2}

	want, code := postRank(t, s.Handler(), req)
	if code != http.StatusOK {
		t.Fatalf("rank failed: %d", code)
	}
	hitsBefore := s.cache.hits.Load()

	gen, key := keyOf(t, s, req)
	got, code := getInternalCache(t, s.Handler(), gen, key)
	if code != http.StatusOK {
		t.Fatalf("cached key answered %d", code)
	}
	if !got.Cached || got.Generation != gen || got.Samples != want.Samples {
		t.Fatalf("envelope mismatch: cached=%v gen=%d samples=%d", got.Cached, got.Generation, got.Samples)
	}
	for i := range want.Nodes {
		if got.Nodes[i] != want.Nodes[i] || got.Scores[i] != want.Scores[i] || got.Ranks[i] != want.Ranks[i] {
			t.Fatalf("entry %d not bitwise-equal to the served response", i)
		}
	}
	if s.cache.hits.Load() != hitsBefore {
		t.Error("peer probe bumped the local hit counter")
	}

	// Uncached key: 404, and nothing was computed to answer it.
	missesBefore := s.cache.misses.Load()
	other := req
	other.Seed = 99
	ogen, okey := keyOf(t, s, other)
	if _, code := getInternalCache(t, s.Handler(), ogen, okey); code != http.StatusNotFound {
		t.Fatalf("uncached key answered %d, want 404", code)
	}
	if s.cache.misses.Load() != missesBefore {
		t.Error("peer probe started a computation")
	}
	// Wrong generation for a cached key is a miss too.
	if _, code := getInternalCache(t, s.Handler(), gen+1, key); code != http.StatusNotFound {
		t.Fatalf("wrong-generation probe answered %d, want 404", code)
	}

	for _, bad := range []string{
		"/internal/cache?gen=x&key=" + key,
		"/internal/cache?gen=1&key=zz",
		"/internal/cache?gen=1&key=abcd",
	} {
		w := httptest.NewRecorder()
		s.Handler().ServeHTTP(w, httptest.NewRequest("GET", bad, nil))
		if w.Code != http.StatusBadRequest {
			t.Errorf("%s answered %d, want 400", bad, w.Code)
		}
	}
}

// TestPeerFillAdoptsRemoteResult: a replica with a PeerFill hook adopts its
// home peer's cached bytes instead of computing — the fleet-warming path —
// and the adopted entry then serves local hits. Soundness is bitwise
// equality with the peer's response for the same (generation, key).
func TestPeerFillAdoptsRemoteResult(t *testing.T) {
	g := saphyra.Generate.BarabasiAlbert(300, 3, 9)
	path, ids := writeTestView(t, g)
	home, err := New(path, Config{DisablePrecompute: true})
	if err != nil {
		t.Fatal(err)
	}
	defer home.Close()

	var cfg Config
	cfg.DisablePrecompute = true
	cfg.PeerFill = peerFillVia(t, home)
	edge, err := New(path, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer edge.Close()

	req := RankRequest{Method: MethodSaPHyRa, Targets: []int64{ids[3], ids[30], ids[200]}, Eps: 0.1, Delta: 0.05, Seed: 2}
	want, code := postRank(t, home.Handler(), req)
	if code != http.StatusOK {
		t.Fatalf("home rank failed: %d", code)
	}

	got, code := postRank(t, edge.Handler(), req)
	if code != http.StatusOK {
		t.Fatalf("edge rank failed: %d", code)
	}
	if edge.m.peerFillHits.Value() != 1 {
		t.Fatalf("peer fill hits = %d, want 1", edge.m.peerFillHits.Value())
	}
	if got.Samples != want.Samples || len(got.Nodes) != len(want.Nodes) {
		t.Fatal("adopted payload shape differs from the peer's")
	}
	for i := range want.Nodes {
		if got.Nodes[i] != want.Nodes[i] || got.Scores[i] != want.Scores[i] || got.Ranks[i] != want.Ranks[i] {
			t.Fatalf("entry %d: adopted payload not bitwise-equal to the peer's", i)
		}
	}

	// The adopted entry is now a local LRU hit: no second peer probe.
	again, code := postRank(t, edge.Handler(), req)
	if code != http.StatusOK || !again.Cached {
		t.Fatalf("second edge request: code=%d cached=%v", code, again.Cached)
	}
	if edge.m.peerFillHits.Value() != 1 {
		t.Error("local hit re-probed the peer")
	}

	// A key the home peer has not computed falls through to local compute.
	miss := req
	miss.Seed = 7
	if _, code := postRank(t, edge.Handler(), miss); code != http.StatusOK {
		t.Fatalf("peer-miss rank failed: %d", code)
	}
	if edge.m.peerFillMisses.Value() != 1 {
		t.Fatalf("peer fill misses = %d, want 1", edge.m.peerFillMisses.Value())
	}
}

// TestPeerFillRejectsWrongGeneration: a peer response tagged with another
// generation must not be adopted — that is the cache-poisoning vector a
// mid-rollout fleet would otherwise open. The replica counts the rejection
// and computes locally.
func TestPeerFillRejectsWrongGeneration(t *testing.T) {
	g := saphyra.Generate.BarabasiAlbert(200, 3, 5)
	path, ids := writeTestView(t, g)
	var cfg Config
	cfg.DisablePrecompute = true
	cfg.PeerFill = func(_ context.Context, gen uint64, _ [32]byte) (*RankResponse, bool) {
		return &RankResponse{
			Generation: gen + 1, // peer already rolled forward
			Samples:    1,
			Nodes:      []int64{ids[0]},
			Scores:     []float64{1},
			Ranks:      []int{1},
		}, true
	}
	s, err := New(path, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	resp, code := postRank(t, s.Handler(), RankRequest{
		Method: MethodSaPHyRa, Targets: []int64{ids[3], ids[30]}, Eps: 0.1, Delta: 0.05, Seed: 2,
	})
	if code != http.StatusOK {
		t.Fatalf("rank failed: %d", code)
	}
	if s.m.peerFillRejected.Value() != 1 {
		t.Fatalf("rejected = %d, want 1", s.m.peerFillRejected.Value())
	}
	if resp.Generation != 1 || len(resp.Nodes) != 2 {
		t.Fatal("response was not computed locally after the rejection")
	}
}

// TestReloadResponseGeneration: POST /admin/reload reports the generation
// now serving, /readyz gates on it, and /statusz exposes it — the three
// signals the rolling-reload driver consumes.
func TestReloadResponseGeneration(t *testing.T) {
	g := saphyra.Generate.BarabasiAlbert(200, 3, 5)
	s, _ := newTestServer(t, g, Config{DisablePrecompute: true})

	for want := uint64(2); want <= 3; want++ {
		w := httptest.NewRecorder()
		s.Handler().ServeHTTP(w, httptest.NewRequest("POST", "/admin/reload", nil))
		if w.Code != http.StatusOK {
			t.Fatalf("reload %d: status %d", want, w.Code)
		}
		var rr ReloadResponse
		if err := json.Unmarshal(w.Body.Bytes(), &rr); err != nil {
			t.Fatal(err)
		}
		if rr.Status != "reloaded" || rr.Generation != want {
			t.Fatalf("reload response %+v, want generation %d", rr, want)
		}

		w = httptest.NewRecorder()
		s.Handler().ServeHTTP(w, httptest.NewRequest("GET", "/readyz", nil))
		var ready ReadyzResponse
		if err := json.Unmarshal(w.Body.Bytes(), &ready); err != nil {
			t.Fatal(err)
		}
		if w.Code != http.StatusOK || ready.Generation != want {
			t.Fatalf("readyz after reload: code=%d gen=%d, want %d", w.Code, ready.Generation, want)
		}

		if got := s.Registry().Snapshot()["saphyra_generation"]; got != float64(want) {
			t.Fatalf("statusz generation %v, want %d", got, want)
		}
	}
}

// peerFillVia wires a PeerFill hook to another in-process server's
// /internal/cache handler — the same probe internal/cluster issues over
// the network, without a listener.
func peerFillVia(t *testing.T, peer *Server) func(context.Context, uint64, [32]byte) (*RankResponse, bool) {
	return func(_ context.Context, gen uint64, key [32]byte) (*RankResponse, bool) {
		w := httptest.NewRecorder()
		peer.Handler().ServeHTTP(w, httptest.NewRequest("GET",
			fmt.Sprintf("/internal/cache?gen=%d&key=%s", gen, hex.EncodeToString(key[:])), nil))
		if w.Code != http.StatusOK {
			return nil, false
		}
		var resp RankResponse
		if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil {
			return nil, false
		}
		return &resp, true
	}
}
