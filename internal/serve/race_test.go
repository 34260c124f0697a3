package serve

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"

	"saphyra"
)

// TestServeConcurrentHammerWithReloads is the serving determinism gate (run
// under -race by CI): many goroutines hammer /v1/rank and /v1/topk — mixing
// cache hits, misses, singleflight collapses, and LRU evictions (the cache
// is deliberately tiny) — while another goroutine hot-reloads the view
// concurrently. Every single response, whatever its generation and however
// it was served, must be bitwise-identical to a direct library call on the
// same view file; the reload protocol must never let a query observe an
// unmapped page (that would crash, not mis-score) nor a cache entry cross
// generations.
func TestServeConcurrentHammerWithReloads(t *testing.T) {
	g := saphyra.Generate.BarabasiAlbert(300, 3, 21)
	s, ids := newTestServer(t, g, Config{
		CacheEntries: 3, // force evictions so recomputation paths stay hot
		MaxInFlight:  4,
	})

	// Reference results straight from the library on the same file — the
	// contract is: the service may cache, collapse, throttle, and reload,
	// but never change a single bit of any answer.
	view, err := saphyra.OpenView(s.viewPath)
	if err != nil {
		t.Fatal(err)
	}
	defer view.Close()
	type variant struct {
		req  RankRequest
		want *saphyra.Result
	}
	denseSets := [][]saphyra.Node{
		{2, 77, 150},
		{0, 1, 2, 3, 250},
		{42},
	}
	var variants []variant
	vr := view.Ranker()
	for _, dense := range denseSets {
		raw := make([]int64, len(dense))
		for i, v := range dense {
			raw[i] = ids[v]
		}
		rank := func(m saphyra.Measure) *saphyra.Result {
			res, err := vr.Rank(context.Background(), saphyra.Query{
				Measure: m, Targets: dense, K: 3, Epsilon: 0.1, Delta: 0.05, Seed: 4,
			})
			if err != nil {
				t.Fatal(err)
			}
			return res
		}
		bc, kp, cl := rank(saphyra.Betweenness), rank(saphyra.KPath), rank(saphyra.Closeness)
		variants = append(variants,
			variant{RankRequest{Method: MethodSaPHyRa, Targets: raw, Eps: 0.1, Delta: 0.05, Seed: 4}, bc},
			variant{RankRequest{Method: MethodKPath, Targets: raw, Eps: 0.1, Delta: 0.05, Seed: 4, K: 3}, kp},
			variant{RankRequest{Method: MethodCloseness, Targets: raw, Eps: 0.1, Delta: 0.05, Seed: 4}, cl},
		)
	}

	const (
		hammers = 8
		iters   = 30
		reloads = 8
	)
	var wg sync.WaitGroup
	var served, cached atomic.Int64
	start := make(chan struct{})
	for h := 0; h < hammers; h++ {
		wg.Add(1)
		go func(h int) {
			defer wg.Done()
			<-start
			for i := 0; i < iters; i++ {
				v := variants[(h+i)%len(variants)]
				resp, code := postRank(t, s.Handler(), v.req)
				if code != http.StatusOK {
					t.Errorf("hammer %d iter %d: status %d", h, i, code)
					return
				}
				if len(resp.Scores) != len(v.want.Scores) {
					t.Errorf("hammer %d iter %d: %d scores, want %d", h, i, len(resp.Scores), len(v.want.Scores))
					return
				}
				for j := range v.want.Scores {
					if resp.Scores[j] != v.want.Scores[j] {
						t.Errorf("%s gen %d: score[%d] = %v, library %v — serving changed the bits",
							v.req.Method, resp.Generation, j, resp.Scores[j], v.want.Scores[j])
						return
					}
					if resp.Nodes[j] != ids[v.want.Nodes[j]] || resp.Ranks[j] != v.want.Rank[j] {
						t.Errorf("%s gen %d: row %d mismatch", v.req.Method, resp.Generation, j)
						return
					}
				}
				served.Add(1)
				if resp.Cached {
					cached.Add(1)
				}
				if i%10 == 9 { // sprinkle top-k reads over the same cache
					w := httptest.NewRecorder()
					s.Handler().ServeHTTP(w, httptest.NewRequest("GET", "/v1/topk?k=5&eps=0.1&delta=0.05", nil))
					if w.Code != http.StatusOK {
						t.Errorf("hammer %d: topk status %d", h, w.Code)
						return
					}
					var tk RankResponse
					if err := json.Unmarshal(w.Body.Bytes(), &tk); err != nil || len(tk.Nodes) != 5 {
						t.Errorf("hammer %d: bad topk response (%v)", h, err)
						return
					}
					// /statusz reads every counter and gauge while the
					// hammers and the reloader move them.
					w = httptest.NewRecorder()
					s.Handler().ServeHTTP(w, httptest.NewRequest("GET", "/statusz", nil))
					var st map[string]float64
					if err := json.Unmarshal(w.Body.Bytes(), &st); w.Code != http.StatusOK || err != nil || st["saphyra_generation"] < 1 {
						t.Errorf("hammer %d: statusz %d (%v): %s", h, w.Code, err, w.Body.String())
						return
					}
				}
			}
		}(h)
	}
	reloaderDone := make(chan uint64)
	go func() {
		<-start
		var last uint64
		for i := 0; i < reloads; i++ {
			gen, err := s.Reload()
			if err != nil {
				t.Errorf("reload %d: %v", i, err)
			}
			last = gen
		}
		reloaderDone <- last
	}()
	close(start)
	wg.Wait()
	lastGen := <-reloaderDone

	if lastGen != uint64(1+reloads) {
		t.Errorf("final generation %d, want %d", lastGen, 1+reloads)
	}
	if served.Load() != hammers*iters {
		t.Errorf("served %d of %d", served.Load(), hammers*iters)
	}
	t.Logf("served %d responses (%d cached) across %d generations, all bitwise-identical to the library",
		served.Load(), cached.Load(), lastGen)

	// After the dust settles the current generation must still serve.
	resp, code := postRank(t, s.Handler(), variants[0].req)
	if code != http.StatusOK || resp.Generation != lastGen {
		t.Fatalf("post-hammer request: code %d gen %d", code, resp.Generation)
	}
}
