package serve

import (
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"saphyra"
	"saphyra/internal/bicomp"
	"saphyra/internal/faultinject"
)

// chaosRef is the library-computed expected answer for one (variant, eps).
type chaosRef struct {
	nodes  []int64
	scores []float64
	ranks  []int
}

func refOf(ids []int64, r *saphyra.Result) chaosRef {
	ref := chaosRef{
		nodes:  make([]int64, len(r.Nodes)),
		scores: r.Scores,
		ranks:  r.Rank,
	}
	for i, v := range r.Nodes {
		ref.nodes[i] = ids[v]
	}
	return ref
}

// topkRef reorders a full-network reference by rank, the order /v1/topk
// serves.
func topkRef(ids []int64, r *saphyra.Result, k int) chaosRef {
	byRank := make([]int, len(r.Rank)) // byRank[rank-1] = row index
	for i, rk := range r.Rank {
		byRank[rk-1] = i
	}
	ref := chaosRef{}
	for rk := 1; rk <= k; rk++ {
		i := byRank[rk-1]
		ref.nodes = append(ref.nodes, ids[r.Nodes[i]])
		ref.scores = append(ref.scores, r.Scores[i])
		ref.ranks = append(ref.ranks, rk)
	}
	return ref
}

func matchRef(resp *RankResponse, ref chaosRef) string {
	if len(resp.Scores) != len(ref.scores) {
		return "score count mismatch"
	}
	for i := range ref.scores {
		if resp.Scores[i] != ref.scores[i] {
			return "score bits differ"
		}
		if resp.Nodes[i] != ref.nodes[i] || resp.Ranks[i] != ref.ranks[i] {
			return "node/rank row differs"
		}
	}
	return ""
}

// TestServeChaosHammer is the fault-injection acceptance gate (run under
// -race by CI): with every failure point armed — slow computes, flight
// panics, failing reloads, mmap errors, acquire failures, pre-expired
// request deadlines — concurrent clients hammer the service, and every
// single response must be one of exactly three things: bitwise-identical to
// the library at the requested epsilon, explicitly flagged degraded (and
// then bitwise-correct for its own achieved contract), or a typed error
// with an allowed status. Afterwards, with the faults cleared, the process
// must be undamaged: no leaked view references, no leaked mappings, no
// poisoned cache entry, reloads and queries healthy.
func TestServeChaosHammer(t *testing.T) {
	defer faultinject.Reset()
	baselineMappings := bicomp.OpenMappings()

	g := saphyra.Generate.BarabasiAlbert(300, 3, 21)
	s, ids := newTestServer(t, g, Config{
		DisablePrecompute: true,
		MaxInFlight:       2, MaxQueue: 2,
		FastLaneSlots: 1, FastLaneCost: 300,
		DefaultTimeout: 2 * time.Second,
	})

	// Library references at the exact epsilon and the coarse rung's epsilon
	// (0.1 * DegradeEpsFactor capped at DegradeMaxEps = 0.25). Reloads remap
	// the same file, so a stale-rung response from ANY generation must also
	// match the exact-eps reference bit for bit.
	view, err := saphyra.OpenView(s.viewPath)
	if err != nil {
		t.Fatal(err)
	}
	const exactEps, coarseEps = 0.1, 0.25
	epses := []float64{exactEps, coarseEps}
	type variant struct {
		req  RankRequest
		want map[float64]chaosRef
	}
	var variants []variant
	vr := view.Ranker()
	rank := func(m saphyra.Measure, dense []saphyra.Node, eps float64) *saphyra.Result {
		res, err := vr.Rank(context.Background(), saphyra.Query{
			Measure: m, Targets: dense, K: 3, Epsilon: eps, Delta: 0.05, Seed: 4,
		})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	for _, dense := range [][]saphyra.Node{{2, 77, 150}, {0, 1, 2, 3, 250}} {
		raw := make([]int64, len(dense))
		for i, v := range dense {
			raw[i] = ids[v]
		}
		bc := map[float64]chaosRef{}
		kp := map[float64]chaosRef{}
		cl := map[float64]chaosRef{}
		for _, eps := range epses {
			bc[eps] = refOf(ids, rank(saphyra.Betweenness, dense, eps))
			kp[eps] = refOf(ids, rank(saphyra.KPath, dense, eps))
			cl[eps] = refOf(ids, rank(saphyra.Closeness, dense, eps))
		}
		variants = append(variants,
			variant{RankRequest{Method: MethodSaPHyRa, Targets: raw, Eps: exactEps, Delta: 0.05, Seed: 4}, bc},
			variant{RankRequest{Method: MethodKPath, Targets: raw, Eps: exactEps, Delta: 0.05, Seed: 4, K: 3}, kp},
			variant{RankRequest{Method: MethodCloseness, Targets: raw, Eps: exactEps, Delta: 0.05, Seed: 4}, cl},
		)
	}
	allDense := make([]saphyra.Node, g.NumNodes())
	for i := range allDense {
		allDense[i] = saphyra.Node(i)
	}
	topkWant := map[float64]chaosRef{}
	for _, eps := range epses {
		topkWant[eps] = topkRef(ids, rank(saphyra.Betweenness, allDense, eps), 5)
	}
	view.Close() // drop the reference mapping before counting leaks

	// Arm everything. Probabilities are moderate on purpose: most requests
	// must still reach deep layers instead of dying at the first gate.
	chaosErr := errors.New("chaos: injected failure")
	faultinject.Set("serve.compute", faultinject.Fault{Delay: 2 * time.Millisecond, Prob: 0.4, Seed: 7})
	faultinject.Set("serve.compute.full", faultinject.Fault{Panic: "chaos flight panic", Prob: 0.3, Seed: 5})
	faultinject.Set("query.rank", faultinject.Fault{Err: chaosErr, Prob: 0.1, Seed: 3})
	faultinject.Set("serve.reload.open", faultinject.Fault{Err: chaosErr, Prob: 0.5, Seed: 11})
	faultinject.Set("bicomp.openmapped", faultinject.Fault{Err: chaosErr, Prob: 0.3, Seed: 13})
	faultinject.Set("bicomp.handle.acquire", faultinject.Fault{Err: chaosErr, Prob: 0.05, Seed: 17})
	faultinject.Set("serve.request.expire", faultinject.Fault{Err: chaosErr, Prob: 0.15, Seed: 19})
	// msbfs.run fires once per MS-BFS level, and a closeness estimate runs
	// hundreds of levels — a small per-level probability still fails a
	// healthy fraction of closeness requests mid-traversal while letting the
	// rest complete (and demand bitwise-exact bits).
	faultinject.Set("msbfs.run", faultinject.Fault{Err: chaosErr, Prob: 0.002, Seed: 23})
	faultinject.Enable()

	const (
		hammers = 6
		iters   = 25
		reloads = 10
	)
	var (
		wg               sync.WaitGroup
		okExact, okDeg   atomic.Int64
		rejected, topkOK atomic.Int64
	)
	check200 := func(where string, resp *RankResponse, want map[float64]chaosRef) {
		ref, known := want[resp.Eps]
		if !known {
			t.Errorf("%s: response eps %v is neither the requested %v nor the coarse %v", where, resp.Eps, exactEps, coarseEps)
			return
		}
		if !resp.Degraded && resp.Eps != exactEps {
			t.Errorf("%s: un-degraded response at eps %v, requested %v", where, resp.Eps, exactEps)
			return
		}
		if msg := matchRef(resp, ref); msg != "" {
			t.Errorf("%s (eps %v, degraded %v, gen %d): %s — a partial or corrupted result escaped",
				where, resp.Eps, resp.Degraded, resp.Generation, msg)
			return
		}
		if resp.Degraded {
			okDeg.Add(1)
		} else {
			okExact.Add(1)
		}
	}
	checkError := func(where string, code int, body []byte) {
		switch code {
		case http.StatusTooManyRequests, http.StatusGatewayTimeout,
			http.StatusInternalServerError, StatusClientClosedRequest:
		default:
			t.Errorf("%s: status %d is not an allowed chaos outcome", where, code)
			return
		}
		var e struct {
			Error string `json:"error"`
		}
		if err := json.Unmarshal(body, &e); err != nil || e.Error == "" {
			t.Errorf("%s: %d response without a typed error body: %q", where, code, body)
			return
		}
		rejected.Add(1)
	}
	start := make(chan struct{})
	for h := 0; h < hammers; h++ {
		wg.Add(1)
		go func(h int) {
			defer wg.Done()
			<-start
			for i := 0; i < iters; i++ {
				where := "hammer " + strconv.Itoa(h) + " iter " + strconv.Itoa(i)
				v := variants[(h+i)%len(variants)]
				var hdrs map[string]string
				if (h+i)%2 == 0 { // half the traffic opts into degradation
					hdrs = map[string]string{"Degrade-Ms": "1000"}
				}
				w := doRank(t, s.Handler(), v.req, hdrs)
				if w.Code == http.StatusOK {
					check200(where, decodeRank(t, w), v.want)
				} else {
					checkError(where, w.Code, w.Body.Bytes())
				}
				if i%8 == 7 { // sprinkle full-network reads (the panic point)
					r := httptest.NewRequest("GET", "/v1/topk?k=5&eps=0.1&delta=0.05&seed=4", nil)
					if hdrs != nil {
						r.Header.Set("Degrade-Ms", "1000")
					}
					w := httptest.NewRecorder()
					s.Handler().ServeHTTP(w, r)
					if w.Code == http.StatusOK {
						check200(where+" topk", decodeRank(t, w), topkWant)
						topkOK.Add(1)
					} else {
						checkError(where+" topk", w.Code, w.Body.Bytes())
					}
				}
			}
		}(h)
	}
	reloaderDone := make(chan [2]int64)
	go func() {
		<-start
		var succeeded, failed int64
		for i := 0; i < reloads; i++ {
			w := httptest.NewRecorder()
			s.Handler().ServeHTTP(w, httptest.NewRequest("POST", "/admin/reload", nil))
			switch w.Code {
			case http.StatusOK:
				succeeded++
			case http.StatusInternalServerError:
				failed++ // old generation must keep serving; verified by the hammers
			default:
				t.Errorf("chaos reload %d: status %d", i, w.Code)
			}
			time.Sleep(5 * time.Millisecond)
		}
		reloaderDone <- [2]int64{succeeded, failed}
	}()
	close(start)
	wg.Wait()
	counts := <-reloaderDone

	// The storm is over: disarm and let detached flights drain.
	faultinject.Reset()
	waitFor(t, 30*time.Second, "in-flight computations to drain", func() bool {
		return s.adm.inFlight() == 0 && s.adm.waitingNow() == 0
	})

	// Invariant: generation bookkeeping survived the failing reloads.
	if got, want := s.Generation(), uint64(1+counts[0]); got != want {
		t.Errorf("generation %d after %d successful reloads, want %d", got, counts[0], want)
	}
	if got := s.m.reloadFailures.Value(); got != counts[1] {
		t.Errorf("reloadFailures counter %d, want %d", got, counts[1])
	}

	// Invariant: balanced refcounts. Every Acquire/Share was Released, so the
	// current handle holds no references, and every retired generation has
	// unmapped — exactly one mapping (the current view) beyond the baseline.
	cur := s.cur.Load()
	waitFor(t, 30*time.Second, "view references to drain", func() bool { return cur.handle.Refs() == 0 })
	if cur.handle.Retired() {
		t.Error("current handle is retired")
	}
	waitFor(t, 30*time.Second, "retired generations to unmap", func() bool {
		return bicomp.OpenMappings() == baselineMappings+1
	})

	// Invariant: the cache was never poisoned. Whatever the chaos cached —
	// exact results, coarse results, entries that survived failed reloads —
	// every (re)request at both epsilons must produce library bits, whether
	// served from cache or recomputed.
	for vi, v := range variants {
		for _, eps := range epses {
			req := v.req
			req.Eps = eps
			w := doRank(t, s.Handler(), req, nil)
			if w.Code != http.StatusOK {
				t.Fatalf("post-chaos variant %d eps %v: status %d: %s", vi, eps, w.Code, w.Body.String())
			}
			resp := decodeRank(t, w)
			if resp.Degraded {
				t.Fatalf("post-chaos variant %d eps %v: degraded response with no faults armed", vi, eps)
			}
			if msg := matchRef(resp, v.want[eps]); msg != "" {
				t.Errorf("post-chaos variant %d eps %v (cached %v): %s — the chaos poisoned the cache",
					vi, eps, resp.Cached, msg)
			}
		}
	}

	// Invariant: the service is fully operational — a clean reload succeeds
	// and the new generation serves exact bits.
	gen, err := s.Reload()
	if err != nil {
		t.Fatalf("post-chaos reload: %v", err)
	}
	resp, code := postRank(t, s.Handler(), variants[0].req)
	if code != http.StatusOK || resp.Generation != gen {
		t.Fatalf("post-chaos request: code %d gen %d, want 200 gen %d", code, resp.Generation, gen)
	}

	t.Logf("chaos: %d exact, %d degraded, %d typed rejections, %d topk OK; %d/%d reloads succeeded",
		okExact.Load(), okDeg.Load(), rejected.Load(), topkOK.Load(), counts[0], reloads)
}
