package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"strconv"
	"sync"
	"testing"
	"time"

	"saphyra"
	"saphyra/internal/faultinject"
)

// doRank posts a rank request with extra headers and returns the raw
// recorder, for tests that need status codes, response headers, or error
// bodies — postRank only models the happy path.
func doRank(t testing.TB, h http.Handler, req RankRequest, hdrs map[string]string) *httptest.ResponseRecorder {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	r := httptest.NewRequest("POST", "/v1/rank", bytes.NewReader(body))
	for k, v := range hdrs {
		r.Header.Set(k, v)
	}
	w := httptest.NewRecorder()
	h.ServeHTTP(w, r)
	return w
}

func decodeRank(t testing.TB, w *httptest.ResponseRecorder) *RankResponse {
	t.Helper()
	var resp RankResponse
	if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil {
		t.Fatalf("bad response body: %v", err)
	}
	return &resp
}

// waitFor polls cond until it holds or the deadline expires.
func waitFor(t testing.TB, d time.Duration, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(d)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

// saturateShared occupies one shared admission slot and parks one waiter in
// the queue, so a server configured MaxInFlight=1 MaxQueue=1 sheds every
// further non-fast-lane arrival. The returned teardown unparks and releases;
// it is idempotent so tests can call it mid-test and still defer it.
func saturateShared(t testing.TB, s *Server) (teardown func()) {
	t.Helper()
	rel, _, err := s.adm.enter(context.Background(), false)
	if err != nil {
		t.Fatal(err)
	}
	wctx, wcancel := context.WithCancel(context.Background())
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		if r, _, err := s.adm.enter(wctx, false); err == nil {
			r()
		}
	}()
	waitFor(t, 5*time.Second, "parked waiter", func() bool { return s.adm.waitingNow() == 1 })
	var once sync.Once
	return func() {
		once.Do(func() {
			wcancel()
			wg.Wait()
			rel()
		})
	}
}

// TestClientQuota: per-client token buckets are isolated per Client-Id, and
// a drained bucket's 429 carries the exact token-refill time — not a
// constant — as Retry-After.
func TestClientQuota(t *testing.T) {
	g := saphyra.Generate.BarabasiAlbert(300, 3, 21)
	// qps 0.001: refill is negligible within the test, so the third request
	// from one client must see an empty bucket and a ~1000 s refill horizon.
	s, ids := newTestServer(t, g, Config{
		DisablePrecompute: true, ClientQPS: 0.001, ClientBurst: 2,
	})
	req := RankRequest{Method: MethodSaPHyRa, Targets: []int64{ids[5], ids[50]}, Eps: 0.1, Delta: 0.05, Seed: 4}

	for i := 0; i < 2; i++ {
		if w := doRank(t, s.Handler(), req, map[string]string{"Client-Id": "greedy"}); w.Code != http.StatusOK {
			t.Fatalf("greedy request %d: status %d: %s", i, w.Code, w.Body.String())
		}
	}
	w := doRank(t, s.Handler(), req, map[string]string{"Client-Id": "greedy"})
	if w.Code != http.StatusTooManyRequests {
		t.Fatalf("drained bucket: status %d, want 429", w.Code)
	}
	ra, err := strconv.Atoi(w.Header().Get("Retry-After"))
	if err != nil {
		t.Fatalf("Retry-After %q not an integer: %v", w.Header().Get("Retry-After"), err)
	}
	// One token at 0.001 tokens/s is 1000 s away; the hint must be the
	// derived refill time, not the old static "1".
	if ra < 900 || ra > 1000 {
		t.Errorf("Retry-After = %d, want ~1000 (exact token-refill derivation)", ra)
	}

	// Another identity is untouched by the greedy client's drain — so is the
	// shared anonymous bucket.
	if w := doRank(t, s.Handler(), req, map[string]string{"Client-Id": "polite"}); w.Code != http.StatusOK {
		t.Errorf("polite client: status %d (quota must be per-client)", w.Code)
	}
	if w := doRank(t, s.Handler(), req, nil); w.Code != http.StatusOK {
		t.Errorf("anonymous client: status %d", w.Code)
	}
	if got := s.m.quotaDenied.Value(); got != 1 {
		t.Errorf("quotaDenied = %d, want 1", got)
	}
}

// TestRetryAfterDerivation pins the queue-depth-derived Retry-After formula:
// mean compute seconds times the backlog ahead of a new arrival, spread over
// the compute slots, clamped to [1, 60].
func TestRetryAfterDerivation(t *testing.T) {
	g := saphyra.Generate.BarabasiAlbert(300, 3, 21)
	s, _ := newTestServer(t, g, Config{DisablePrecompute: true, MaxInFlight: 2, FastLaneSlots: -1})

	s.observeCompute(5 * time.Second) // first observation seeds the EWMA
	if got := s.retryAfterSeconds(); got != 1 {
		t.Errorf("idle: Retry-After %d, want clamp floor 1", got)
	}

	rel1, _, err := s.adm.enter(context.Background(), false)
	if err != nil {
		t.Fatal(err)
	}
	rel2, _, err := s.adm.enter(context.Background(), false)
	if err != nil {
		t.Fatal(err)
	}
	// backlog 2 (both slots busy), 5 s mean, 2 slots -> 5 s.
	if got := s.retryAfterSeconds(); got != 5 {
		t.Errorf("2 in flight: Retry-After %d, want 5", got)
	}
	s.adm.waiting.Add(3) // simulate 3 parked computations
	// backlog 5 -> ceil(5*5/2) = 13.
	if got := s.retryAfterSeconds(); got != 13 {
		t.Errorf("deep queue: Retry-After %d, want 13", got)
	}
	s.observeCompute(10 * time.Minute) // pathological compute time
	if got := s.retryAfterSeconds(); got != 60 {
		t.Errorf("pathological EWMA: Retry-After %d, want clamp ceiling 60", got)
	}
	s.adm.waiting.Add(-3)
	rel1()
	rel2()
}

// TestShedRetryAfterFromLiveState: a shed request's Retry-After header is
// computed from the live queue depth and the compute-time EWMA at shed time.
func TestShedRetryAfterFromLiveState(t *testing.T) {
	g := saphyra.Generate.BarabasiAlbert(300, 3, 21)
	s, ids := newTestServer(t, g, Config{
		DisablePrecompute: true, MaxInFlight: 1, MaxQueue: 1, FastLaneSlots: -1,
	})
	s.observeCompute(5 * time.Second)

	// Occupy the only slot and park one waiter so the queue is full; no
	// compute ever runs, so the EWMA stays exactly 5 s.
	rel, _, err := s.adm.enter(context.Background(), false)
	if err != nil {
		t.Fatal(err)
	}
	wctx, wcancel := context.WithCancel(context.Background())
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		if r, _, err := s.adm.enter(wctx, false); err == nil {
			r()
		}
	}()
	waitFor(t, 5*time.Second, "parked waiter", func() bool { return s.adm.waitingNow() == 1 })

	req := RankRequest{Method: MethodSaPHyRa, Targets: []int64{ids[5], ids[50]}, Eps: 0.1, Delta: 0.05, Seed: 99}
	w := doRank(t, s.Handler(), req, nil)
	if w.Code != http.StatusTooManyRequests {
		t.Fatalf("status %d, want 429: %s", w.Code, w.Body.String())
	}
	// backlog = 1 waiting + 1 in flight, EWMA 5 s, 1 slot -> 10 s.
	if got := w.Header().Get("Retry-After"); got != "10" {
		t.Errorf("Retry-After = %q, want %q (derived from queue depth, not static)", got, "10")
	}

	wcancel()
	wg.Wait()
	rel()
}

// TestFastLaneBoundsTinyLatency is the overload acceptance criterion: with
// every shared compute slot saturated by slow full-network jobs, tiny
// queries still complete promptly through the reserved fast lane.
func TestFastLaneBoundsTinyLatency(t *testing.T) {
	defer faultinject.Reset()
	g := saphyra.Generate.BarabasiAlbert(300, 3, 21)
	// FastLaneCost 300 puts the whole-network job (mass 2m+n ~ 2100, times
	// 0.25 for eps 0.1 -> cost ~ 520) above the tiny threshold and a
	// two-target request (cost ~ single digits) below.
	s, ids := newTestServer(t, g, Config{
		DisablePrecompute: true, MaxInFlight: 2, MaxQueue: 4,
		FastLaneSlots: 1, FastLaneCost: 300,
	})
	lv := s.cur.Load()
	full, err := s.buildQuery(lv, MethodSaPHyRa, nil, 0.1, 0.05, 0, 0, true)
	if err != nil {
		t.Fatal(err)
	}
	if c := queryCost(lv, full); c <= s.cfg.FastLaneCost {
		t.Fatalf("precondition: full-network cost %.0f must exceed FastLaneCost %.0f", c, s.cfg.FastLaneCost)
	}
	tinyReq := RankRequest{Method: MethodSaPHyRa, Targets: []int64{ids[200], ids[250]}, Eps: 0.1, Delta: 0.05, Seed: 4}
	tq, err := s.buildQuery(lv, tinyReq.Method, tinyReq.Targets, tinyReq.Eps, tinyReq.Delta, 0, tinyReq.Seed, false)
	if err != nil {
		t.Fatal(err)
	}
	if c := queryCost(lv, tq); c > s.cfg.FastLaneCost {
		t.Fatalf("precondition: tiny cost %.0f must be below FastLaneCost %.0f", c, s.cfg.FastLaneCost)
	}

	// Full-network jobs sleep 2.5 s inside their admission slot.
	faultinject.Set("serve.compute.full", faultinject.Fault{Delay: 2500 * time.Millisecond})
	faultinject.Enable()
	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			w := httptest.NewRecorder()
			s.Handler().ServeHTTP(w, httptest.NewRequest("GET",
				"/v1/topk?method=saphyra&k=5&eps=0.1&delta=0.05&seed="+strconv.Itoa(101+i), nil))
			if w.Code != http.StatusOK {
				t.Errorf("full job %d: status %d: %s", i, w.Code, w.Body.String())
			}
		}(i)
	}
	waitFor(t, 5*time.Second, "both shared slots saturated", func() bool { return s.adm.inFlight() >= 2 })

	// Tiny cache misses must ride the fast lane while the shared pool stays
	// saturated for the whole 2.5 s window.
	for i := 0; i < 4; i++ {
		req := tinyReq
		req.Seed = int64(200 + i) // distinct seeds: misses, not cache hits
		begin := time.Now()
		w := doRank(t, s.Handler(), req, nil)
		took := time.Since(begin)
		if w.Code != http.StatusOK {
			t.Fatalf("tiny request %d: status %d: %s", i, w.Code, w.Body.String())
		}
		if took > time.Second {
			t.Errorf("tiny request %d took %v with the shared pool saturated, want << 1 s", i, took)
		}
	}
	if s.adm.inFlight() < 2 {
		t.Error("full-network jobs finished before the tiny requests: the test did not exercise saturation")
	}
	if got := s.adm.fastAdmits(); got != 4 {
		t.Errorf("fast-lane admits = %d, want 4", got)
	}
	wg.Wait()
}

// TestDegradeStaleRung: an overloaded request that opted in via Degrade-Ms
// is answered from the last retired generation's cache — flagged, with the
// served generation reported, bitwise-identical to what that generation
// answered when it was current.
func TestDegradeStaleRung(t *testing.T) {
	g := saphyra.Generate.BarabasiAlbert(300, 3, 21)
	s, ids := newTestServer(t, g, Config{
		DisablePrecompute: true, MaxInFlight: 1, MaxQueue: 1, FastLaneSlots: -1,
	})
	req := RankRequest{Method: MethodSaPHyRa, Targets: []int64{ids[5], ids[50], ids[150]}, Eps: 0.1, Delta: 0.05, Seed: 4}
	fresh := decodeRank(t, doRank(t, s.Handler(), req, nil))
	if fresh.Generation != 1 || fresh.Degraded {
		t.Fatalf("warmup response: gen %d degraded %v", fresh.Generation, fresh.Degraded)
	}

	if _, err := s.Reload(); err != nil { // purge moves gen-1 entries to the stale store
		t.Fatal(err)
	}

	defer saturateShared(t, s)()

	// No opt-in: overload sheds as before.
	if w := doRank(t, s.Handler(), req, nil); w.Code != http.StatusTooManyRequests {
		t.Fatalf("without Degrade-Ms: status %d, want 429", w.Code)
	}
	// Opt-in: the stale rung answers, free of admission and compute.
	w := doRank(t, s.Handler(), req, map[string]string{"Degrade-Ms": "5000"})
	if w.Code != http.StatusOK {
		t.Fatalf("degraded request: status %d: %s", w.Code, w.Body.String())
	}
	resp := decodeRank(t, w)
	if !resp.Degraded {
		t.Error("response not flagged degraded")
	}
	if resp.Generation != 1 {
		t.Errorf("degraded generation = %d, want retired generation 1", resp.Generation)
	}
	if len(resp.Scores) != len(fresh.Scores) {
		t.Fatalf("%d scores, want %d", len(resp.Scores), len(fresh.Scores))
	}
	for i := range fresh.Scores {
		if resp.Scores[i] != fresh.Scores[i] || resp.Nodes[i] != fresh.Nodes[i] || resp.Ranks[i] != fresh.Ranks[i] {
			t.Fatalf("stale row %d differs from the generation-1 answer", i)
		}
	}
	if got := s.m.staleServed.Value(); got != 1 {
		t.Errorf("staleServed = %d, want 1", got)
	}
}

// TestDegradeCoarseRung: with no stale answer available, the ladder
// recomputes at a coarsened epsilon — a distinct query with its own cache
// key, so the degraded result is itself deterministic and reusable.
func TestDegradeCoarseRung(t *testing.T) {
	g := saphyra.Generate.BarabasiAlbert(300, 3, 21)
	s, ids := newTestServer(t, g, Config{
		DisablePrecompute: true, MaxInFlight: 1, MaxQueue: 1,
		FastLaneSlots: 1, FastLaneCost: 100, DisableStale: true,
	})
	lv := s.cur.Load()
	req := RankRequest{Method: MethodSaPHyRa, Targets: []int64{ids[200], ids[250]}, Eps: 0.01, Delta: 0.05, Seed: 4}
	q, err := s.buildQuery(lv, req.Method, req.Targets, req.Eps, req.Delta, 0, req.Seed, false)
	if err != nil {
		t.Fatal(err)
	}
	wantEps := math.Min(req.Eps*s.cfg.DegradeEpsFactor, s.cfg.DegradeMaxEps)
	// The exact query must be too expensive for the fast lane (it has to
	// shed) while its coarsened form is tiny (so the degraded recompute can
	// be admitted through the lane even though the shared pool is full).
	if c := queryCost(lv, q); c <= s.cfg.FastLaneCost {
		t.Fatalf("precondition: exact cost %.0f must exceed FastLaneCost %.0f", c, s.cfg.FastLaneCost)
	}
	cq := q
	cq.Epsilon = wantEps
	if c := queryCost(lv, cq.Canonical()); c > s.cfg.FastLaneCost {
		t.Fatalf("precondition: coarse cost %.0f must be below FastLaneCost %.0f", c, s.cfg.FastLaneCost)
	}

	unsaturate := saturateShared(t, s)
	defer unsaturate()

	w := doRank(t, s.Handler(), req, map[string]string{"Degrade-Ms": "10000"})
	if w.Code != http.StatusOK {
		t.Fatalf("degraded request: status %d: %s", w.Code, w.Body.String())
	}
	resp := decodeRank(t, w)
	if !resp.Degraded {
		t.Error("response not flagged degraded")
	}
	if resp.Eps != wantEps {
		t.Errorf("degraded eps = %v, want achieved coarse eps %v", resp.Eps, wantEps)
	}
	if resp.Generation != 1 {
		t.Errorf("degraded generation = %d, want current generation 1", resp.Generation)
	}
	if got := s.m.degraded.Value(); got != 1 {
		t.Errorf("degraded counter = %d, want 1", got)
	}

	// The coarse result was cached under its own key: asking for that
	// epsilon directly is a hit with identical bits — the ladder never made
	// one key map to two payloads.
	unsaturate()
	direct := req
	direct.Eps = wantEps
	dresp := decodeRank(t, doRank(t, s.Handler(), direct, nil))
	if !dresp.Cached {
		t.Error("direct coarse-eps request missed the cache; the degraded compute should have populated it")
	}
	if dresp.Degraded {
		t.Error("direct coarse-eps request flagged degraded")
	}
	for i := range resp.Scores {
		if dresp.Scores[i] != resp.Scores[i] {
			t.Fatalf("coarse score[%d] differs between degraded and direct serving", i)
		}
	}
}

// TestDegradePolicyDefault: DefaultDegradeMs opts requests into the ladder
// without any client header — the operator-side policy knob.
func TestDegradePolicyDefault(t *testing.T) {
	g := saphyra.Generate.BarabasiAlbert(300, 3, 21)
	s, ids := newTestServer(t, g, Config{
		DisablePrecompute: true, MaxInFlight: 1, MaxQueue: 1,
		FastLaneSlots: 1, FastLaneCost: 100, DisableStale: true,
		DefaultDegradeMs: 5000,
	})
	defer saturateShared(t, s)()

	req := RankRequest{Method: MethodSaPHyRa, Targets: []int64{ids[200], ids[250]}, Eps: 0.01, Delta: 0.05, Seed: 4}
	w := doRank(t, s.Handler(), req, nil) // no Degrade-Ms header
	if w.Code != http.StatusOK {
		t.Fatalf("status %d, want policy-degraded 200: %s", w.Code, w.Body.String())
	}
	if resp := decodeRank(t, w); !resp.Degraded {
		t.Error("response not flagged degraded under DefaultDegradeMs policy")
	}
}

// TestRetryAfterMonotoneInBacklog sweeps the backlog depth and asserts the
// derived Retry-After is non-decreasing in it and clamped to [1, 60] at
// every point: a deeper queue may never promise a sooner retry, and no
// queue state may park a client for minutes or return a zero hint.
func TestRetryAfterMonotoneInBacklog(t *testing.T) {
	g := saphyra.Generate.BarabasiAlbert(300, 3, 21)
	s, _ := newTestServer(t, g, Config{DisablePrecompute: true, MaxInFlight: 2, FastLaneSlots: -1})
	// A mid-range EWMA so the sweep crosses both clamps: floor at depth 0,
	// ceiling well before the deepest simulated queue.
	s.observeCompute(800 * time.Millisecond)

	prev := 0
	for depth := 0; depth <= 400; depth++ {
		got := s.retryAfterSeconds()
		if got < 1 || got > 60 {
			t.Fatalf("depth %d: Retry-After %d outside [1, 60]", depth, got)
		}
		if got < prev {
			t.Fatalf("depth %d: Retry-After %d < %d at depth %d: not monotone in backlog", depth, got, prev, depth-1)
		}
		prev = got
		s.adm.waiting.Add(1)
	}
	if prev != 60 {
		t.Errorf("deepest queue: Retry-After %d, want ceiling 60", prev)
	}
	s.adm.waiting.Add(-401)
	if got := s.retryAfterSeconds(); got != 1 {
		t.Errorf("drained queue: Retry-After %d, want floor 1", got)
	}
}

// TestQuotaRefillHorizonExact drives the token bucket with an injected
// clock and binary-fraction rates, so the refill arithmetic is exact in
// float64: the denial's retryIn must equal (1 - tokens)/qps to the
// nanosecond, and advancing the clock by exactly that horizon must yield a
// token — no off-by-one second, no slack.
func TestQuotaRefillHorizonExact(t *testing.T) {
	now := time.Unix(1000, 0)
	q := newQuotas(0.5, 1) // one token per 2 s, capacity 1
	q.now = func() time.Time { return now }

	if ok, _ := q.take("c"); !ok {
		t.Fatal("fresh bucket denied")
	}
	ok, retryIn := q.take("c")
	if ok {
		t.Fatal("drained bucket admitted")
	}
	if want := 2 * time.Second; retryIn != want {
		t.Fatalf("empty bucket: retryIn %v, want exactly %v", retryIn, want)
	}

	// Half a token back: the horizon shrinks to exactly the remainder.
	now = now.Add(time.Second)
	if ok, retryIn = q.take("c"); ok {
		t.Fatal("half-refilled bucket admitted")
	}
	if want := time.Second; retryIn != want {
		t.Fatalf("half token: retryIn %v, want exactly %v", retryIn, want)
	}

	// Advancing by exactly the stated horizon yields exactly one token.
	now = now.Add(retryIn)
	if ok, _ = q.take("c"); !ok {
		t.Fatal("token not available after the promised refill horizon")
	}
	if ok, retryIn = q.take("c"); ok {
		t.Fatal("bucket should be empty again")
	} else if want := 2 * time.Second; retryIn != want {
		t.Fatalf("re-drained: retryIn %v, want %v", retryIn, want)
	}

	// Burst capacity caps the refill: a long idle stretch still admits only
	// burst tokens, and the post-drain horizon is unchanged.
	now = now.Add(time.Hour)
	if ok, _ = q.take("c"); !ok {
		t.Fatal("post-idle bucket denied")
	}
	if ok, retryIn = q.take("c"); ok {
		t.Fatal("burst cap exceeded: more than burst tokens after idle")
	} else if want := 2 * time.Second; retryIn != want {
		t.Fatalf("post-idle drain: retryIn %v, want %v", retryIn, want)
	}
}
