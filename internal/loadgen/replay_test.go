package loadgen

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"runtime"
	"testing"
	"time"

	"saphyra"
	"saphyra/internal/serve"
	"saphyra/internal/workload"
)

func clientFor(base string) *workload.Client { return &workload.Client{Base: base} }

func nextAfter(v float64) float64 { return math.Nextafter(v, math.Inf(1)) }

// replayTarget builds a small view, serves it in-process, and returns the
// pieces a replay needs. The httptest server gives the runner a real HTTP
// hop, same as a live daemon.
func replayTarget(t *testing.T) (base, viewPath string, ids []int64) {
	t.Helper()
	g := saphyra.Generate.BarabasiAlbert(600, 3, 9)
	viewPath = filepath.Join(t.TempDir(), "replay.sbcv")
	if err := saphyra.BuildView(g, nil).WriteFile(viewPath); err != nil {
		t.Fatal(err)
	}
	srv, err := serve.New(viewPath, serve.Config{DefaultTimeout: 10 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	hs := httptest.NewServer(srv.Handler())
	t.Cleanup(hs.Close)
	ids = make([]int64, g.NumNodes())
	for i := range ids {
		ids[i] = int64(i)
	}
	return hs.URL, viewPath, ids
}

// TestReplaySmokeHitDominated is the CI regression gate from the issue: a
// ~2s in-process replay of the hit-dominated mix must meet its SLO, and
// every sampled 200 must be bitwise-equal to the library reference for its
// reported contract. A latency regression in the cache or admission path,
// or any response whose bits drift from the (eps, delta, seed) contract,
// fails this test — and with it the build.
func TestReplaySmokeHitDominated(t *testing.T) {
	base, viewPath, ids := replayTarget(t)
	verifier, err := NewVerifier(viewPath)
	if err != nil {
		t.Fatal(err)
	}
	defer verifier.Close()

	m := HitDominated()
	s, err := Build(m, ids, 1)
	if err != nil {
		t.Fatal(err)
	}
	r, err := Run(context.Background(), s, Options{
		Base: base, Warm: true, VerifyEvery: 5, Verifier: verifier,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("hit-dominated: %d requests, p50 %.2fms p99 %.2fms p999 %.2fms, hit %.2f shed %.4f err %.4f, verified %d",
		r.Requests, r.P50Ms, r.P99Ms, r.P999Ms, r.HitRate, r.ShedRate, r.ErrorRate, r.Verified)
	for _, v := range r.SLOViolations {
		t.Errorf("SLO violation: %s", v)
	}
	if r.VerifyFailed > 0 {
		t.Errorf("%d of %d sampled responses failed bitwise verification: %v",
			r.VerifyFailed, r.Verified, r.VerifyErrors)
	}
	if !r.Pass {
		t.Error("report not marked Pass")
	}
	if r.Verified < 50 {
		t.Errorf("only %d responses verified; the sample is too thin to gate on", r.Verified)
	}
	if r.HitRate < 0.8 {
		t.Errorf("hit rate %.2f < 0.8: the warmed zipf working set is not hitting the cache", r.HitRate)
	}
	if r.Requests < 500 {
		t.Errorf("only %d requests scheduled", r.Requests)
	}
}

// TestReplayReloadStorm replays the hit-dominated mix under a rolling
// reload storm at a compressed clock: reloads must actually happen, the
// run must stay inside the storm SLO, and — the core soundness claim —
// responses served across generation churn still verify bitwise, because
// every generation maps the same view file.
func TestReplayReloadStorm(t *testing.T) {
	base, viewPath, ids := replayTarget(t)
	verifier, err := NewVerifier(viewPath)
	if err != nil {
		t.Fatal(err)
	}
	defer verifier.Close()

	m := ReloadStorm().Scale(300, 1200*time.Millisecond)
	s, err := Build(m, ids, 2)
	if err != nil {
		t.Fatal(err)
	}
	r, err := Run(context.Background(), s, Options{
		Base: base, Warm: true, VerifyEvery: 4, Verifier: verifier,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("reload-storm: %d requests, %d reloads, p99 %.2fms, shed %.4f err %.4f, verified %d (%d failed)",
		r.Requests, r.Reloads, r.P99Ms, r.ShedRate, r.ErrorRate, r.Verified, r.VerifyFailed)
	if r.Reloads == 0 {
		t.Error("no reloads executed: the storm never hit the server")
	}
	for _, v := range r.SLOViolations {
		t.Errorf("SLO violation: %s", v)
	}
	if r.VerifyFailed > 0 {
		t.Errorf("%d responses failed bitwise verification across reloads: %v", r.VerifyFailed, r.VerifyErrors)
	}
}

// overheadPair serves one view twice with precompute off and returns a
// cache-hit rank request body for both: plain has no telemetry armed, instr
// arms tracing on every request (slow-query log at an unreachable threshold
// — the worst production telemetry cost). Requests go straight into
// ServeHTTP so the overhead gates measure the serving stack, not loopback
// jitter.
func overheadPair(t *testing.T) (plain, instr http.Handler, body []byte) {
	t.Helper()
	g := saphyra.Generate.BarabasiAlbert(2000, 4, 21)
	viewPath := filepath.Join(t.TempDir(), "gate.sbcv")
	if err := saphyra.BuildView(g, nil).WriteFile(viewPath); err != nil {
		t.Fatal(err)
	}
	newSrv := func(cfg serve.Config) http.Handler {
		cfg.DisablePrecompute = true
		srv, err := serve.New(viewPath, cfg)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { srv.Close() })
		return srv.Handler()
	}
	body, err := json.Marshal(serve.RankRequest{
		Method: serve.MethodSaPHyRa, Targets: []int64{17, 99, 512},
		Eps: 0.1, Delta: 0.1, Seed: 7,
	})
	if err != nil {
		t.Fatal(err)
	}
	return newSrv(serve.Config{}),
		newSrv(serve.Config{SlowQueryThreshold: time.Hour, SlowQueryLog: io.Discard}),
		body
}

// perRequest returns the heap allocations and bytes of the cheapest of n
// single calls, on one P after a warm-up call. The minimum is the fixed
// per-request cost: it drops the occasional amortized allocation (a buffer
// growing, a sync.Pool refill after GC or a race-mode pool drop) that
// would make a mean wander between runs.
func perRequest(n int, call func()) (allocs, bytes uint64) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	call()
	allocs, bytes = math.MaxUint64, math.MaxUint64
	var before, after runtime.MemStats
	for i := 0; i < n; i++ {
		runtime.ReadMemStats(&before)
		call()
		runtime.ReadMemStats(&after)
		allocs = min(allocs, after.Mallocs-before.Mallocs)
		bytes = min(bytes, after.TotalAlloc-before.TotalAlloc)
	}
	return allocs, bytes
}

// TestInstrumentationOverheadGate is the telemetry cost gate: arming
// tracing on every request may add exactly the pinned allocations and bytes
// to a cache hit, counted per request against an uninstrumented server. It
// is deterministic, so it gates every run; the wall-clock form of the same
// comparison (TestInstrumentationOverheadWallClock) needs a quiet machine
// and runs under -tags timing.
func TestInstrumentationOverheadGate(t *testing.T) {
	const extraAllocs, extraBytes = 3, 416
	plain, instr, body := overheadPair(t)
	serveOne := func(h http.Handler) func() {
		return func() {
			w := httptest.NewRecorder()
			h.ServeHTTP(w, httptest.NewRequest("POST", "/v1/rank", bytes.NewReader(body)))
			if w.Code != http.StatusOK {
				t.Fatalf("status %d: %s", w.Code, w.Body.String())
			}
		}
	}
	pa, pb := perRequest(200, serveOne(plain))
	ia, ib := perRequest(200, serveOne(instr))
	t.Logf("cache hit per request: uninstrumented %d allocs %d B, instrumented %d allocs %d B", pa, pb, ia, ib)
	if d := int64(ia) - int64(pa); d != extraAllocs {
		t.Errorf("tracing adds %d allocations to a cache hit, want exactly %d", d, extraAllocs)
	}
	if d := int64(ib) - int64(pb); d != extraBytes {
		t.Errorf("tracing adds %d bytes to a cache hit, want exactly %d", d, extraBytes)
	}
}

// TestRunRejectsBadOptions pins the runner's option contract.
func TestRunRejectsBadOptions(t *testing.T) {
	s, err := Build(HitDominated(), testIDs(50), 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Run(context.Background(), s, Options{}); err == nil {
		t.Error("Run accepted an empty Base")
	}
	if _, err := Run(context.Background(), s, Options{Base: "http://x", VerifyEvery: 3}); err == nil {
		t.Error("Run accepted VerifyEvery without a Verifier")
	}
}

// TestVerifierCatchesCorruption proves the bitwise gate has teeth: a
// response whose score bits are perturbed by one ULP, or whose rank rows
// are swapped, must fail verification.
func TestVerifierCatchesCorruption(t *testing.T) {
	base, viewPath, ids := replayTarget(t)
	verifier, err := NewVerifier(viewPath)
	if err != nil {
		t.Fatal(err)
	}
	defer verifier.Close()

	// Fetch one honest response through the client.
	m := HitDominated()
	s, err := Build(m, ids, 1)
	if err != nil {
		t.Fatal(err)
	}
	var ev *Event
	for i := range s.Events {
		if s.Events[i].Kind == EventRank {
			ev = &s.Events[i]
			break
		}
	}
	cl := clientFor(base)
	resp, err := cl.RankOnce(context.Background(), serve.RankRequest{
		Method: ev.Method, Targets: ev.Targets,
		Eps: ev.Eps, Delta: ev.Delta, K: ev.K, Seed: ev.Seed,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := verifier.Check(ev.Kind, resp); err != nil {
		t.Fatalf("honest response failed verification: %v", err)
	}

	// One-ULP score corruption.
	good := resp.Scores[0]
	resp.Scores[0] = nextAfter(good)
	if err := verifier.Check(ev.Kind, resp); err == nil {
		t.Error("verifier accepted a 1-ULP score perturbation")
	}
	resp.Scores[0] = good

	// Rank-row swap.
	if len(resp.Ranks) >= 2 {
		resp.Ranks[0], resp.Ranks[1] = resp.Ranks[1], resp.Ranks[0]
		if err := verifier.Check(ev.Kind, resp); err == nil {
			t.Error("verifier accepted swapped rank rows")
		}
	}
}
