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
	"testing"
	"time"

	"saphyra"
	"saphyra/internal/obs/hist"
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

// TestInstrumentationOverheadGate is the telemetry bench gate: the
// cache-hit p99 of a server with tracing armed on every request (slow-query
// log at an unreachable threshold — the worst production telemetry cost)
// must stay within 20% of an uninstrumented server's. Requests go straight
// into ServeHTTP so the gate measures the serving stack, not loopback
// jitter; min-of-rounds p99 filters scheduler and GC noise from both sides.
func TestInstrumentationOverheadGate(t *testing.T) {
	if testing.Short() {
		t.Skip("timing test")
	}
	g := saphyra.Generate.BarabasiAlbert(2000, 4, 21)
	viewPath := filepath.Join(t.TempDir(), "gate.sbcv")
	if err := saphyra.BuildView(g, nil).WriteFile(viewPath); err != nil {
		t.Fatal(err)
	}
	newSrv := func(cfg serve.Config) *serve.Server {
		cfg.DisablePrecompute = true
		srv, err := serve.New(viewPath, cfg)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { srv.Close() })
		return srv
	}
	plain := newSrv(serve.Config{})
	instr := newSrv(serve.Config{SlowQueryThreshold: time.Hour, SlowQueryLog: io.Discard})

	body, err := json.Marshal(serve.RankRequest{
		Method: serve.MethodSaPHyRa, Targets: []int64{17, 99, 512},
		Eps: 0.1, Delta: 0.1, Seed: 7,
	})
	if err != nil {
		t.Fatal(err)
	}
	serveOne := func(h http.Handler, rec *hist.Histogram) {
		w := httptest.NewRecorder()
		start := time.Now()
		h.ServeHTTP(w, httptest.NewRequest("POST", "/v1/rank", bytes.NewReader(body)))
		rec.Observe(time.Since(start))
		if w.Code != http.StatusOK {
			t.Fatalf("status %d: %s", w.Code, w.Body.String())
		}
	}
	// One round serves both handlers strictly interleaved, so scheduler and
	// GC noise land on both sides of the comparison alike.
	p99Pair := func(n int) (plainP99, instrP99 time.Duration) {
		var rp, ri hist.Histogram
		for i := 0; i < n; i++ {
			serveOne(plain.Handler(), &rp)
			serveOne(instr.Handler(), &ri)
		}
		return rp.Quantile(0.99), ri.Quantile(0.99)
	}
	p99Pair(100) // warm caches and page mappings

	const rounds, per = 5, 2000
	minPlain, minInstr := time.Duration(1<<62), time.Duration(1<<62)
	for r := 0; r < rounds; r++ {
		p, i := p99Pair(per)
		minPlain, minInstr = min(minPlain, p), min(minInstr, i)
	}
	ratio := float64(minInstr) / float64(minPlain)
	t.Logf("cache-hit p99: uninstrumented %v, instrumented %v (%.2fx)", minPlain, minInstr, ratio)
	if ratio > 1.20 {
		t.Errorf("instrumented cache-hit p99 %v is %.2fx the uninstrumented %v, want <= 1.20x",
			minInstr, ratio, minPlain)
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
