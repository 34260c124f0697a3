package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"saphyra"
	"saphyra/internal/params"
)

// postRankTimeout posts a rank request with a Timeout-Ms header.
func postRankTimeout(t testing.TB, h http.Handler, req RankRequest, timeoutMs string) *httptest.ResponseRecorder {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	w := httptest.NewRecorder()
	r := httptest.NewRequest("POST", "/v1/rank", bytes.NewReader(body))
	if timeoutMs != "" {
		r.Header.Set("Timeout-Ms", timeoutMs)
	}
	h.ServeHTTP(w, r)
	return w
}

// TestServeDeadline504 is the end-to-end deadline gate: an impossible
// Timeout-Ms budget on an uncached computation returns 504, bumps the
// deadline counter, frees its admission slot (the next request computes
// normally), and caches nothing partial — the follow-up with no deadline
// must recompute and succeed with Cached=false.
func TestServeDeadline504(t *testing.T) {
	g := saphyra.Generate.BarabasiAlbert(500, 3, 31)
	s, ids := newTestServer(t, g, Config{MaxInFlight: 1, DisablePrecompute: true})
	req := RankRequest{
		Method: MethodSaPHyRa, Targets: []int64{ids[5], ids[50], ids[400]},
		Eps: 0.004, Delta: 0.05, Seed: 77, // tight eps: a computation that outlives 1ms
	}

	w := postRankTimeout(t, s.Handler(), req, "1")
	if w.Code != http.StatusGatewayTimeout {
		t.Fatalf("deadline request got %d, want 504 (%s)", w.Code, w.Body.String())
	}
	if got := s.m.deadlines.Value(); got != 1 {
		t.Fatalf("deadline counter = %d, want 1", got)
	}

	// The admission slot must come back: wait for the abandoned flight to
	// observe its cancellation and unwind.
	deadline := time.Now().Add(10 * time.Second)
	for s.adm.inFlight() != 0 {
		if time.Now().After(deadline) {
			t.Fatalf("admission slot never freed after deadline (inFlight=%d)", s.adm.inFlight())
		}
		time.Sleep(time.Millisecond)
	}

	// Same query, no deadline: must compute from scratch (nothing partial
	// was cached) and succeed.
	resp, code := postRank(t, s.Handler(), req)
	if code != http.StatusOK {
		t.Fatalf("follow-up got %d, want 200", code)
	}
	if resp.Cached {
		t.Fatal("follow-up was a cache hit: the canceled flight leaked a result")
	}
	if len(resp.Scores) != 3 {
		t.Fatalf("follow-up returned %d scores", len(resp.Scores))
	}
}

// TestServeTimeoutMsInvalid: a malformed Timeout-Ms is the caller's fault.
func TestServeTimeoutMsInvalid(t *testing.T) {
	g := saphyra.Generate.BarabasiAlbert(120, 2, 5)
	s, ids := newTestServer(t, g, Config{DisablePrecompute: true})
	req := RankRequest{Method: MethodSaPHyRa, Targets: []int64{ids[1]}, Eps: 0.3, Delta: 0.1}
	for _, bad := range []string{"abc", "-5", "0"} {
		if w := postRankTimeout(t, s.Handler(), req, bad); w.Code != http.StatusBadRequest {
			t.Errorf("Timeout-Ms=%q got %d, want 400", bad, w.Code)
		}
	}
}

// TestFlightSurvivesLeaderCancel pins the singleflight semantics the
// detached-flight design exists for: the leader's deadline firing must NOT
// kill the computation a follower with a longer budget is waiting on — the
// leader detaches with a cancellation, the flight keeps running, and the
// follower receives the full result. Only when the LAST waiter leaves is
// the flight context canceled.
func TestFlightSurvivesLeaderCancel(t *testing.T) {
	c := newCache(4)
	key := testKey(1, 'f')
	started := make(chan struct{})
	release := make(chan struct{})
	flightCtxErr := make(chan error, 1)

	leaderCtx, cancelLeader := context.WithCancel(context.Background())
	leaderDone := make(chan error, 1)
	go func() {
		_, led, err := c.do(leaderCtx, key, func(fctx context.Context) (*payload, error) {
			close(started)
			<-release
			flightCtxErr <- fctx.Err()
			return &payload{samples: 7}, nil
		})
		if !led {
			t.Error("first requester did not lead")
		}
		leaderDone <- err
	}()
	<-started

	followerDone := make(chan *payload, 1)
	go func() {
		p, led, err := c.do(context.Background(), key, func(context.Context) (*payload, error) {
			t.Error("follower must not compute")
			return nil, nil
		})
		if led || err != nil {
			t.Errorf("follower: led=%v err=%v", led, err)
		}
		followerDone <- p
	}()
	for c.collapsed.Load() != 1 {
		time.Sleep(100 * time.Microsecond) // until the follower has joined
	}

	// The leader abandons; the follower remains, so the flight must not be
	// canceled.
	cancelLeader()
	if err := <-leaderDone; err == nil || !params.IsCanceled(err) {
		t.Fatalf("abandoning leader got %v, want typed cancellation", err)
	}
	close(release)
	if err := <-flightCtxErr; err != nil {
		t.Fatalf("flight ctx was canceled while a follower still waited: %v", err)
	}
	p := <-followerDone
	if p == nil || p.samples != 7 {
		t.Fatalf("follower got %+v, want the full result", p)
	}
	// The completed result is cached for everyone else.
	if got, led, err := c.do(context.Background(), key, nil); led || err != nil || got.samples != 7 {
		t.Fatalf("post-flight lookup: led=%v err=%v", led, err)
	}
}

// TestFlightCanceledWhenLastWaiterLeaves: with no followers, the leader's
// abandonment cancels the flight context — that is what unwinds the engines
// and frees the admission slot.
func TestFlightCanceledWhenLastWaiterLeaves(t *testing.T) {
	c := newCache(4)
	key := testKey(1, 'l')
	started := make(chan struct{})
	canceledObserved := make(chan struct{})

	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, _, err := c.do(ctx, key, func(fctx context.Context) (*payload, error) {
			close(started)
			<-fctx.Done() // an engine checkpoint observing the cancellation
			close(canceledObserved)
			return nil, &params.CanceledError{Cause: context.Cause(fctx)}
		})
		done <- err
	}()
	<-started
	cancel()
	select {
	case <-canceledObserved:
	case <-time.After(10 * time.Second):
		t.Fatal("flight ctx never canceled after the last waiter left")
	}
	if err := <-done; err == nil || !params.IsCanceled(err) {
		t.Fatalf("got %v, want typed cancellation", err)
	}
	// The error was not cached: the key computes cleanly afterwards.
	if _, led, err := c.do(context.Background(), key, func(context.Context) (*payload, error) {
		return &payload{samples: 1}, nil
	}); !led || err != nil {
		t.Fatalf("key poisoned after canceled flight: led=%v err=%v", led, err)
	}
	if !errors.Is(context.Cause(ctx), context.Canceled) {
		t.Fatal("sanity: cause should be context.Canceled")
	}
}

// TestServeMetricsz: the Prometheus endpoint renders the request, error and
// cache counters, including the deadline/cancellation series.
func TestServeMetricsz(t *testing.T) {
	g := saphyra.Generate.BarabasiAlbert(150, 2, 8)
	s, ids := newTestServer(t, g, Config{DisablePrecompute: true})

	// One successful rank and one deadline expiry to move the counters.
	if _, code := postRank(t, s.Handler(), RankRequest{Method: MethodCloseness, Targets: []int64{ids[1], ids[2]}, Eps: 0.2, Delta: 0.1}); code != http.StatusOK {
		t.Fatalf("rank failed: %d", code)
	}
	postRankTimeout(t, s.Handler(), RankRequest{
		Method: MethodSaPHyRa, Targets: []int64{ids[3], ids[4]}, Eps: 0.004, Delta: 0.05, Seed: 9,
	}, "1")

	w := httptest.NewRecorder()
	s.Handler().ServeHTTP(w, httptest.NewRequest("GET", "/metricsz", nil))
	if w.Code != http.StatusOK {
		t.Fatalf("metricsz status %d", w.Code)
	}
	if ct := w.Header().Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("metricsz content type %q", ct)
	}
	body := w.Body.String()
	for _, want := range []string{
		`saphyra_requests_total{endpoint="rank"} 2`,
		`saphyra_request_errors_total{reason="deadline"} 1`,
		`saphyra_cache_events_total{kind="miss"}`,
		"# TYPE saphyra_requests_total counter",
		"# TYPE saphyra_generation gauge",
		"saphyra_generation 1",
		"saphyra_workers_total",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("metricsz missing %q\n%s", want, body)
		}
	}
}

// TestServeTimeoutMsCannotExtendServerBound: the header may only tighten
// the operator's DefaultTimeout — a client asking for hours on a server
// bounded to ~1ms still gets 504, so compute slots cannot be pinned past
// the configured limit. Overflow-scale header values must clamp, not wrap:
// on a server with no default, a near-int64-max Timeout-Ms behaves as
// unbounded (request succeeds) rather than wrapping to an instant 504 or
// to no deadline when a finite one was requested.
func TestServeTimeoutMsCannotExtendServerBound(t *testing.T) {
	g := saphyra.Generate.BarabasiAlbert(500, 3, 41)
	bounded, ids := newTestServer(t, g, Config{DefaultTimeout: time.Millisecond, DisablePrecompute: true})
	req := RankRequest{
		Method: MethodSaPHyRa, Targets: []int64{ids[7], ids[70]},
		Eps: 0.004, Delta: 0.05, Seed: 13, // outlives 1ms by a wide margin
	}
	if w := postRankTimeout(t, bounded.Handler(), req, "360000000"); w.Code != http.StatusGatewayTimeout {
		t.Fatalf("huge Timeout-Ms on a bounded server got %d, want 504", w.Code)
	}

	unbounded, ids2 := newTestServer(t, g, Config{DisablePrecompute: true})
	easy := RankRequest{Method: MethodCloseness, Targets: []int64{ids2[1], ids2[2]}, Eps: 0.2, Delta: 0.1}
	for _, ms := range []string{"18446744073710", "9223372036854775807"} {
		if w := postRankTimeout(t, unbounded.Handler(), easy, ms); w.Code != http.StatusOK {
			t.Fatalf("overflow-scale Timeout-Ms %s wrapped: got %d, want 200", ms, w.Code)
		}
	}
}
