//go:build timing

package loadgen

import (
	"bytes"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"saphyra/internal/obs/hist"
)

// TestInstrumentationOverheadWallClock is the wall-clock half of the
// telemetry gate: the cache-hit p99 of a server with tracing armed on every
// request must stay within 20% of an uninstrumented server's. Min-of-rounds
// p99 filters scheduler and GC noise from both sides, but not a loaded
// machine, so it runs alone:
//
//	go test -tags timing -p 1 -count=1 -run WallClock ./internal/loadgen/
func TestInstrumentationOverheadWallClock(t *testing.T) {
	if testing.Short() {
		t.Skip("timing test")
	}
	plain, instr, body := overheadPair(t)
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
			serveOne(plain, &rp)
			serveOne(instr, &ri)
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
