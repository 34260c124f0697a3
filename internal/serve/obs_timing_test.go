//go:build timing

package serve

import "testing"

// TestSlowQueryLogCoverageWallClock is the wall-clock half of
// TestSlowQueryLog: with the slow-query log armed at a threshold every
// compute crosses, one slow request's span tree must account for >= 90% of
// the request's wall time. The request takes about 0.6 ms, so a test binary
// sharing the CPUs can push the ratio under the bound; run it serially
// (go test -tags timing -p 1 -run WallClock).
func TestSlowQueryLogCoverageWallClock(t *testing.T) {
	e := logSlowQuery(t)
	var topUs float64
	for _, sp := range e.Trace.Spans {
		topUs += sp.DurUs
	}
	if cover := topUs / (e.DurationMs * 1e3); cover < 0.90 {
		t.Errorf("span tree covers %.0f%% of %.2fms wall time, want >= 90%%", 100*cover, e.DurationMs)
	}
}
