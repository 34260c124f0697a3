//go:build timing

package cluster

import "testing"

// TestClusterLoadgenHitDominatedSLOWallClock is the wall-clock half of
// TestClusterLoadgenHitDominatedSLO: the same replay through the router
// must meet the cluster mix's SLO (p99 250 ms, p99.9 1 s, at most 1% shed
// and 1% errors). Latency is the machine's as much as the code's, so it
// runs alone:
//
//	go test -tags timing -p 1 -count=1 -run WallClock ./internal/cluster/
func TestClusterLoadgenHitDominatedSLOWallClock(t *testing.T) {
	r := replayClusterHitDominated(t)
	if !r.Pass {
		t.Fatalf("cluster mix failed its SLO: %v (p99 %.2fms, shed %.2f%%, err %.2f%%)",
			r.SLOViolations, r.P99Ms, 100*r.ShedRate, 100*r.ErrorRate)
	}
}
