package core

import (
	"context"
	"errors"
	"testing"
	"time"

	"saphyra/internal/graph"
	"saphyra/internal/params"
	"saphyra/internal/sched"
)

// TestDrawBatchStopBound bounds time-to-cancel inside one batch: raising
// the wired Stop mid-batch must return DrawBatch within the poll stride,
// not at the end of the batch. The requested batch is astronomically
// large, so any return at all proves the in-batch polls fired — the bound
// below is pure scheduling slack, orders of magnitude under the uncanceled
// batch time.
func TestDrawBatchStopBound(t *testing.T) {
	g := skewedGraph()
	sp := testSpace(t, g, 80, 11)
	s := sp.NewSampler(5).(*bcSampler)
	stop := new(sched.Stop)
	s.SetStop(stop)

	hits := make([]int64, sp.NumHypotheses())
	done := make(chan struct{})
	go func() {
		defer close(done)
		s.DrawBatch(1<<40, hits)
	}()

	time.Sleep(20 * time.Millisecond) // let the batch get going
	raised := time.Now()
	stop.Raise()
	select {
	case <-done:
		if e := time.Since(raised); e > 2*time.Second {
			t.Fatalf("DrawBatch returned %v after Raise; want sub-round latency", e)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("DrawBatch never observed the raised stop")
	}
}

// TestStopWiringIsBitwiseNeutral: a wired-but-unraised Stop must not change
// a single bit of the sample stream — the polls are pure control flow and
// consume no randomness. Same seed, same batch, with and without the wiring.
func TestStopWiringIsBitwiseNeutral(t *testing.T) {
	g := graph.BarabasiAlbert(1200, 3, 9)
	sp := testSpace(t, g, 40, 3)

	draw := func(wire bool) []int64 {
		s := sp.NewSampler(7).(*bcSampler)
		if wire {
			s.SetStop(new(sched.Stop))
		}
		hits := make([]int64, sp.NumHypotheses())
		s.DrawBatch(20_000, hits)
		return hits
	}
	bare, wired := draw(false), draw(true)
	for i := range bare {
		if bare[i] != wired[i] {
			t.Fatalf("hits[%d] = %d with stop wired, %d without (wiring changed the stream)", i, wired[i], bare[i])
		}
	}
}

// TestEstimateCancelLatency: end to end, canceling the request context mid
// sampling must surface a *params.CanceledError well before the run would
// have finished — the chunk-boundary checkpoints alone bound cancel latency
// by a whole sampling round; the in-batch polls bring it to the stride.
func TestEstimateCancelLatency(t *testing.T) {
	g := skewedGraph()
	targets := make([]graph.Node, 0, 200)
	for i := 0; i < 200; i++ {
		targets = append(targets, graph.Node((i*191)%g.NumNodes()))
	}
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(30 * time.Millisecond)
		cancel()
	}()
	start := time.Now()
	_, err := EstimateBC(ctx, g, targets, BCOptions{
		Epsilon: 0.002, Delta: 0.01, Seed: 99, Workers: 2,
	})
	elapsed := time.Since(start)
	var ce *params.CanceledError
	if err == nil || !errors.As(err, &ce) {
		t.Fatalf("err = %v, want *params.CanceledError", err)
	}
	// The eps above asks for hundreds of millions of samples — minutes of
	// work. Returning within a few seconds of the 30ms cancel proves the
	// run aborted sub-round rather than finishing a full sampling round.
	if elapsed > 5*time.Second {
		t.Fatalf("cancel took %v end to end; want bounded sub-round latency", elapsed)
	}
}
