package sched

import (
	"context"
	"math"
	"sync"
	"sync/atomic"
	"testing"
)

func TestSplit(t *testing.T) {
	q := Split(10, 4, nil)
	want := []int64{3, 3, 2, 2}
	for i := range want {
		if q[i] != want[i] {
			t.Fatalf("Split(10,4) = %v, want %v", q, want)
		}
	}
	var sum int64
	for _, v := range Split(1<<20+3, 7, nil) {
		sum += v
	}
	if sum != 1<<20+3 {
		t.Fatalf("Split quotas sum to %d", sum)
	}
	// Reuse: a capacious buffer must be reused, not reallocated.
	buf := make([]int64, 8)
	q = Split(5, 3, buf)
	if &q[0] != &buf[0] {
		t.Error("Split did not reuse the provided buffer")
	}
}

func TestBoundsCoverAndBalance(t *testing.T) {
	cost := make([]float64, 100)
	for i := range cost {
		cost[i] = float64(1 + i%7)
	}
	for _, chunks := range []int{1, 2, 3, 8, 64, 100} {
		b := Bounds(cost, chunks, nil)
		if len(b) != chunks+1 || b[0] != 0 || b[chunks] != len(cost) {
			t.Fatalf("chunks=%d: bad bounds %v", chunks, b)
		}
		for c := 0; c < chunks; c++ {
			if b[c] > b[c+1] {
				t.Fatalf("chunks=%d: non-monotone bounds at %d in %v", chunks, c, b)
			}
		}
	}
}

func TestBoundsSkewedNoPrefixCapture(t *testing.T) {
	// One item dominating the mass must not capture a prefix of chunks:
	// chunk c never starts before item c, so later items still spread out.
	cost := []float64{1e12, 1, 1, 1, 1, 1, 1, 1}
	b := Bounds(cost, 4, nil)
	for c := 0; c <= 4; c++ {
		if b[c] < min(c, len(cost)) {
			t.Fatalf("chunk %d starts at %d in %v", c, b[c], b)
		}
	}
	if b[1] != 1 {
		t.Fatalf("dominant item should fill chunk 0 alone: %v", b)
	}
}

func TestBoundsDeterministic(t *testing.T) {
	cost := make([]float64, 1000)
	for i := range cost {
		cost[i] = math.Abs(math.Sin(float64(i))) * 100
	}
	a := Bounds(cost, 64, nil)
	b := Bounds(cost, 64, nil)
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("Bounds not deterministic")
		}
	}
}

func TestDoCoversAllChunksOnce(t *testing.T) {
	for _, workers := range []int{1, 2, 8, 33} {
		const chunks = 100
		var hits [chunks]atomic.Int32
		if err := DoCtx(context.Background(), chunks, workers, func(c int) { hits[c].Add(1) }); err != nil {
			t.Fatal(err)
		}
		for c := range hits {
			if got := hits[c].Load(); got != 1 {
				t.Fatalf("workers=%d: chunk %d ran %d times", workers, c, got)
			}
		}
	}
}

func TestDoWithBracketsGoroutines(t *testing.T) {
	var mu sync.Mutex
	acquired, released := 0, 0
	err := DoWithCtx(context.Background(), 50, 4,
		func() int { mu.Lock(); acquired++; mu.Unlock(); return 0 },
		func(int) { mu.Lock(); released++; mu.Unlock() },
		func(_ int, c int) {})
	if err != nil {
		t.Fatal(err)
	}
	if acquired != released {
		t.Fatalf("acquire/release mismatch: %d vs %d", acquired, released)
	}
	if acquired < 1 || acquired > 4 {
		t.Fatalf("acquired %d resources for 4 workers", acquired)
	}
}

func TestDoSequentialInOrder(t *testing.T) {
	var order []int
	if err := DoCtx(context.Background(), 5, 1, func(c int) { order = append(order, c) }); err != nil {
		t.Fatal(err)
	}
	for i, c := range order {
		if c != i {
			t.Fatalf("sequential Do out of order: %v", order)
		}
	}
}

func TestEpochWrapClears(t *testing.T) {
	marks := make([]int32, 4)
	e := NewEpoch(marks)
	ep := e.Next()
	if ep != 1 {
		t.Fatalf("first epoch = %d, want 1", ep)
	}
	marks[2] = ep
	e.cur = math.MaxInt32 // force wrap on the next call
	ep = e.Next()
	if ep != 1 {
		t.Fatalf("post-wrap epoch = %d, want 1", ep)
	}
	if marks[2] != 0 {
		t.Error("wrap did not clear registered marks")
	}
}

func TestBudgetGrantBounds(t *testing.T) {
	b := NewBudget(8, 3)
	if b.PerCall() != 3 {
		t.Fatalf("PerCall = %d, want 3", b.PerCall())
	}
	if got := b.Acquire(0); got != 3 { // want<=0 means "per-call max"
		t.Fatalf("Acquire(0) = %d, want 3", got)
	}
	if got := b.Acquire(10); got != 3 { // clamped to perCall
		t.Fatalf("Acquire(10) = %d, want 3", got)
	}
	if got := b.Acquire(1); got != 1 {
		t.Fatalf("Acquire(1) = %d, want 1", got)
	}
	// 7 of 8 slots held: the next caller gets the single leftover, not 3.
	if got := b.Acquire(3); got != 1 {
		t.Fatalf("Acquire(3) with one slot free = %d, want 1", got)
	}
	b.Release(3 + 3 + 1 + 1)
}

func TestBudgetClamps(t *testing.T) {
	b := NewBudget(0, 99) // degenerate config still yields a working pool
	if b.PerCall() != 1 {
		t.Fatalf("PerCall = %d, want 1", b.PerCall())
	}
	got := b.Acquire(5)
	if got != 1 {
		t.Fatalf("Acquire = %d, want 1", got)
	}
	b.Release(got)
}

// TestBudgetConcurrentNeverExceedsTotal runs many concurrent acquires (use
// -race) and checks the in-use slot count never exceeds the pool size and
// every caller is eventually served (no deadlock, grants >= 1).
func TestBudgetConcurrentNeverExceedsTotal(t *testing.T) {
	const total, perCall = 4, 2
	b := NewBudget(total, perCall)
	var inUse, peak atomic.Int64
	var wg sync.WaitGroup
	for g := 0; g < 16; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				got := b.Acquire(1 + (g+i)%4)
				if got < 1 || got > perCall {
					t.Errorf("grant %d outside [1,%d]", got, perCall)
				}
				now := inUse.Add(int64(got))
				for {
					p := peak.Load()
					if now <= p || peak.CompareAndSwap(p, now) {
						break
					}
				}
				inUse.Add(-int64(got))
				b.Release(got)
			}
		}(g)
	}
	wg.Wait()
	if p := peak.Load(); p > total {
		t.Fatalf("peak in-use %d exceeds total %d", p, total)
	}
	if inUse.Load() != 0 {
		t.Fatalf("slots leaked: %d still in use", inUse.Load())
	}
}

// TestDoCtxPreCanceled: a context that is already done runs no chunks and
// reports the cause.
func TestDoCtxPreCanceled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	ran := 0
	if err := DoCtx(ctx, 8, 4, func(c int) { ran++ }); err != context.Canceled {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if ran != 0 {
		t.Fatalf("%d chunks ran under a pre-canceled ctx", ran)
	}
}

// TestDoCtxBackgroundRunsAll: the nil-error path is exactly Do.
func TestDoCtxBackgroundRunsAll(t *testing.T) {
	var ran [16]atomic.Int64
	if err := DoCtx(context.Background(), 16, 4, func(c int) { ran[c].Add(1) }); err != nil {
		t.Fatal(err)
	}
	for c := range ran {
		if ran[c].Load() != 1 {
			t.Fatalf("chunk %d ran %d times", c, ran[c].Load())
		}
	}
}

// TestDoWithCtxStopsStealingMidRun: canceling while chunks are in flight
// stops further stealing (some chunks never run) and returns the cause —
// the all-or-nothing contract's mechanism. Started chunks always finish.
func TestDoWithCtxStopsStealingMidRun(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	var started atomic.Int64
	const chunks = 64
	err := DoCtx(ctx, chunks, 4, func(c int) {
		if started.Add(1) == 3 {
			cancel() // fires while most chunks are still unclaimed
		}
	})
	if err != context.Canceled {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if n := started.Load(); n >= chunks {
		t.Fatalf("all %d chunks ran despite mid-run cancel", n)
	}
	// Sequential path too.
	ctx2, cancel2 := context.WithCancel(context.Background())
	var seq int
	err = DoCtx(ctx2, chunks, 1, func(c int) {
		seq++
		if seq == 2 {
			cancel2()
		}
	})
	if err != context.Canceled || seq != 2 {
		t.Fatalf("sequential: err=%v ran=%d, want cancel after 2", err, seq)
	}
	// A cancel inside the last chunk is still reported on both paths: that
	// chunk may have cut its work short through a Stop watching ctx.
	for _, workers := range []int{1, 4} {
		ctx3, cancel3 := context.WithCancel(context.Background())
		err = DoCtx(ctx3, 4, workers, func(c int) {
			if c == 3 {
				cancel3()
			}
		})
		if err != context.Canceled {
			t.Fatalf("workers=%d: cancel in the last chunk returned %v, want context.Canceled", workers, err)
		}
	}
}

// TestDoWithCtxReleasesScratchOnCancel: acquire/release stay paired even
// when the run is cut short.
func TestDoWithCtxReleasesScratchOnCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	var acquired, released atomic.Int64
	DoWithCtx(ctx, 8, 4,
		func() int { acquired.Add(1); return 0 },
		func(int) { released.Add(1) },
		func(int, int) {})
	if a, r := acquired.Load(), released.Load(); a != r {
		t.Fatalf("acquire/release unbalanced on cancel: %d vs %d", a, r)
	}
}
