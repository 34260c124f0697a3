package query

import (
	"context"
	"math"
	"runtime"
	"sync"
	"testing"

	"saphyra/internal/datasets"
	"saphyra/internal/graph"
	"saphyra/internal/params"
)

// pollCancelCtx cancels itself at a fixed checkpoint: its Err reports
// context.Canceled from the after-th call on, and its Done channel closes at
// that moment. The engines poll Err at their round and chunk checkpoints,
// in a fixed order at one worker, so the cancel lands at the same point of
// the computation on every run. after = 0 never fires, and counts the polls
// of a whole run.
type pollCancelCtx struct {
	context.Context
	after int

	mu    sync.Mutex
	polls int
	done  chan struct{}
}

func newPollCancelCtx(after int) *pollCancelCtx {
	return &pollCancelCtx{Context: context.Background(), after: after, done: make(chan struct{})}
}

func (c *pollCancelCtx) Done() <-chan struct{} { return c.done }

func (c *pollCancelCtx) Err() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.polls++
	switch {
	case c.after == 0 || c.polls < c.after:
		return nil
	case c.polls == c.after:
		close(c.done)
	}
	return context.Canceled
}

// TestRankerPoolsAfterCancel: a query canceled mid-sampling hands its pooled
// scratch back in whatever state the cancel left it, and the next queries on
// the same Ranker must still be bitwise those of a fresh Ranker — at one and
// three workers, for the canceled query itself and for a different target
// set (whose index map must not inherit the canceled query's targets).
func TestRankerPoolsAfterCancel(t *testing.T) {
	g := graph.BarabasiAlbert(2000, 3, 21)
	subsets := datasets.RandomSubsets(g.NumNodes(), 50, 2, 8)
	canceled := Query{Measure: Betweenness, Targets: subsets[0], Epsilon: 0.01, Delta: 0.05, Seed: 3}
	next := Query{Measure: Betweenness, Targets: subsets[1], Epsilon: 0.02, Delta: 0.05, Seed: 4}

	// Count the checkpoints of a whole run at one worker, then cancel a few
	// polls before its end: inside the last sampling round.
	counter := newPollCancelCtx(0)
	q1 := canceled
	q1.Workers = 1
	ref, err := NewRanker(g).Rank(counter, q1)
	if err != nil {
		t.Fatal(err)
	}
	if ref.Samples < 4096 {
		t.Fatalf("the canceled query draws %d samples; it must run several multi-stream rounds", ref.Samples)
	}
	after := counter.polls - 3

	for _, w := range []int{1, 3} {
		r := NewRanker(g)
		q := canceled
		q.Workers = w
		if res, err := r.Rank(newPollCancelCtx(after), q); err == nil || res != nil || !params.IsCanceled(err) {
			t.Fatalf("workers %d: canceled query returned res=%v err=%v", w, res, err)
		}
		for _, follow := range []Query{next, canceled} {
			follow.Workers = w
			got, err := r.Rank(context.Background(), follow)
			if err != nil {
				t.Fatal(err)
			}
			want, err := NewRanker(g).Rank(context.Background(), follow)
			if err != nil {
				t.Fatal(err)
			}
			assertSameBits(t, got, want)
		}
	}
}

func assertSameBits(t *testing.T, got, want *Result) {
	t.Helper()
	if got.Samples != want.Samples || len(got.Nodes) != len(want.Nodes) {
		t.Fatalf("reused Ranker: %d samples over %d nodes, fresh Ranker: %d over %d", got.Samples, len(got.Nodes), want.Samples, len(want.Nodes))
	}
	for i := range want.Scores {
		if got.Nodes[i] != want.Nodes[i] || math.Float64bits(got.Scores[i]) != math.Float64bits(want.Scores[i]) {
			t.Fatalf("reused Ranker: node %d score %v, fresh Ranker: node %d score %v", got.Nodes[i], got.Scores[i], want.Nodes[i], want.Scores[i])
		}
	}
}

// TestBCQueryAllocationsFollowTargets: a warmed 100-target betweenness query
// allocates O(k) bytes, not O(n). On the Flickr stand-in at scales 1 and 4
// (6k and 24k nodes) the bytes per query must agree within a constant —
// any per-query n-sized buffer would add 4n bytes or more at scale 4.
func TestBCQueryAllocationsFollowTargets(t *testing.T) {
	perQuery := func(scale float64) float64 {
		g := datasets.Flickr.Build(scale)
		r := NewRanker(g)
		subsets := datasets.RandomSubsets(g.NumNodes(), 100, 6, 5)
		run := func() {
			for i, a := range subsets {
				q := Query{Measure: Betweenness, Targets: a, Seed: int64(i), Workers: 1}
				if _, err := r.Rank(context.Background(), q); err != nil {
					t.Fatal(err)
				}
			}
		}
		run() // warm: lazy tables, free lists
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		run()
		runtime.ReadMemStats(&after)
		return float64(after.TotalAlloc-before.TotalAlloc) / float64(len(subsets))
	}
	small, large := perQuery(1), perQuery(4)
	t.Logf("bytes per warmed query: scale 1 %.0f, scale 4 %.0f", small, large)
	if large > small+32<<10 {
		t.Fatalf("a warmed query allocates %.0f B at scale 4 and %.0f B at scale 1: per-query allocation grows with the graph", large, small)
	}
}

// TestRankerConcurrentPooledQueries: concurrent betweenness queries on one
// fresh Ranker share its lazily built per-block tables and its free lists;
// each must still return the bits a sequential run returns.
func TestRankerConcurrentPooledQueries(t *testing.T) {
	g := datasets.Flickr.Build(0.5)
	subsets := datasets.RandomSubsets(g.NumNodes(), 40, 8, 2)
	queries := make([]Query, len(subsets))
	want := make([]*Result, len(subsets))
	seq := NewRanker(g)
	for i, a := range subsets {
		queries[i] = Query{Measure: Betweenness, Targets: a, Epsilon: 0.03, Delta: 0.05, Seed: int64(i), Workers: 1 + i%3}
		res, err := seq.Rank(context.Background(), queries[i])
		if err != nil {
			t.Fatal(err)
		}
		want[i] = res
	}
	r := NewRanker(g)
	got := make([]*Result, len(queries))
	errs := make([]error, len(queries))
	var wg sync.WaitGroup
	for i := range queries {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[i], errs[i] = r.Rank(context.Background(), queries[i])
		}()
	}
	wg.Wait()
	for i := range queries {
		if errs[i] != nil {
			t.Fatal(errs[i])
		}
		assertSameBits(t, got[i], want[i])
	}
}
