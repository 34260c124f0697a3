package closeness

import (
	"context"
	"reflect"
	"runtime"
	"slices"
	"testing"

	"saphyra/internal/bicomp"
	"saphyra/internal/datasets"
	"saphyra/internal/graph"
	"saphyra/internal/msbfs"
	"saphyra/internal/sched"
)

func benchGraph() *graph.Graph {
	return graph.BarabasiAlbert(2000, 3, 42)
}

func benchTargets(g *graph.Graph, n int) []graph.Node {
	targets := make([]graph.Node, 0, n)
	for i := 0; i < n; i++ {
		targets = append(targets, graph.Node((int64(i)*2_654_435_761+7)%int64(g.NumNodes())))
	}
	return targets
}

// benchOpt caps the sample budget so the row measures the pricing engine,
// not the Bernstein stopping point of one particular graph.
var benchOpt = Options{Epsilon: 0.1, Delta: 0.1, Seed: 7, Workers: 4, MaxSamples: 2000}

// BenchmarkCloseness measures the estimator end to end (virtual-worker
// sampling, MS-BFS pricing, integer sums) on the raw CSR in its
// serving configuration — Engine built once, workspaces pooled. Its 50
// targets put every round in the target shape with one batch, which runs
// inline at any worker count, so the steady state allocates nothing; the
// B/op it reports is the first call's pooled workspace, amortized.
// bench/run.sh's rank-session workload is the recorded end-to-end number.
func BenchmarkCloseness(b *testing.B) {
	g := benchGraph()
	targets := benchTargets(g, 50)
	eng := NewEngine(g)
	var res Result
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := eng.EstimateInto(context.Background(), targets, benchOpt, &res); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkClosenessView is BenchmarkCloseness priced over the shared
// BlockCSR view's grouped adjacency (the build-once/serve-many path); the
// view build is outside the timed loop, as it is in a serving process.
func BenchmarkClosenessView(b *testing.B) {
	g := benchGraph()
	view := bicomp.NewBlockCSR(g)
	targets := benchTargets(g, 50)
	eng := NewEngineView(view)
	var res Result
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := eng.EstimateInto(context.Background(), targets, benchOpt, &res); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkClosenessAllNodes prices the whole-network ranking a daemon
// precomputes at boot: every node a target, over the graph's view at the
// daemon's defaults (eps 0.05, delta 0.01) and one worker. k = n keeps
// every round in the source shape, so this is sampleBatch's pricing loop
// end to end: the MS-BFS passes and their settles' integer adds. The view
// build is outside the timed loop. flickr is the Flickr stand-in at scale 4
// (24k nodes, the graph bench/run.sh serves); road is the usaroad-sim
// stand-in at scale 1.5 (21k nodes), whose deepest passes run past the
// loss memo's 255 levels. passes/op is the MS-BFS passes one call makes,
// replayed from its round schedule.
func BenchmarkClosenessAllNodes(b *testing.B) {
	for _, tc := range []struct {
		name  string
		net   datasets.Network
		scale float64
	}{
		{"flickr", datasets.Flickr, 4},
		{"road", datasets.USARoad, 1.5},
	} {
		b.Run(tc.name, func(b *testing.B) {
			g := tc.net.Build(tc.scale)
			eng := NewEngineView(bicomp.NewBlockCSR(g))
			targets := allNodes(g)
			opt := Options{Epsilon: 0.05, Delta: 0.01, Seed: 1, Workers: 1}
			var res Result
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := eng.EstimateInto(context.Background(), targets, opt, &res); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			if shapes := roundShapes(len(targets), opt, res.Rounds); slices.Contains(shapes, true) {
				b.Fatalf("round shapes %v, want the source shape throughout", shapes)
			}
			b.ReportMetric(float64(res.Samples), "samples/op")
			b.ReportMetric(float64(passCount(len(targets), opt, res.Rounds)), "passes/op")
		})
	}
}

// BenchmarkClosenessLegacy pins the pre-MS-BFS engine — one scalar BFS per
// sampled source (legacy_test.go) — so the bit-parallel win stays
// measurable against BenchmarkCloseness after the production code moved on.
func BenchmarkClosenessLegacy(b *testing.B) {
	g := benchGraph()
	targets := benchTargets(g, 50)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := estimateLegacy(context.Background(), g, targets, benchOpt); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkClosenessSampleBatch isolates the pricing hot loop: one stream,
// sources priced 64 lanes per MS-BFS pass. Reported per sample.
func BenchmarkClosenessSampleBatch(b *testing.B) {
	g := benchGraph()
	targets := benchTargets(g, 50)
	eng := NewEngine(g)
	sc := eng.acquire(graph.DedupSorted(targets))
	defer eng.release(sc)
	p := sc.sourcePasses(eng.n, 1)[0]
	s := sc.activate(0, benchOpt.Seed)
	b.ReportAllocs()
	b.ResetTimer()
	p.sampleBatch(context.Background(), eng, s, nil, int64(b.N))
	if p.err != nil {
		b.Fatal(p.err)
	}
}

// TestSampleBatchAllocatesNothing pins the hot loop
// BenchmarkClosenessSampleBatch prices: 4,096 samples — 64 MS-BFS passes
// with fresh random sources — allocate nothing.
func TestSampleBatchAllocatesNothing(t *testing.T) {
	g := benchGraph()
	targets := benchTargets(g, 50)
	eng := NewEngine(g)
	sc := eng.acquire(graph.DedupSorted(targets))
	defer eng.release(sc)
	p := sc.sourcePasses(eng.n, 1)[0]
	s := sc.activate(0, benchOpt.Seed)
	allocs := testing.AllocsPerRun(1, func() {
		p.sampleBatch(context.Background(), eng, s, nil, 4096)
	})
	if p.err != nil {
		t.Fatal(p.err)
	}
	if allocs != 0 {
		t.Errorf("sampleBatch(4096) allocates %.0f times, want 0", allocs)
	}
}

// TestTargetRoundAllocatesNothing pins the target shape's steady state: a
// warmed single-worker round — 10,000 sources, two target batches —
// allocates nothing.
func TestTargetRoundAllocatesNothing(t *testing.T) {
	g := benchGraph()
	eng := NewEngine(g)
	nodes := graph.DedupSorted(benchTargets(g, 100))
	sc := eng.acquire(nodes)
	defer eng.release(sc)
	opt := Options{Seed: benchOpt.Seed, Workers: 1}
	const count = 10_000
	if !targetShape(sched.Split(count, sched.VirtualWorkers, nil), len(nodes)) {
		t.Fatal("round does not take the target shape")
	}
	round := func() {
		if err := eng.batchParallel(context.Background(), sc, opt, nil, count); err != nil {
			t.Fatal(err)
		}
	}
	round() // builds the pooled workspace
	if allocs := testing.AllocsPerRun(1, round); allocs != 0 {
		t.Errorf("target-shape round allocates %.0f times, want 0", allocs)
	}
}

// TestTargetShapeMemoryBound: the target shape's workspace is sized by the
// graph, the target count and the worker count, never by the sample
// budget. A call drawing each node dozens of times per round holds one
// n-entry draw count, min(Workers, ceil(k/64)) traversals and one
// accumulator of k entries; no stream holds an array and no pass a depth
// table.
func TestTargetShapeMemoryBound(t *testing.T) {
	old := runtime.GOMAXPROCS(8)
	defer runtime.GOMAXPROCS(old)
	g := graph.BarabasiAlbert(400, 3, 6)
	for _, tc := range []struct {
		name    string
		a       []graph.Node
		workers int
		passes  int // min(Workers, ceil(k/64))
	}{
		{"one-batch", []graph.Node{0, 3, 17, 99, 120, 399}, 8, 1},
		{"two-batches", benchTargets(g, 100), 8, 2},
	} {
		t.Run(tc.name, func(t *testing.T) {
			eng := NewEngine(g)
			res, err := eng.Estimate(context.Background(), tc.a, Options{Epsilon: 0.002, Delta: 0.05, Seed: 3, Workers: tc.workers, MaxSamples: 1 << 40})
			if err != nil {
				t.Fatal(err)
			}
			if n := int64(g.NumNodes()); res.Samples < 64*n {
				t.Fatalf("drew %d samples, want at least 64 per node (%d)", res.Samples, 64*n)
			}
			sc := eng.free[0]
			if len(sc.tgt.mult) != g.NumNodes() {
				t.Errorf("draw counts hold %d entries, want n = %d", len(sc.tgt.mult), g.NumNodes())
			}
			if len(sc.tgt.passes) != tc.passes {
				t.Errorf("%d pass workspaces, want %d", len(sc.tgt.passes), tc.passes)
			}
			if len(sc.src) != 0 {
				t.Errorf("%d source-shape workspaces, want none", len(sc.src))
			}
			checkAccumulators(t, sc, 1, len(res.Nodes))
			checkSliceFields(t, targetScratch{}, "mult", "passes")
			checkSliceFields(t, targetPass{}, "mult", "acc")
			checkSliceFields(t, stream{})
		})
	}
}

// TestSourceShapeMemoryBound: the source shape's traversals and
// accumulators belong to the goroutines running streams, not to the
// streams, so a whole-network call holds min(Workers, VirtualWorkers)
// workspaces and as many accumulators of k entries, however many of the
// streams draw. No stream holds an array and no workspace a depth table.
func TestSourceShapeMemoryBound(t *testing.T) {
	old := runtime.GOMAXPROCS(8)
	defer runtime.GOMAXPROCS(old)
	g := graph.BarabasiAlbert(1200, 3, 6)
	a := allNodes(g)
	for _, workers := range []int{1, 3} {
		eng := NewEngine(g)
		res, err := eng.Estimate(context.Background(), a, Options{Epsilon: 0.2, Delta: 0.05, Seed: 9, Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		if shapes := roundShapes(len(a), Options{Epsilon: 0.2, Delta: 0.05}, res.Rounds); slices.Contains(shapes, true) {
			t.Fatalf("round shapes %v, want the source shape throughout", shapes)
		}
		sc := eng.free[0]
		if len(sc.src) != workers {
			t.Errorf("workers=%d: %d source-shape workspaces, want %d", workers, len(sc.src), workers)
		}
		if sc.tgt.mult != nil || len(sc.tgt.passes) != 0 {
			t.Errorf("workers=%d: a source-shape call built the target shape's workspace", workers)
		}
		checkAccumulators(t, sc, workers, len(a))
	}
	checkSliceFields(t, sourcePass{}, "aIndex", "acc")
	checkSliceFields(t, stream{})
}

// checkAccumulators checks that the call on sc used exactly m accumulators
// of k entries, and pooled no more.
func checkAccumulators(t *testing.T, sc *callScratch, m, k int) {
	t.Helper()
	if sc.nacc != m || len(sc.acc) != m {
		t.Errorf("%d accumulators used, %d pooled; want %d", sc.nacc, len(sc.acc), m)
	}
	for i, a := range sc.acc {
		if len(a) != k {
			t.Errorf("accumulator %d holds %d entries, want k = %d", i, len(a), k)
		}
	}
}

// checkSliceFields checks that the struct type of v has exactly the named
// slice fields: any other array-sized state would have to be one of them.
func checkSliceFields(t *testing.T, v any, want ...string) {
	t.Helper()
	typ := reflect.TypeOf(v)
	var got []string
	for i := range typ.NumField() {
		if f := typ.Field(i); f.Type.Kind() == reflect.Slice {
			got = append(got, f.Name)
		}
	}
	if !slices.Equal(got, want) {
		t.Errorf("%s has slice fields %v, want %v", typ.Name(), got, want)
	}
}

// passCount replays the round schedule of a call on k targets that ran the
// given rounds and returns the MS-BFS passes it made.
func passCount(k int, opt Options, rounds int) int64 {
	opt.setDefaults()
	n0, nmax := budget(opt.Epsilon, opt.Delta, k, opt.MaxSamples)
	var passes int64
	for r, drawn, target := 0, int64(0), n0; r < rounds; r, drawn, target = r+1, target, min(target*2, nmax) {
		quota := sched.Split(target-drawn, sched.VirtualWorkers, nil)
		if targetShape(quota, k) {
			passes += int64((k + msbfs.MaxLanes - 1) / msbfs.MaxLanes)
			continue
		}
		for _, q := range quota {
			passes += (q + msbfs.MaxLanes - 1) / msbfs.MaxLanes
		}
	}
	return passes
}
