package closeness

import (
	"context"
	"math/bits"
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
// sampling, MS-BFS pricing, deterministic merge) on the raw CSR in its
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
// end to end: the MS-BFS passes plus the target-major accumulate. The view
// build is outside the timed loop. flickr is the Flickr stand-in at scale 4
// (24k nodes, the graph bench/run.sh serves), whose passes need three depth
// planes; road is the usaroad-sim stand-in at scale 1.5 (21k nodes), whose
// deepest passes run past 255 levels and so decode nine planes to 16-bit
// lanes. planes/op is the most planes one pass needed.
func BenchmarkClosenessAllNodes(b *testing.B) {
	for _, tc := range []struct {
		name   string
		net    datasets.Network
		scale  float64
		planes int // the fewest planes the deepest pass must need
	}{
		{"flickr", datasets.Flickr, 4, 3},
		{"road", datasets.USARoad, 1.5, 9},
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
			np := planeCount(eng.free[0].src[0])
			if np < tc.planes {
				b.Fatalf("the deepest pass needed %d depth planes, want at least %d", np, tc.planes)
			}
			b.ReportMetric(float64(res.Samples), "samples/op")
			b.ReportMetric(float64(np), "planes/op")
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
	nodes := graph.DedupSorted(targets)
	sc := eng.acquire(nodes)
	defer eng.release(sc)
	s := sc.activate(eng, 0, benchOpt.Seed, len(nodes))
	b.ReportAllocs()
	b.ResetTimer()
	s.sampleBatch(context.Background(), eng, sc.sourcePasses(eng.n, 1)[0], sc.aIndex, len(nodes), nil, int64(b.N))
	if s.err != nil {
		b.Fatal(s.err)
	}
}

// TestSampleBatchAllocatesNothing pins the hot loop
// BenchmarkClosenessSampleBatch prices: 4,096 samples — 64 MS-BFS passes
// with fresh random sources — allocate nothing.
func TestSampleBatchAllocatesNothing(t *testing.T) {
	g := benchGraph()
	targets := benchTargets(g, 50)
	eng := NewEngine(g)
	nodes := graph.DedupSorted(targets)
	sc := eng.acquire(nodes)
	defer eng.release(sc)
	s := sc.activate(eng, 0, benchOpt.Seed, len(nodes))
	p := sc.sourcePasses(eng.n, 1)[0]
	allocs := testing.AllocsPerRun(1, func() {
		s.sampleBatch(context.Background(), eng, p, sc.aIndex, len(nodes), nil, 4096)
	})
	if s.err != nil {
		t.Fatal(s.err)
	}
	if allocs != 0 {
		t.Errorf("sampleBatch(4096) allocates %.0f times, want 0", allocs)
	}
}

// TestTargetRoundAllocatesNothing pins the target shape's steady state: a
// warmed single-worker round — 10,000 sources in three chunks, two target
// batches each — allocates nothing.
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
		if err := eng.batchParallel(context.Background(), sc, opt, nil, count, sc.accs); err != nil {
			t.Fatal(err)
		}
	}
	round() // builds the pooled workspace
	if allocs := testing.AllocsPerRun(1, round); allocs != 0 {
		t.Errorf("target-shape round allocates %.0f times, want 0", allocs)
	}
}

// TestTargetShapeMemoryBound: the target shape's buffers are sized by
// srcChunk and the worker count, never by the sample budget. A call drawing
// many chunks per round leaves the pooled workspace at its fixed size.
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
			if res.Samples < 16*srcChunk {
				t.Fatalf("drew %d samples, want at least %d chunks' worth", res.Samples, 16)
			}
			ts := &eng.free[0].tgt
			if cap(ts.srcs) != srcChunk || cap(ts.rows) != srcChunk || len(ts.slot) != g.NumNodes() {
				t.Errorf("source buffers cap %d/%d, slot %d; want %d/%d, %d",
					cap(ts.srcs), cap(ts.rows), len(ts.slot), srcChunk, srcChunk, g.NumNodes())
			}
			if len(ts.passes) != tc.passes {
				t.Errorf("%d pass workspaces, want %d", len(ts.passes), tc.passes)
			}
			for i, p := range ts.passes {
				if cap(p.table) != srcChunk*msbfs.MaxLanes {
					t.Errorf("pass %d: table cap %d, want %d", i, cap(p.table), srcChunk*msbfs.MaxLanes)
				}
			}
		})
	}
}

// TestSourceShapeMemoryBound: the source shape's traversals and depth
// planes belong to the goroutines running streams, not to the streams, so
// a whole-network call holds min(Workers, VirtualWorkers) of them however
// many of the streams draw. Each workspace holds no more planes than the
// graph's deepest BFS level needs, and leaves every plane word zero.
func TestSourceShapeMemoryBound(t *testing.T) {
	old := runtime.GOMAXPROCS(8)
	defer runtime.GOMAXPROCS(old)
	g := graph.BarabasiAlbert(1200, 3, 6)
	a := allNodes(g)
	maxPlanes := bits.Len32(uint32(diameter(g)))
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
		// A goroutine that stole no stream never added a plane.
		for i, p := range sc.src {
			if np := planeCount(p); np > maxPlanes || len(p.planes) != np*len(a) {
				t.Errorf("workers=%d: workspace %d: %d words in planes of %d; want at most %d planes", workers, i, len(p.planes), len(a), maxPlanes)
			}
			if slices.ContainsFunc(p.planes[:cap(p.planes)], func(w uint64) bool { return w != 0 }) {
				t.Errorf("workers=%d: workspace %d: plane words left nonzero", workers, i)
			}
		}
	}
}

// planeCount is how many depth planes workspace p holds.
func planeCount(p *sourcePass) int {
	if p.k == 0 {
		return 0
	}
	return len(p.planes) / p.k
}

// diameter is the deepest BFS level from any node of g.
func diameter(g *graph.Graph) int32 {
	var deepest int32
	for u := range g.NumNodes() {
		deepest = max(deepest, graph.Eccentricity(g, graph.Node(u)))
	}
	return deepest
}
