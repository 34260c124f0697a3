package closeness

import (
	"context"
	"errors"
	"runtime"
	"slices"
	"testing"
	"time"

	"saphyra/internal/faultinject"
	"saphyra/internal/graph"
	"saphyra/internal/params"
	"saphyra/internal/sched"
)

// TestEngineMatchesLegacyBitwise: the MS-BFS engine must reproduce the
// scalar reference estimator bit for bit — same samples, rounds, and float
// closeness values — at every worker count, in either round shape. Sources
// are drawn in the same per-stream RNG order, MS-BFS distance labels equal
// scalar BFS labels from either end, and every sum is an exact integer, so
// neither the shape nor the grouping of the adds into passes can move a
// bit. Each case runs with the shape rule as it is and with each shape
// forced on every round. The cases beyond ba and road pin the rule's
// choices: four keep the source shape throughout, two flip between
// doubling rounds, and one prices a round's 20,000 draws, from all 16
// streams and about 50 per source, in one target pass. The source-shape
// cases cover a target count off the 64-lane batch, unreached (target,
// lane) pairs on two components, and passes of fewer than 64 lanes after a
// full one. Two more reach past lossFixed's 256-entry memo, where it
// divides: lanes rooted on a 600-node cycle settle targets up to 300
// levels deep, and lanes on a 10,000-node path reach its far end.
func TestEngineMatchesLegacyBitwise(t *testing.T) {
	old := runtime.GOMAXPROCS(8) // let the clamp keep multi-worker runs real
	defer runtime.GOMAXPROCS(old)
	defer func() { roundShape = targetShape }()
	ba, big := graph.BarabasiAlbert(400, 3, 6), graph.BarabasiAlbert(1200, 3, 6)
	comps := disjointUnion(graph.BarabasiAlbert(1500, 3, 6), graph.BarabasiAlbert(1100, 3, 7))
	cycle := disjointUnion(graph.Cycle(600), big)
	path := graph.Path(10_000)
	for _, tc := range []struct {
		name   string
		g      *graph.Graph
		a      []graph.Node
		opt    Options
		shapes []bool // per round, true = target shape; nil = not pinned
	}{
		{"ba", ba, []graph.Node{0, 3, 17, 99, 120, 17}, Options{Epsilon: 0.05, Delta: 0.05, Seed: 9}, nil},
		{"road", graph.RoadNetwork(12, 12, 0.1, 2), []graph.Node{0, 3, 17, 99, 120, 17}, Options{Epsilon: 0.05, Delta: 0.05, Seed: 9}, nil},
		// k = n = 1200: 19 target batches never undercut the 16 passes of a
		// round of at most 1,024 samples.
		{"source-shape", big, allNodes(big), Options{Epsilon: 0.2, Delta: 0.05, Seed: 9}, []bool{false, false, false}},
		// 1,199 targets: the last target batch has 47 lanes.
		{"source-shape-tail", big, allNodes(big)[1:], Options{Epsilon: 0.2, Delta: 0.05, Seed: 9}, []bool{false, false, false}},
		// Two components: every source leaves the other component's
		// targets unreached in its lane.
		{"source-shape-components", comps, allNodes(comps), Options{Epsilon: 0.2, Delta: 0.05, Seed: 9}, []bool{false, false, false, false}},
		// One round of 1,800 samples, 112 or 113 per stream: each stream
		// runs a 64-lane pass, then one of 48 or 49 lanes, over 2,599
		// targets on both components (41 batches against 32 passes).
		{"source-shape-short-pass", comps, allNodes(comps)[1:], Options{Epsilon: 0.02, Delta: 0.05, Seed: 9, MaxSamples: 1800}, []bool{false}},
		// The same targets at a tighter eps: rounds of 734 samples make 16
		// source passes, but the third round's 1,468 need 32, so it flips
		// to 19 target passes.
		{"flip-to-targets", big, allNodes(big), Options{Epsilon: 0.025, Delta: 0.4, Seed: 9}, []bool{false, false, true}},
		// 100 targets (two batches, so Workers fans them out): a first
		// round of 461 samples that does not stop, then a capped last
		// round of one sample, one source pass against two.
		{"flip-to-sources", ba, everyNth(ba, 4), Options{Epsilon: 0.05, Delta: 0.1, Seed: 9, MaxSamples: 462}, []bool{true, false}},
		// MaxSamples cuts the first round to 20,000 samples on 400 nodes:
		// one target pass takes every stream's draws, each source drawn
		// about 50 times.
		{"straddle", ba, []graph.Node{0, 3, 17, 99, 120, 399}, Options{Epsilon: 0.005, Delta: 0.05, Seed: 9, MaxSamples: 20_000}, []bool{true}},
		// Every node of the cycle and of big is a target: 29 batches keep the
		// source shape, and a third of the lanes root on the cycle.
		{"source-shape-deep-16", cycle, allNodes(cycle), Options{Epsilon: 0.2, Delta: 0.05, Seed: 9}, []bool{false, false, false}},
		// Every 8th node of the path and its far end: 1,251 targets, 20
		// batches against 16 passes of 16 lanes in one capped round, with
		// targets settled up to 9,999 levels deep.
		{"source-shape-deep-32", path, append(everyNth(path, 8), 9_999), Options{Epsilon: 0.05, Delta: 0.05, Seed: 9, MaxSamples: 256}, []bool{false}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			want, err := estimateLegacy(context.Background(), tc.g, tc.a, tc.opt)
			if err != nil {
				t.Fatal(err)
			}
			if tc.shapes != nil {
				if got := roundShapes(len(want.Nodes), tc.opt, want.Rounds); !slices.Equal(got, tc.shapes) {
					t.Fatalf("round shapes %v, want %v", got, tc.shapes)
				}
			}
			eng := NewEngine(tc.g)
			for _, shape := range []struct {
				name string
				pick func([]int64, int) bool
			}{
				{"chosen", targetShape},
				{"source", func([]int64, int) bool { return false }},
				{"target", func([]int64, int) bool { return true }},
			} {
				roundShape = shape.pick
				for _, workers := range []int{1, 2, 8} {
					opt := tc.opt
					opt.Workers = workers
					got, err := eng.Estimate(context.Background(), tc.a, opt)
					if err != nil {
						t.Fatal(err)
					}
					if got.Samples != want.Samples || got.Rounds != want.Rounds || got.StoppedEarly != want.StoppedEarly {
						t.Fatalf("%s shape, workers=%d: samples/rounds/early %d/%d/%v != %d/%d/%v", shape.name, workers,
							got.Samples, got.Rounds, got.StoppedEarly, want.Samples, want.Rounds, want.StoppedEarly)
					}
					if len(got.Nodes) != len(want.Nodes) {
						t.Fatalf("%s shape, workers=%d: %d nodes != %d", shape.name, workers, len(got.Nodes), len(want.Nodes))
					}
					for i := range want.Closeness {
						if got.Nodes[i] != want.Nodes[i] || got.Closeness[i] != want.Closeness[i] {
							t.Fatalf("%s shape, workers=%d: target %d: (%d, %v) != (%d, %v)", shape.name, workers, i,
								got.Nodes[i], got.Closeness[i], want.Nodes[i], want.Closeness[i])
						}
					}
				}
			}
			roundShape = targetShape
		})
	}
}

// roundShapes replays EstimateInto's round schedule for k targets and
// reports, per round, whether targetShape picks the target shape.
func roundShapes(k int, opt Options, rounds int) []bool {
	opt.setDefaults()
	n0, nmax := budget(opt.Epsilon, opt.Delta, k, opt.MaxSamples)
	var shapes []bool
	for drawn, target := int64(0), n0; len(shapes) < rounds; drawn, target = target, min(target*2, nmax) {
		shapes = append(shapes, targetShape(sched.Split(target-drawn, sched.VirtualWorkers, nil), k))
	}
	return shapes
}

// disjointUnion returns the graphs side by side, the nodes of gs[i]
// shifted past those of gs[:i], with no edge between them.
func disjointUnion(gs ...*graph.Graph) *graph.Graph {
	var edges []graph.Edge
	n := 0
	for _, g := range gs {
		for _, e := range g.Edges() {
			edges = append(edges, graph.Edge{U: e.U + graph.Node(n), V: e.V + graph.Node(n)})
		}
		n += g.NumNodes()
	}
	return graph.FromEdges(n, edges)
}

func allNodes(g *graph.Graph) []graph.Node {
	return everyNth(g, 1)
}

func everyNth(g *graph.Graph, step int) []graph.Node {
	var a []graph.Node
	for v := 0; v < g.NumNodes(); v += step {
		a = append(a, graph.Node(v))
	}
	return a
}

// TestEnginePoolReuse: pooled workspaces must not leak state across calls —
// repeat calls, interleaved different-target calls, and reuse of one Result
// all reproduce the first answer bit for bit.
func TestEnginePoolReuse(t *testing.T) {
	g := graph.BarabasiAlbert(300, 3, 8)
	eng := NewEngine(g)
	a := []graph.Node{1, 5, 42, 250}
	opt := Options{Epsilon: 0.05, Delta: 0.05, Seed: 4, Workers: 2}

	var ref, res Result
	if err := eng.EstimateInto(context.Background(), a, opt, &ref); err != nil {
		t.Fatal(err)
	}
	// Different target set, different seed: pollutes the pooled streams.
	if err := eng.EstimateInto(context.Background(), []graph.Node{0, 7, 9}, Options{Epsilon: 0.1, Delta: 0.1, Seed: 99}, &res); err != nil {
		t.Fatal(err)
	}
	for call := 0; call < 2; call++ {
		if err := eng.EstimateInto(context.Background(), a, opt, &res); err != nil {
			t.Fatal(err)
		}
		if res.Samples != ref.Samples || res.Rounds != ref.Rounds {
			t.Fatalf("call %d: samples/rounds drifted", call)
		}
		for i := range ref.Closeness {
			if res.Closeness[i] != ref.Closeness[i] {
				t.Fatalf("call %d: Closeness[%d] = %v, want %v", call, i, res.Closeness[i], ref.Closeness[i])
			}
		}
	}
}

// TestEngineFaultedCallDoesNotPoisonPool: a call killed by an injected
// mid-traversal fault returns a typed error and leaves the engine's pooled
// workspaces clean — the next call reproduces a fresh engine's bits. In
// the source shape the fault lands after a pass's first levels have added
// to the accumulators, on a graph with two components, so sums left
// dirty would add losses at targets the next call never reaches.
func TestEngineFaultedCallDoesNotPoisonPool(t *testing.T) {
	defer faultinject.Reset()
	ba := graph.BarabasiAlbert(300, 3, 8)
	comps := disjointUnion(graph.BarabasiAlbert(800, 3, 8), graph.BarabasiAlbert(500, 3, 9))
	for _, tc := range []struct {
		name  string
		g     *graph.Graph
		a     []graph.Node
		opt   Options
		fault faultinject.Fault
	}{
		{"target-shape", ba, []graph.Node{1, 5, 42, 250}, Options{Epsilon: 0.05, Delta: 0.05, Seed: 4, Workers: 2}, faultinject.Fault{Times: 1}},
		// One worker and a seeded gate, so the fault lands at the same
		// level every run: past a pass's first level, where sums left
		// dirty change the next call's bits.
		{"source-shape", comps, allNodes(comps), Options{Epsilon: 0.2, Delta: 0.05, Seed: 4, Workers: 1}, faultinject.Fault{Times: 1, Prob: 0.2, Seed: 2}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			defer faultinject.Reset()
			eng := NewEngine(tc.g)
			boom := errors.New("boom")
			fault := tc.fault
			fault.Err = boom
			faultinject.Enable()
			faultinject.Set("msbfs.run", fault)
			// Another seed, so the checked call's passes root elsewhere and
			// the faulted pass's sums differ from the checked call's.
			faulted := tc.opt
			faulted.Seed++
			if _, err := eng.Estimate(context.Background(), tc.a, faulted); !errors.Is(err, boom) {
				t.Fatalf("faulted call: err = %v, want injected fault", err)
			}
			faultinject.Reset()

			got, err := eng.Estimate(context.Background(), tc.a, tc.opt)
			if err != nil {
				t.Fatal(err)
			}
			want, err := NewEngine(tc.g).Estimate(context.Background(), tc.a, tc.opt)
			if err != nil {
				t.Fatal(err)
			}
			if got.Samples != want.Samples {
				t.Fatalf("samples %d != %d after faulted call", got.Samples, want.Samples)
			}
			for i := range want.Closeness {
				if got.Closeness[i] != want.Closeness[i] {
					t.Fatalf("Closeness[%d] = %v, want %v: pool poisoned by faulted call", i, got.Closeness[i], want.Closeness[i])
				}
			}
		})
	}
}

// TestEngineCancellation: a canceled context yields *params.CanceledError —
// immediately when pre-canceled, and promptly mid-run in either round
// shape, where the in-pass stop polls bound time-to-cancel below one
// MS-BFS pass (the msbfs package proves the sub-pass bound; here the full
// estimator path is exercised). The cancel fires once the first BFS level
// has run, and a delay armed on every level makes one pass last far longer
// than that wait, so the cancel always lands inside a pass. Each case
// forces its shape: the rule takes the target shape for 3 targets, but
// also for all 10,000 nodes once a round draws ~92k samples (157 target
// passes against 1,440 source passes).
func TestEngineCancellation(t *testing.T) {
	defer faultinject.Reset()
	g := graph.RoadNetwork(100, 100, 0, 3)
	eng := NewEngine(g)
	// Tight epsilon + huge cap: the first round draws ~92k samples.
	opt := Options{Epsilon: 0.005, Delta: 0.01, Seed: 2, Workers: 2, MaxSamples: 1 << 40}
	for _, tc := range []struct {
		name    string
		a       []graph.Node
		targets bool
	}{
		{"target-shape", []graph.Node{0, 500, 9000}, true},
		{"source-shape", allNodes(g), false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			roundShape = func([]int64, int) bool { return tc.targets }
			defer func() { roundShape = targetShape }()

			ctx, cancel := context.WithCancel(context.Background())
			cancel()
			var ce *params.CanceledError
			if _, err := eng.Estimate(ctx, tc.a, opt); !errors.As(err, &ce) {
				t.Fatalf("pre-canceled: err = %v, want *params.CanceledError", err)
			}

			faultinject.Enable()
			faultinject.Set("msbfs.run", faultinject.Fault{Delay: time.Millisecond})
			defer faultinject.Reset()
			ctx, cancel = context.WithCancel(context.Background())
			defer cancel()
			go func() {
				for faultinject.Hits("msbfs.run") == 0 && ctx.Err() == nil {
					time.Sleep(100 * time.Microsecond)
				}
				cancel()
			}()
			start := time.Now()
			_, err := eng.Estimate(ctx, tc.a, opt)
			elapsed := time.Since(start)
			if !errors.As(err, &ce) {
				t.Fatalf("mid-run: err = %v, want *params.CanceledError", err)
			}
			if faultinject.Hits("msbfs.run") == 0 {
				t.Fatal("mid-run: no MS-BFS level ran before the cancel")
			}
			// Generous bound: a 10k-node road pass is ~hundreds of microseconds per
			// poll stride; seconds would mean the cancel never cut into a pass.
			if elapsed > 5*time.Second {
				t.Fatalf("cancel took %v", elapsed)
			}
		})
	}
}
