// The pin is scoped to amd64: Go never fuses x*y + z into an FMA there, but
// it may on arm64, ppc64le, s390x and riscv64, where the estimators' float
// arithmetic — and with it the hashed result bits — can legitimately round
// differently. Whether a mixed-architecture fleet can disagree is an open
// question (ROADMAP direction 1); until it is settled the pin speaks for
// amd64 only.

//go:build amd64

package query

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"hash"
	"math"
	"testing"

	"saphyra/internal/core"
	"saphyra/internal/datasets"
	"saphyra/internal/graph"
)

// epochPins maps each engineEpoch to the sha256 of the result bits of
// pinQuerySet. A change that moves any estimate's bits must bump
// engineEpoch and add the new epoch's digest here; a change that keeps the
// epoch must reproduce the pinned digest exactly.
var epochPins = map[uint32]string{
	2: "e73b48e843214d50cb9b2a251b00ba8cebf67eed5262fb910c27deec1c874e1b",
	3: "ac0bd5efd4d999a97647845b2a7993c5370b4998922af6e5c8e515e67f8af7d3",
	4: "46512f3b1d429903c609a6b12f2e8b62d5ddb0c8332ad6ad43fd22f39c66a410",
	5: "5c9ea9c998f8a54235ccbda802889dc9a43bb68d3422209e6682befff6da7d38",
	6: "6155c5068da9f83978bb095c529e2aa08afb50c4dc04549ba04b683b602cf213",
	7: "d43f7c450f25fdd354e203c2399bcb0c52bbd0cf83923e13597a7b0316aff78b",
	8: "420bd0ceeda6db93724395c9d2bc22181ba011023c46d2968533a7bcbbd4848b",
}

// TestEngineEpochPin holds engineEpoch to the bits it names: every measure,
// every betweenness algorithm and every VC bound, at one and three workers,
// on seeded small graphs including a road grid, plus a whole-network
// closeness query. Each query must also give the same bits at three
// workers as at one.
func TestEngineEpochPin(t *testing.T) {
	want, ok := epochPins[engineEpoch]
	if !ok {
		t.Fatalf("engineEpoch %d has no pinned digest", engineEpoch)
	}
	got := pinQuerySet(t)
	if got != want {
		t.Fatalf("engineEpoch %d: result digest %s, pinned %s — a change to the estimators' bits must bump engineEpoch and pin the new digest", engineEpoch, got, want)
	}
}

// pinGraph is one seeded input of the pin set and its target subset.
type pinGraph struct {
	name    string
	g       *graph.Graph
	targets []graph.Node
}

func pinGraphs() []pinGraph {
	social := datasets.Flickr.Build(0.1)
	road := graph.RoadNetwork(18, 18, 0.3, 5)
	ba := graph.BarabasiAlbert(500, 3, 11)
	return []pinGraph{
		{"flickr-sim-0.1", social, datasets.RandomSubsets(social.NumNodes(), 60, 1, 3)[0]},
		{"road-18x18", road, datasets.RandomSubsets(road.NumNodes(), 60, 1, 4)[0]},
		{"ba-500", ba, datasets.RandomSubsets(ba.NumNodes(), 60, 1, 5)[0]},
	}
}

// pinQuerySet runs the pinned query set and returns the hex sha256 of its
// result bits: for every query its label, result nodes, score bits and
// sample count, in a fixed order.
func pinQuerySet(t *testing.T) string {
	t.Helper()
	h := sha256.New()
	var sampled int
	for _, pg := range pinGraphs() {
		r := NewRanker(pg.g)
		queries := []Query{
			{Measure: Betweenness, Targets: pg.targets, Epsilon: 0.03, Delta: 0.05, Seed: 7},
			{Measure: Betweenness, Epsilon: 0.05, Delta: 0.05, Seed: 8},
			{Measure: Betweenness, Algorithm: AlgABRA, Targets: pg.targets, Epsilon: 0.05, Delta: 0.05, Seed: 9},
			{Measure: Betweenness, Algorithm: AlgKADABRA, Targets: pg.targets, Epsilon: 0.05, Delta: 0.05, Seed: 10},
			{Measure: KPath, Targets: pg.targets, K: 4, Epsilon: 0.05, Delta: 0.05, Seed: 11},
			{Measure: Closeness, Targets: pg.targets, Epsilon: 0.05, Delta: 0.05, Seed: 12},
			// At eps 0.02 the baselines' rounds are large enough to be
			// split across every sampler stream and run on several
			// goroutines.
			{Measure: Betweenness, Algorithm: AlgABRA, Targets: pg.targets, Epsilon: 0.02, Delta: 0.05, Seed: 14},
			{Measure: Betweenness, Algorithm: AlgKADABRA, Targets: pg.targets, Epsilon: 0.02, Delta: 0.05, Seed: 15},
		}
		for qi, q := range queries {
			var ref *Result
			for _, w := range []int{1, 3} {
				q.Workers = w
				res, err := r.Rank(context.Background(), q)
				if err != nil {
					t.Fatalf("%s query %d workers %d: %v", pg.name, qi, w, err)
				}
				if res.Samples > 0 {
					sampled++
				}
				if ref == nil {
					ref = res
				} else if !sameBits(res, ref) {
					t.Fatalf("%s query %d: workers %d and workers 1 give different bits", pg.name, qi, w)
				}
				pinWrite(h, fmt.Sprintf("%s/q%d/w%d", pg.name, qi, w), res.Nodes, res.Scores, res.Samples, 0)
			}
		}
		// The VC bounds also run on an l-hop ball, whose subset bound sits
		// below the full-network one, without adaptive stopping, so the
		// sample budget follows the bound.
		ball := datasets.LHopSubset(pg.g, pg.targets[0], 2)
		p := core.PreprocessBC(pg.g)
		for _, vb := range []core.VCBoundKind{core.VCSubset, core.VCBicomp, core.VCRiondato} {
			for ti, targets := range [][]graph.Node{pg.targets, ball} {
				for _, w := range []int{1, 3} {
					res, err := p.EstimateBC(context.Background(), targets, core.BCOptions{
						Epsilon: 0.03, Delta: 0.05, Seed: 13, Workers: w, VCBound: vb,
						DisableAdaptive: ti == 1,
					})
					if err != nil {
						t.Fatalf("%s VC bound %d set %d workers %d: %v", pg.name, vb, ti, w, err)
					}
					var samples int64
					var dim int
					if res.Est != nil {
						samples, dim = res.Est.Samples, res.Est.VCDim
					}
					if samples > 0 {
						sampled++
					}
					pinWrite(h, fmt.Sprintf("%s/vc%d/t%d/w%d", pg.name, vb, ti, w), res.Nodes, res.BC, samples, dim)
				}
			}
		}
	}
	// Whole-network closeness (k = n) on a graph large enough for the
	// source shape: 3,000 targets would take 47 target passes a round,
	// against 16 source passes in each of the first two rounds (600
	// samples) and 32 in the third (1,200), where the query stops. Every
	// 60-target query above takes the target shape throughout.
	whole := datasets.Flickr.Build(0.5)
	r := NewRanker(whole)
	var ref *Result
	for _, w := range []int{1, 3} {
		res, err := r.Rank(context.Background(), Query{Measure: Closeness, Epsilon: 0.05, Delta: 0.05, Seed: 16, Workers: w})
		if err != nil {
			t.Fatalf("whole-network closeness workers %d: %v", w, err)
		}
		if len(res.Nodes) != whole.NumNodes() || res.Samples == 0 {
			t.Fatalf("whole-network closeness ranked %d of %d nodes from %d samples", len(res.Nodes), whole.NumNodes(), res.Samples)
		}
		if ref == nil {
			ref = res
		} else if !sameBits(res, ref) {
			t.Fatalf("whole-network closeness: workers %d and workers 1 give different bits", w)
		}
		sampled++
		pinWrite(h, fmt.Sprintf("flickr-sim-0.5/closeness-all/w%d", w), res.Nodes, res.Scores, res.Samples, 0)
	}
	// A pin over queries that never reach the samplers would say nothing
	// about them.
	if sampled < 40 {
		t.Fatalf("only %d pinned queries drew samples", sampled)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// sameBits reports whether two results name the same nodes with the same
// score bits and sample count.
func sameBits(a, b *Result) bool {
	if a.Samples != b.Samples || len(a.Nodes) != len(b.Nodes) {
		return false
	}
	for i := range a.Nodes {
		if a.Nodes[i] != b.Nodes[i] || math.Float64bits(a.Scores[i]) != math.Float64bits(b.Scores[i]) {
			return false
		}
	}
	return true
}

func pinWrite(h hash.Hash, label string, nodes []graph.Node, scores []float64, samples int64, dim int) {
	var b []byte
	b = append(b, label...)
	b = binary.LittleEndian.AppendUint64(b, uint64(len(nodes)))
	for i, v := range nodes {
		b = binary.LittleEndian.AppendUint32(b, uint32(v))
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(scores[i]))
	}
	b = binary.LittleEndian.AppendUint64(b, uint64(samples))
	b = binary.LittleEndian.AppendUint64(b, uint64(dim))
	h.Write(b)
}
