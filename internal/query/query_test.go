package query

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"math"
	"testing"

	"saphyra/internal/graph"
	"saphyra/internal/params"
)

// TestQueryKeyDistinguishesK: kpath queries differing only in K must get
// different keys, and K=0 must share the key of its documented default 3.
func TestQueryKeyDistinguishesK(t *testing.T) {
	targets := []graph.Node{1, 5, 9}
	k3 := Query{Measure: KPath, Targets: targets, K: 3, Seed: 1}
	k4 := Query{Measure: KPath, Targets: targets, K: 4, Seed: 1}
	if k3.Key() == k4.Key() {
		t.Fatal("kpath queries differing only in K share a key")
	}
	kDefault := Query{Measure: KPath, Targets: targets, Seed: 1}
	if kDefault.Key() != k3.Key() {
		t.Fatal("K=0 must canonicalize to the default 3 and share its key")
	}
	// K never splits keys of measures that ignore it.
	bc0 := Query{Measure: Betweenness, Targets: targets, Seed: 1}
	bc9 := Query{Measure: Betweenness, Targets: targets, K: 9, Seed: 1}
	if bc0.Key() != bc9.Key() {
		t.Fatal("K leaked into a betweenness key")
	}
}

// TestQueryKeyCanonicalInvariance: result-irrelevant differences (worker
// count, target order, duplicates, explicit defaults) never change the key;
// result-relevant ones always do.
func TestQueryKeyCanonicalInvariance(t *testing.T) {
	base := Query{Measure: Betweenness, Targets: []graph.Node{5, 1, 9}, Epsilon: 0.05, Delta: 0.01, Seed: 3}
	same := []Query{
		{Measure: Betweenness, Targets: []graph.Node{9, 5, 1, 5, 1}, Epsilon: 0.05, Delta: 0.01, Seed: 3},
		{Measure: Betweenness, Targets: []graph.Node{5, 1, 9}, Epsilon: 0.05, Delta: 0.01, Seed: 3, Workers: 64},
		{Measure: Betweenness, Targets: []graph.Node{5, 1, 9}, Seed: 3}, // zero eps/delta = defaults
	}
	for i, q := range same {
		if q.Key() != base.Key() {
			t.Errorf("variant %d changed the key despite equal canonical form", i)
		}
	}
	different := []Query{
		{Measure: Closeness, Targets: []graph.Node{5, 1, 9}, Epsilon: 0.05, Delta: 0.01, Seed: 3},
		{Measure: Betweenness, Algorithm: AlgKADABRA, Targets: []graph.Node{5, 1, 9}, Epsilon: 0.05, Delta: 0.01, Seed: 3},
		{Measure: Betweenness, Targets: []graph.Node{5, 1, 8}, Epsilon: 0.05, Delta: 0.01, Seed: 3},
		{Measure: Betweenness, Targets: []graph.Node{5, 1, 9}, Epsilon: 0.1, Delta: 0.01, Seed: 3},
		{Measure: Betweenness, Targets: []graph.Node{5, 1, 9}, Epsilon: 0.05, Delta: 0.01, Seed: 4},
		{Measure: Betweenness, Epsilon: 0.05, Delta: 0.01, Seed: 3}, // whole network != explicit set
	}
	for i, q := range different {
		if q.Key() == base.Key() {
			t.Errorf("variant %d shares the key despite a result-relevant difference", i)
		}
	}
}

// TestQueryKeyGolden pins the digest layout itself: the key is a
// persistent-format contract (cross-process caches), so an accidental
// layout change must fail loudly, not shift every cache silently.
func TestQueryKeyGolden(t *testing.T) {
	q := Query{Measure: Betweenness, Targets: []graph.Node{0, 1, 2}, Seed: 1}
	k := q.Key()
	const want = "ef6898b1c936dfa6"
	if got := hex.EncodeToString(k[:8]); got != want {
		t.Fatalf("Query.Key layout changed: prefix %s, pinned %s — bump keyMagic (layout) or engineEpoch (bits) if intentional", got, want)
	}
}

// TestQueryKeyLayout pins, byte for byte, that Key is the sha256 of the
// documented layout over the canonical form: defaults resolved, Workers
// dropped, targets dedup-sorted and digested by TargetSetHash.
func TestQueryKeyLayout(t *testing.T) {
	q := Query{
		Measure: Betweenness, Algorithm: AlgKADABRA, Targets: []graph.Node{9, 1, 5, 1},
		Epsilon: 0.1, Delta: 0.02, Seed: 9, Workers: 7,
	}
	h := TargetSetHash([]graph.Node{1, 5, 9})
	var b []byte
	b = append(b, "saphyra.Query/v2"...)
	b = binary.LittleEndian.AppendUint32(b, 6) // engine epoch
	b = append(b, 0, 2)                        // Betweenness, AlgKADABRA
	b = binary.LittleEndian.AppendUint32(b, 0) // K: zeroed outside KPath
	b = binary.LittleEndian.AppendUint64(b, math.Float64bits(0.1))
	b = binary.LittleEndian.AppendUint64(b, math.Float64bits(0.02))
	b = binary.LittleEndian.AppendUint64(b, 9)
	b = append(b, 0) // explicit target set
	b = append(b, h[:]...)
	b = binary.LittleEndian.AppendUint32(b, 3) // canonical target count
	if q.Key() != sha256.Sum256(b) {
		t.Fatal("Query.Key diverged from the documented layout")
	}
}

// TestTargetSetHash: order- and duplicate-insensitive, set-sensitive.
func TestTargetSetHash(t *testing.T) {
	a := TargetSetHash([]graph.Node{5, 1, 9})
	if b := TargetSetHash([]graph.Node{9, 5, 1, 5, 1}); b != a {
		t.Fatal("hash depends on order or duplicates")
	}
	if c := TargetSetHash([]graph.Node{5, 1, 8}); c == a {
		t.Fatal("different sets collide")
	}
	if d := TargetSetHash(nil); d == a {
		t.Fatal("empty set collides")
	}
	// Stability across processes: pin one digest so accidental
	// canonicalization changes are caught (the serving cache key depends
	// on this being a pure function of the set).
	h := TargetSetHash([]graph.Node{0, 1, 2})
	const want = "ad5dc1478de06a4c"
	if got := hex.EncodeToString(h[:8]); got != want {
		t.Fatalf("TargetSetHash({0,1,2}) prefix = %s, want %s", got, want)
	}
}

// TestQueryCanonical: defaults resolve, Workers is stripped, K is zeroed
// outside KPath, targets dedup-sort.
func TestQueryCanonical(t *testing.T) {
	c := Query{}.Canonical()
	if c.Epsilon != 0.05 || c.Delta != 0.01 {
		t.Fatalf("zero query canonicalized to eps=%g delta=%g", c.Epsilon, c.Delta)
	}
	c = Query{Measure: Betweenness, K: 7, Workers: 9, Targets: []graph.Node{3, 1, 3}}.Canonical()
	if c.K != 0 || c.Workers != 0 {
		t.Fatalf("canonical left K=%d workers=%d", c.K, c.Workers)
	}
	if len(c.Targets) != 2 || c.Targets[0] != 1 || c.Targets[1] != 3 {
		t.Fatalf("targets not dedup-sorted: %v", c.Targets)
	}
	if k := (Query{Measure: KPath}).Canonical().K; k != 3 {
		t.Fatalf("kpath K default = %d, want 3", k)
	}
}

// TestQueryValidate: the measure/algorithm matrix and the params bounds
// surface as typed 400-classifiable errors.
func TestQueryValidate(t *testing.T) {
	const n = 10
	ok := []Query{
		{Measure: Betweenness, Targets: []graph.Node{1}},
		{Measure: Betweenness, Algorithm: AlgABRA, Targets: []graph.Node{1}},
		{Measure: Betweenness, Algorithm: AlgKADABRA},
		{Measure: KPath, Targets: []graph.Node{0, 9}},
		{Measure: Closeness},
	}
	for i, q := range ok {
		if err := q.Validate(n); err != nil {
			t.Errorf("valid query %d rejected: %v", i, err)
		}
	}
	bad := []Query{
		{Measure: Measure(42), Targets: []graph.Node{1}},
		{Measure: KPath, Algorithm: AlgABRA, Targets: []graph.Node{1}},
		{Measure: Closeness, Algorithm: AlgKADABRA, Targets: []graph.Node{1}},
		{Measure: Betweenness, Algorithm: Algorithm(9), Targets: []graph.Node{1}},
		{Measure: Betweenness, Epsilon: 1.5, Targets: []graph.Node{1}},
		{Measure: Betweenness, Delta: -1, Targets: []graph.Node{1}},
		{Measure: KPath, K: -2, Targets: []graph.Node{1}},
		{Measure: KPath, K: 3 + 1<<32, Targets: []graph.Node{1}}, // would share K=3's key
		{Measure: Betweenness, Targets: []graph.Node{99}},
	}
	for i, q := range bad {
		err := q.Validate(n)
		if err == nil {
			t.Errorf("invalid query %d accepted", i)
			continue
		}
		if !params.IsBadInput(err) {
			t.Errorf("invalid query %d: error %v is not a typed params error", i, err)
		}
	}
}

// TestRankerPreCanceledContext: a context that is already done returns a
// typed cancellation (never a result) for every measure — the cheapest
// checkpoint is before any work starts.
func TestRankerPreCanceledContext(t *testing.T) {
	g := graph.BarabasiAlbert(200, 3, 1)
	r := NewRanker(g)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, q := range []Query{
		{Measure: Betweenness, Targets: []graph.Node{1, 2, 3}},
		{Measure: Betweenness, Algorithm: AlgABRA, Targets: []graph.Node{1}},
		{Measure: Betweenness, Algorithm: AlgKADABRA, Targets: []graph.Node{1}},
		{Measure: KPath, Targets: []graph.Node{1, 2}},
		{Measure: Closeness, Targets: []graph.Node{1, 2}},
	} {
		res, err := r.Rank(ctx, q)
		if err == nil || res != nil {
			t.Fatalf("%v/%v: pre-canceled ctx returned res=%v err=%v", q.Measure, q.Algorithm, res, err)
		}
		if !params.IsCanceled(err) || !errors.Is(err, context.Canceled) {
			t.Fatalf("%v/%v: error %v is not a typed cancellation", q.Measure, q.Algorithm, err)
		}
	}
}

// TestRankerEmptyTargetsMeansWholeNetwork: an empty target set ranks every
// node.
func TestRankerEmptyTargetsMeansWholeNetwork(t *testing.T) {
	g := graph.BarabasiAlbert(60, 2, 2)
	r := NewRanker(g)
	res, err := r.Rank(context.Background(), Query{Measure: Closeness, Epsilon: 0.2, Delta: 0.1, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Nodes) != g.NumNodes() {
		t.Fatalf("whole-network query ranked %d of %d nodes", len(res.Nodes), g.NumNodes())
	}
}
