// Package query defines the unified query model shared by the public
// library API (the root saphyra package), the estimation engines, and the
// serving layer (internal/serve): one Query type spanning the measure axis
// (betweenness, k-path, closeness) and the algorithm axis (SaPHyRa, ABRA,
// KADABRA), one canonicalization, one cache-key digest, and one Ranker that
// dispatches any query to the right engine under a context.Context.
//
// Equal keys guarantee bitwise-equal results (the engines' determinism
// contract, DESIGN.md section 3), so Key is the one sound cache key for any
// layer. DESIGN.md section 9 documents the model.
package query

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math"

	"saphyra/internal/graph"
	"saphyra/internal/params"
)

// Measure selects the centrality being estimated — the paper's sample-space
// axis: each measure defines its own sample space and hypothesis class.
type Measure int

// Available measures. Betweenness is the paper's headline instantiation
// (SaPHyRa_bc); KPath and Closeness are the companion estimators.
const (
	Betweenness Measure = iota
	KPath
	Closeness
)

// String returns the measure name.
func (m Measure) String() string {
	switch m {
	case Betweenness:
		return "betweenness"
	case KPath:
		return "kpath"
	case Closeness:
		return "closeness"
	}
	return fmt.Sprintf("Measure(%d)", int(m))
}

// Algorithm selects the estimation algorithm — the paper's comparison axis.
// The baselines exist only for betweenness (they estimate the whole network
// regardless of the target subset); k-path and closeness always run their
// SaPHyRa-framework estimators.
type Algorithm int

// Available algorithms.
const (
	AlgSaPHyRa Algorithm = iota
	AlgABRA
	AlgKADABRA
)

// String returns the algorithm name.
func (a Algorithm) String() string {
	switch a {
	case AlgSaPHyRa:
		return "SaPHyRa"
	case AlgABRA:
		return "ABRA"
	case AlgKADABRA:
		return "KADABRA"
	}
	return fmt.Sprintf("Algorithm(%d)", int(a))
}

// Query is one ranking request: which measure to estimate, with which
// algorithm, for which targets, under which (eps, delta, seed) sampling
// contract. The zero value of every parameter field means "the documented
// default" (eps 0.05, delta 0.01, K 3, algorithm SaPHyRa); an empty target
// set means "rank the whole network".
type Query struct {
	// Measure is the centrality axis; Algorithm the estimator axis. Only
	// Betweenness admits the ABRA/KADABRA baselines.
	Measure   Measure
	Algorithm Algorithm

	// Targets is the node set to rank (dense ids). Empty means every node
	// of the graph — the full-network / top-k-warmup shape.
	Targets []graph.Node

	// K is the k-path walk length (edges). Only meaningful for Measure
	// KPath; canonicalization zeroes it for every other measure so it can
	// never split their cache keys. Zero means the default 3.
	K int

	// Epsilon is the additive error guarantee, Delta the failure
	// probability. Zero means 0.05 / 0.01.
	Epsilon float64
	Delta   float64

	// Seed fixes the sampler streams: fixed seed => bitwise-identical
	// output at any worker count.
	Seed int64

	// Workers bounds the physical goroutines; it affects latency only,
	// never a single result bit (DESIGN.md section 3), and is therefore
	// cleared by Canonical and excluded from Key. <= 0 means GOMAXPROCS.
	Workers int
}

// Canonical returns the query with every default resolved and every
// result-irrelevant field cleared: Epsilon/Delta zero become 0.05/0.01,
// Workers is zeroed, K becomes 3 for KPath and 0 for every other measure,
// and Targets is replaced by its sorted, de-duplicated form (exactly the
// normalization every engine applies). Two queries with equal canonical
// forms produce bitwise-identical results on the same graph or view — the
// soundness precondition of keying a cache by Key.
//
// An already-dedup-sorted target slice is kept as-is (no copy), so the
// repeated canonicalizations of one request — build, Validate, Key, Rank —
// pay one O(t) scan each instead of a sort+copy. Targets are treated as
// immutable from the first Canonical on.
func (q Query) Canonical() Query {
	if q.Epsilon == 0 {
		q.Epsilon = 0.05
	}
	if q.Delta == 0 {
		q.Delta = 0.01
	}
	q.Workers = 0
	if q.Measure == KPath {
		if q.K == 0 {
			q.K = 3
		}
	} else {
		q.K = 0
	}
	switch {
	case len(q.Targets) == 0:
		q.Targets = nil
	case !graph.IsDedupSorted(q.Targets):
		q.Targets = graph.DedupSorted(q.Targets)
	}
	return q
}

// TargetSetHash returns a stable 256-bit digest of the canonicalized target
// set: the nodes are de-duplicated and sorted, then hashed as little-endian
// 32-bit values. The digest is a pure function of the set — independent of
// input order, duplicates, machine, and process.
//
// It identifies the *target set* only: it does not cover the measure, the
// algorithm, eps/delta/seed, or the k-path K. Persistent caches must key by
// Query.Key, which subsumes this hash.
func TargetSetHash(targets []graph.Node) [sha256.Size]byte {
	nodes := targets
	if !graph.IsDedupSorted(nodes) {
		nodes = graph.DedupSorted(targets)
	}
	buf := make([]byte, 4*len(nodes))
	for i, v := range nodes {
		binary.LittleEndian.PutUint32(buf[4*i:], uint32(v))
	}
	return sha256.Sum256(buf)
}

// keyMagic versions the Key layout: any change to the digested byte layout
// must bump it, or persistent caches would silently mix incompatible keys.
const keyMagic = "saphyra.Query/v2"

// engineEpoch versions the estimators' bits: any commit that changes any
// estimate's bits bumps engineEpoch, so binaries with different engines
// never share a key (a mixed fleet's peer fill or stale rung would
// otherwise serve the other engine's bits under an equal key).
const engineEpoch uint32 = 6

// Key returns a stable 256-bit digest identifying the query up to bitwise
// result equality: two queries with equal keys are guaranteed bitwise-equal
// results on the same graph or view bytes (a serving layer additionally
// tags the view generation; see internal/serve). It covers every
// result-relevant field, including the k-path walk length K, and the
// engine epoch: any commit that changes any estimate's bits bumps
// engineEpoch, which changes every key.
//
// The digest is sha256 over the canonical form, little-endian:
//
//	"saphyra.Query/v2" | engineEpoch uint32 | measure byte | algorithm byte |
//	K uint32 | Epsilon bits uint64 | Delta bits uint64 | Seed uint64 |
//	allNodes byte | TargetSetHash [32] | target count uint32
//
// where allNodes is 1 (and the hash/count are those of the empty set) for a
// whole-network query. The layout is pinned by a golden test; treat it as a
// persistent-format contract.
func (q Query) Key() [sha256.Size]byte {
	c := q.Canonical()
	var buf [len(keyMagic) + 4 + 2 + 4 + 8 + 8 + 8 + 1 + sha256.Size + 4]byte
	b := buf[:0]
	b = append(b, keyMagic...)
	b = binary.LittleEndian.AppendUint32(b, engineEpoch)
	b = append(b, byte(c.Measure), byte(c.Algorithm))
	b = binary.LittleEndian.AppendUint32(b, uint32(c.K))
	b = binary.LittleEndian.AppendUint64(b, math.Float64bits(c.Epsilon))
	b = binary.LittleEndian.AppendUint64(b, math.Float64bits(c.Delta))
	b = binary.LittleEndian.AppendUint64(b, uint64(c.Seed))
	if len(c.Targets) == 0 {
		b = append(b, 1)
	} else {
		b = append(b, 0)
	}
	h := TargetSetHash(c.Targets)
	b = append(b, h[:]...)
	b = binary.LittleEndian.AppendUint32(b, uint32(len(c.Targets)))
	return sha256.Sum256(b)
}

// Validate checks the query against a graph of numNodes nodes, returning a
// typed *params.Error (the 400-classifiable kind) on the first violation.
// It validates the canonical form, so zero-valued fields never fail. An
// empty target set is valid — it means the whole network.
func (q Query) Validate(numNodes int) error {
	return q.Canonical().validateCanonical(numNodes)
}

// validateCanonical is Validate on an already-canonical query — the form
// Rank uses so one request canonicalizes once, not once per check.
func (c Query) validateCanonical(numNodes int) error {
	switch c.Measure {
	case Betweenness:
		switch c.Algorithm {
		case AlgSaPHyRa, AlgABRA, AlgKADABRA:
		default:
			return params.Errorf("algorithm", "unknown algorithm %v", c.Algorithm)
		}
	case KPath, Closeness:
		if c.Algorithm != AlgSaPHyRa {
			return params.Errorf("algorithm", "%v supports only the SaPHyRa estimator, not %v", c.Measure, c.Algorithm)
		}
	default:
		return params.Errorf("measure", "unknown measure %v", c.Measure)
	}
	if err := params.CheckEpsDelta(c.Epsilon, c.Delta); err != nil {
		return err
	}
	if c.Measure == KPath {
		if err := params.CheckK(c.K); err != nil {
			return err
		}
	}
	if len(c.Targets) > 0 {
		if err := params.CheckTargets(c.Targets, numNodes); err != nil {
			return err
		}
	}
	return nil
}
