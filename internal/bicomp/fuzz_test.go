package bicomp

import (
	"bytes"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
	"unsafe"

	"saphyra/internal/graph"
)

// fuzzSeedGraphs are the small views FuzzDecodeView starts from: a path, a
// tree (nearly every node a cutpoint), a Barabási–Albert graph (one big
// block) and a graph of two components plus an isolated node.
func fuzzSeedGraphs() []*graph.Graph {
	return []*graph.Graph{
		graph.Path(5),
		graph.RandomTree(12, 3),
		graph.BarabasiAlbert(16, 2, 5),
		graph.FromEdges(9, []graph.Edge{{U: 0, V: 1}, {U: 1, V: 2}, {U: 2, V: 0}, {U: 2, V: 3}, {U: 5, V: 6}, {U: 6, V: 7}}),
	}
}

// fuzzSeedImage is the file image of g's view, with an id section when
// withIDs is set.
func fuzzSeedImage(tb testing.TB, g *graph.Graph, withIDs bool) []byte {
	tb.Helper()
	v := NewBlockCSR(g)
	var ids []int64
	if withIDs {
		ids = make([]int64, g.NumNodes())
		for i := range ids {
			ids[i] = int64(7*i + 2)
		}
	}
	var buf bytes.Buffer
	if _, err := v.writeTo(&buf, ids); err != nil {
		tb.Fatal(err)
	}
	return buf.Bytes()
}

// resealedCopy copies in into an 8-byte-aligned buffer, as a mapping is,
// and reseals the checksum trailer when there is room for a header.
func resealedCopy(in []byte) []byte {
	if len(in) == 0 {
		return nil
	}
	backing := make([]uint64, (len(in)+7)/8)
	data := unsafe.Slice((*byte)(unsafe.Pointer(&backing[0])), len(in))
	copy(data, in)
	if len(data) >= headerSize {
		reseal(data)
	}
	return data
}

// FuzzDecodeView feeds decodeView arbitrary bytes. The harness copies each
// input into an 8-byte-aligned buffer, as a mapping is, and reseals the
// checksum trailer, so a mutation gets past the checksum to the structural
// checks behind it. decodeView must never panic. A view it accepts must be
// safe to walk the way the estimators do: every node's runs sliced out of
// Nbr, its block list and out-reach terms read, every block's members and
// their r values read. Each block member must also find its run, the
// transpose of the node-major membership. Every edge is followed as the
// exact phase's runChunk follows it: its graph and grouped neighbours index
// an n-sized slice, its NbrRun reads RunStart and RunDegSum, and the Nbr
// range from Mate+1 to the end of that run is read.
//
// Run it with: go test -run '^$' -fuzz '^FuzzDecodeView$' -fuzztime 20s ./internal/bicomp/
func FuzzDecodeView(f *testing.F) {
	for _, g := range fuzzSeedGraphs() {
		f.Add(fuzzSeedImage(f, g, false))
		f.Add(fuzzSeedImage(f, g, true))
	}
	f.Fuzz(func(t *testing.T, in []byte) {
		v, _, err := decodeView(resealedCopy(in))
		if err != nil {
			return
		}
		d, o := v.D, v.O
		// perNode is n-sized, like the engines' per-node scratch.
		perNode := make([]int32, v.G.NumNodes())
		_, adj := v.G.CSR()
		for _, w := range adj {
			perNode[w]++
		}
		for i, w := range v.Nbr {
			perNode[w]++
			jr := v.NbrRun[i]
			_ = v.RunDegSum[jr]
			for k := v.Mate[i] + 1; k < v.RunStart[jr+1]; k++ {
				_ = v.Nbr[k]
			}
		}
		for u := graph.Node(0); int(u) < v.G.NumNodes(); u++ {
			lo, hi := v.Runs(u)
			for j := lo; j < hi; j++ {
				elo, ehi := v.RunEdges(j)
				_ = v.Nbr[elo:ehi]
				if r := o.Of(v.RunBlock[j], u); r != int64(v.RunR[j]) {
					t.Fatalf("node %d run %d: Of = %d, RunR = %d", u, j, r, v.RunR[j])
				}
			}
			_ = d.NodeBlocks(u)
			_ = d.IsCut(u)
			_ = o.BCA(u)
		}
		for b := int32(0); int(b) < d.NumBlocks; b++ {
			rs := o.BlockR(b)
			for k, x := range d.Block(b) {
				if v.FindRun(x, b) < 0 {
					t.Fatalf("block %d member %d has no run of the block", b, x)
				}
				if r := o.Of(b, x); r != int64(rs[k]) {
					t.Fatalf("block %d member %d: Of = %d, block-major r = %d", b, x, r, rs[k])
				}
			}
		}
	})
}

// TestFuzzCorpusNamesItsCheck: each mutant in FuzzDecodeView's checked-in
// corpus is refused by the check its file name gives, and the accepted-*
// inputs are accepted, so a reordered or dropped check shows here rather
// than as a silently weaker corpus.
func TestFuzzCorpusNamesItsCheck(t *testing.T) {
	want := map[string]string{
		"adj-range":              "graph edge 0 targets node",
		"claim9":                 "Claim 9",
		"comp-label-range":       "component label",
		"comp-recount":           "recounts",
		"decomp-prelude":         "implausible decomposition",
		"empty-block":            "no members",
		"file-size":              "truncated or corrupt",
		"graph-offsets-end":      "offsets end",
		"graph-offsets-monotone": "offsets not monotone",
		"graph-offsets-zero":     "offsets[0]",
		"mate-range":             "Mate",
		"nbr-range":              "grouped edge 0 targets node",
		"nbrrun-range":           "NbrRun",
		"rnbr":                   "RNbr",
		"run-ascending":          "not strictly ascending",
		"run-block-range":        "run block id",
		"run-cover":              "runs cover",
		"run-index-monotone":     "run index not monotone",
		"run-index-span":         "run index does not span",
		"run-r":                  "want >= 1",
		"run-tiling":             "not a nonempty run",
	}
	files, err := filepath.Glob("testdata/fuzz/FuzzDecodeView/*")
	if err != nil || len(files) != len(want)+3 {
		t.Fatalf("%d corpus files (%v), want %d mutants and 3 accepted inputs", len(files), err, len(want))
	}
	for _, path := range files {
		name := filepath.Base(path)
		raw, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		header, lit, _ := strings.Cut(strings.TrimSpace(string(raw)), "\n")
		s, err := strconv.Unquote(strings.TrimSuffix(strings.TrimPrefix(lit, "[]byte("), ")"))
		if header != "go test fuzz v1" || err != nil {
			t.Fatalf("%s: not a []byte corpus entry (%v)", name, err)
		}
		_, _, err = decodeView(resealedCopy([]byte(s)))
		sub, isMutant := want[name]
		switch {
		case !isMutant && !strings.HasPrefix(name, "accepted-"):
			t.Errorf("%s: unknown corpus entry", name)
		case !isMutant && err != nil:
			t.Errorf("%s: refused: %v", name, err)
		case isMutant && (err == nil || !strings.Contains(err.Error(), sub)):
			t.Errorf("%s: error %v, want one mentioning %q", name, err, sub)
		}
	}
}
