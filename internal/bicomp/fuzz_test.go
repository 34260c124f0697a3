package bicomp

import (
	"bytes"
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
	d := Decompose(g)
	v := NewBlockCSR(d, NewOutReach(d))
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

// FuzzDecodeView feeds decodeView arbitrary bytes. The harness copies each
// input into an 8-byte-aligned buffer, as a mapping is, and reseals the
// checksum trailer, so a mutation gets past the checksum to the structural
// checks behind it. decodeView must never panic. A view it accepts must be
// safe to walk the way the estimators do: every node's runs sliced out of
// Nbr, its block list and out-reach terms read, every block's members and
// their r values read. Each block member must also find its run, the
// transpose of the node-major membership.
//
// Run it with: go test -run '^$' -fuzz '^FuzzDecodeView$' -fuzztime 20s ./internal/bicomp/
func FuzzDecodeView(f *testing.F) {
	for _, g := range fuzzSeedGraphs() {
		f.Add(fuzzSeedImage(f, g, false))
		f.Add(fuzzSeedImage(f, g, true))
	}
	f.Fuzz(func(t *testing.T, in []byte) {
		var data []byte
		if len(in) > 0 {
			backing := make([]uint64, (len(in)+7)/8)
			data = unsafe.Slice((*byte)(unsafe.Pointer(&backing[0])), len(in))
			copy(data, in)
		}
		if len(data) >= headerSize {
			reseal(data)
		}
		v, _, err := decodeView(data)
		if err != nil {
			return
		}
		d, o := v.D, v.O
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
