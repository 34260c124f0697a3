package graph

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"slices"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// FuzzReadEdgeList checks the in-place reader against readEdgeListReference,
// the strings.Fields/strconv.ParseInt reader it replaced: the two must
// agree on whether an input is an error and, when it is not, on the id map
// and the CSR arrays. The checked-in corpus (testdata/fuzz/FuzzReadEdgeList)
// covers the grammar's corners: CRLF, tabs, \v and \f, NBSP, signs, "-0",
// leading zeros, the int64 limit and one past it, commas, trailing junk,
// comment fields, indented and whitespace-only lines.
func FuzzReadEdgeList(f *testing.F) {
	f.Add([]byte("# c\n0 1\n1 2 3.5\n\n2 0\n"))
	f.Fuzz(func(t *testing.T, data []byte) {
		g, ids, err := ReadEdgeList(bytes.NewReader(data))
		rg, rids, rerr := readEdgeListReference(bytes.NewReader(data))
		if (err == nil) != (rerr == nil) {
			t.Fatalf("error %v, reference error %v", err, rerr)
		}
		if err != nil {
			return
		}
		if !slices.Equal(ids, rids) {
			t.Fatalf("ids %v, reference %v", ids, rids)
		}
		if g.NumNodes() != rg.NumNodes() || g.NumEdges() != rg.NumEdges() {
			t.Fatalf("n=%d m=%d, reference n=%d m=%d", g.NumNodes(), g.NumEdges(), rg.NumNodes(), rg.NumEdges())
		}
		off, adj := g.CSR()
		roff, radj := rg.CSR()
		if !slices.Equal(off, roff) || !slices.Equal(adj, radj) {
			t.Fatalf("CSR %v %v, reference %v %v", off, adj, roff, radj)
		}
		if err := g.Validate(); err != nil {
			t.Fatal(err)
		}
	})
}

// readEdgeListReference is ReadEdgeList as it was before the in-place
// parser, kept as the fuzz oracle: each line is trimmed, split with
// strings.Fields and parsed with strconv.ParseInt, and the graph is built
// by buildReference, the sort-per-node CSR build the transpose replaced.
func readEdgeListReference(r io.Reader) (*Graph, []int64, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	remap := make(map[int64]Node)
	var original []int64
	intern := func(raw int64) Node {
		if id, ok := remap[raw]; ok {
			return id
		}
		id := Node(len(original))
		remap[raw] = id
		original = append(original, raw)
		return id
	}
	b := &Builder{}
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || line[0] == '#' || line[0] == '%' {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) < 2 {
			return nil, nil, fmt.Errorf("graph: line %d: want at least 2 fields, got %q", lineNo, line)
		}
		u, err := strconv.ParseInt(fields[0], 10, 64)
		if err != nil {
			return nil, nil, fmt.Errorf("graph: line %d: bad source id: %v", lineNo, err)
		}
		v, err := strconv.ParseInt(fields[1], 10, 64)
		if err != nil {
			return nil, nil, fmt.Errorf("graph: line %d: bad target id: %v", lineNo, err)
		}
		if u < 0 || v < 0 {
			return nil, nil, fmt.Errorf("graph: line %d: negative node id", lineNo)
		}
		b.AddEdge(intern(u), intern(v))
	}
	if err := sc.Err(); err != nil {
		return nil, nil, fmt.Errorf("graph: reading edge list: %w", err)
	}
	b.SetNumNodes(len(original))
	return buildReference(b), original, nil
}

// buildReference is Builder.Build with a comparison sort per adjacency list
// in place of the transpose.
func buildReference(b *Builder) *Graph {
	n := b.n
	deg := make([]int64, n+1)
	for _, e := range b.edges {
		deg[e.U+1]++
		deg[e.V+1]++
	}
	offsets := make([]int64, n+1)
	for i := 0; i < n; i++ {
		offsets[i+1] = offsets[i] + deg[i+1]
	}
	adj := make([]Node, offsets[n])
	cursor := make([]int64, n)
	copy(cursor, offsets[:n])
	for _, e := range b.edges {
		adj[cursor[e.U]] = e.V
		cursor[e.U]++
		adj[cursor[e.V]] = e.U
		cursor[e.V]++
	}
	outOff := make([]int64, n+1)
	w := int64(0)
	for u := 0; u < n; u++ {
		lo, hi := offsets[u], offsets[u+1]
		list := adj[lo:hi]
		sort.Slice(list, func(i, j int) bool { return list[i] < list[j] })
		outOff[u] = w
		var prev Node = -1
		for _, v := range list {
			if v != prev {
				adj[w] = v
				w++
				prev = v
			}
		}
	}
	outOff[n] = w
	return &Graph{offsets: outOff, adj: adj[:w:w], m: w / 2}
}
