package bicomp

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"saphyra/internal/graph"
)

// reseal recomputes the checksum trailer over a mutated file image so
// content mutations reach the section validators instead of tripping the
// open-time checksum — the shape of corruption a buggy writer (not bit rot)
// produces.
func reseal(b []byte) {
	binary.NativeEndian.PutUint64(b[len(b)-8:], viewChecksum(b[:len(b)-8]))
}

func roundTrip(t *testing.T, v *BlockCSR) (*BlockCSR, func()) {
	t.Helper()
	path := filepath.Join(t.TempDir(), "view.sbcv")
	if err := v.WriteFile(path, nil); err != nil {
		t.Fatalf("WriteFile: %v", err)
	}
	m, err := OpenMapped(path)
	if err != nil {
		t.Fatalf("OpenMapped: %v", err)
	}
	return m.View, func() {
		if err := m.Close(); err != nil {
			t.Errorf("Close: %v", err)
		}
	}
}

func TestPersistRoundTripBitwise(t *testing.T) {
	for _, tc := range []struct {
		name string
		g    *graph.Graph
	}{
		{"ba", graph.BarabasiAlbert(500, 3, 11)},
		{"road", graph.RoadNetwork(15, 15, 0.1, 3)},
		{"tree", graph.RandomTree(200, 5)},
		{"path", graph.Path(4)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			v := buildView(t, tc.g)
			got, done := roundTrip(t, v)
			defer done()

			if got.D == nil || got.O == nil {
				t.Fatal("mapped view carries no decomposition or out-reach tables")
			}
			if !sameDecomposition(got.D, v.D) || !sameOutReach(got.O, v.O) {
				t.Fatal("mapped decomposition/out-reach differ from the in-memory build")
			}
			// Full Validate: the structural checks plus the cross-check of
			// every annotation against the rebuilt D and O.
			if err := got.Validate(); err != nil {
				t.Fatalf("mapped view invalid: %v", err)
			}
			if !slices.Equal(got.Nbr, v.Nbr) || !slices.Equal(got.RNbr, v.RNbr) ||
				!slices.Equal(got.NbrRun, v.NbrRun) || !slices.Equal(got.Mate, v.Mate) ||
				!slices.Equal(got.RunOff, v.RunOff) || !slices.Equal(got.RunBlock, v.RunBlock) ||
				!slices.Equal(got.RunR, v.RunR) || !slices.Equal(got.RunStart, v.RunStart) ||
				!slices.Equal(got.RunDegSum, v.RunDegSum) {
				t.Fatal("mapped arrays differ from the in-memory build")
			}
			wantOff, wantAdj := v.G.CSR()
			gotOff, gotAdj := got.G.CSR()
			if !slices.Equal(gotOff, wantOff) || !slices.Equal(gotAdj, wantAdj) {
				t.Fatal("embedded graph CSR differs")
			}
		})
	}
}

func TestPersistWriteToDeterministic(t *testing.T) {
	v := buildView(t, graph.BarabasiAlbert(300, 2, 7))
	var a, b bytes.Buffer
	if _, err := v.WriteTo(&a); err != nil {
		t.Fatal(err)
	}
	if _, err := v.WriteTo(&b); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatal("WriteTo is not deterministic")
	}
	want := persistSize(int64(v.G.NumNodes()), v.G.NumEdges(), int64(len(v.RunBlock)),
		int64(len(v.D.CompSize)), false)
	if int64(a.Len()) != want {
		t.Fatalf("written %d bytes, persistSize says %d", a.Len(), want)
	}
}

func TestOpenMappedRejectsCorruption(t *testing.T) {
	v := buildView(t, graph.BarabasiAlbert(100, 2, 3))
	dir := t.TempDir()
	path := filepath.Join(dir, "view.sbcv")
	if err := v.WriteFile(path, nil); err != nil {
		t.Fatal(err)
	}
	good, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	check := func(name string, mutate func([]byte) []byte, wantSubs ...string) {
		t.Helper()
		bad := mutate(append([]byte(nil), good...))
		p := filepath.Join(dir, name)
		if err := os.WriteFile(p, bad, 0o644); err != nil {
			t.Fatal(err)
		}
		_, err := OpenMapped(p)
		if err == nil {
			t.Errorf("%s: corruption accepted", name)
			return
		}
		for _, sub := range wantSubs {
			if !strings.Contains(err.Error(), sub) {
				t.Errorf("%s: error %q does not mention %q", name, err, sub)
			}
		}
	}
	check("magic", func(b []byte) []byte { b[0] ^= 0xff; return b }, "magic")
	check("version", func(b []byte) []byte { b[8]++; return b }, "version", "saphyra -save-view")
	// A view file of format version 2, which carried a second, block-major
	// copy of RunR in an out-reach section: refused, with the rebuild hint.
	check("v2", func(b []byte) []byte {
		binary.NativeEndian.PutUint32(b[8:12], 2)
		reseal(b)
		return b
	}, "version 2", "rebuild it with saphyra -save-view")
	// Format version 3 carried a per-directed-edge block map, a second copy
	// of the run index, in its decomposition section.
	check("v3", func(b []byte) []byte {
		binary.NativeEndian.PutUint32(b[8:12], 3)
		reseal(b)
		return b
	}, "version 3", "rebuild it with saphyra -save-view")
	check("endian", func(b []byte) []byte { b[12], b[15] = b[15], b[12]; return b }, "endianness")
	check("truncated", func(b []byte) []byte { return b[:len(b)-8] }, "truncated")
	check("short", func(b []byte) []byte { return b[:20] }, "too short")
	check("dims", func(b []byte) []byte { b[23] = 0xff; return b })
	// Every required section's flag bit, cleared one at a time and
	// resealed: the reader names the missing section and the fix.
	for _, req := range []struct {
		flag int64
		name string
	}{{flagChecksum, "checksum"}, {flagDecomp, "decomposition"}} {
		// The case name stays out of the file name: the error quotes the
		// path, which must not satisfy the substring check by itself.
		check(fmt.Sprintf("flag%d", req.flag), func(b []byte) []byte {
			b[40] &^= byte(req.flag)
			reseal(b)
			return b
		}, req.name, "saphyra -save-view")
	}
	// A checksum-valid file whose run index is not monotone, with
	// RunOff[n] still equal to the run count. The decomposition rebuild
	// slices RunBlock by RunOff, so an unchecked index is a bounds panic at
	// startup and on every reload. RunOff follows offsets, adj, Nbr, RNbr,
	// NbrRun and Mate; set RunOff[1] = runs+5.
	n, m := int64(v.G.NumNodes()), v.G.NumEdges()
	runOffAt := headerSize + (n+1)*8 + 3*(2*m*4) + 2*(2*m*8)
	check("runoff", func(b []byte) []byte {
		binary.NativeEndian.PutUint64(b[runOffAt+8:], uint64(len(v.RunBlock)+5))
		reseal(b)
		return b
	}, "run index")

	if _, err := OpenMapped(filepath.Join(dir, "missing.sbcv")); err == nil {
		t.Error("missing file accepted")
	}
}

func TestGroupedAdjMatchesNeighborSets(t *testing.T) {
	g := graph.BarabasiAlbert(300, 3, 9)
	v := buildView(t, g)
	off, nbr := GroupedAdj{V: v}.CSR()
	gOff, _ := g.CSR()
	if !slices.Equal(off, gOff) {
		t.Fatal("grouped CSR offsets differ from the graph's")
	}
	var buf []graph.Node
	for u := graph.Node(0); int(u) < g.NumNodes(); u++ {
		buf = append(buf[:0], nbr[off[u]:off[u+1]]...)
		slices.Sort(buf)
		if !slices.Equal(buf, g.Neighbors(u)) {
			t.Fatalf("node %d: grouped neighbors are not a permutation", u)
		}
	}
}

func TestPersistIDsRoundTrip(t *testing.T) {
	g := graph.BarabasiAlbert(120, 2, 4)
	v := buildView(t, g)
	ids := make([]int64, g.NumNodes())
	for i := range ids {
		ids[i] = int64(i)*10 + 7 // a sparse external id space
	}
	dir := t.TempDir()
	path := filepath.Join(dir, "ids.sbcv")
	if err := v.WriteFile(path, ids); err != nil {
		t.Fatal(err)
	}
	m, err := OpenMapped(path)
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	if !slices.Equal(m.IDs, ids) {
		t.Fatal("embedded id map did not round-trip")
	}
	if err := m.View.Validate(); err != nil {
		t.Fatal(err)
	}

	// Mismatched id-map length must be rejected at write time.
	if err := v.WriteFile(filepath.Join(dir, "bad.sbcv"), ids[:10]); err == nil {
		t.Fatal("short id map accepted")
	}

	// A view written without ids reports none.
	noIDs := filepath.Join(dir, "noids.sbcv")
	if err := v.WriteFile(noIDs, nil); err != nil {
		t.Fatal(err)
	}
	m2, err := OpenMapped(noIDs)
	if err != nil {
		t.Fatal(err)
	}
	defer m2.Close()
	if m2.IDs != nil {
		t.Fatal("unexpected id map")
	}
}

func TestOpenMappedRejectsUnknownFlags(t *testing.T) {
	v := buildView(t, graph.Path(5))
	path := filepath.Join(t.TempDir(), "flags.sbcv")
	if err := v.WriteFile(path, nil); err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	b[40] |= 0x10 // set an undefined flag bit (0x01 = ids, 0x04 = checksum, 0x08 = decomposition)
	reseal(b)
	if err := os.WriteFile(path, b, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenMapped(path); err == nil || !strings.Contains(err.Error(), "flags") {
		t.Fatalf("unknown flags accepted: %v", err)
	}
}

// stripSection rewrites a file image the way a build predating a required
// section wrote it: the size bytes at off are removed, flag is cleared, the
// header's total size shrinks, and the trailer is resealed.
func stripSection(good []byte, off, size, flag int64) []byte {
	b := append(append([]byte(nil), good[:off]...), good[off+size:]...)
	binary.NativeEndian.PutUint64(b[40:48], binary.NativeEndian.Uint64(b[40:48])&^uint64(flag))
	binary.NativeEndian.PutUint64(b[48:56], uint64(len(b)))
	reseal(b)
	return b
}

// openRejects asserts that OpenMapped refuses path with an error
// mentioning wantSub.
func openRejects(t *testing.T, path, wantSub string) {
	t.Helper()
	m, err := OpenMapped(path)
	if err == nil {
		m.Close()
		t.Fatalf("%s: opened, want an error mentioning %q", filepath.Base(path), wantSub)
	}
	if !strings.Contains(err.Error(), wantSub) {
		t.Fatalf("%s: error %q does not mention %q", filepath.Base(path), err, wantSub)
	}
}

func sameOutReach(a, b *OutReach) bool {
	return slices.Equal(a.R, b.R) && slices.Equal(a.NodeR, b.NodeR) &&
		slices.Equal(a.S, b.S) && slices.Equal(a.Q, b.Q) && slices.Equal(a.W, b.W) &&
		a.WTotal == b.WTotal
}

// TestPersistOutReachCorruptSectionFallsBack: a wrong r value must never
// reach an estimate. RunR is the only serialized copy of r (each RNbr entry
// must equal the RunR of its NbrRun), and OpenMapped checks it as it
// rebuilds the out-reach tables: r >= 1, r = 1 at a non-cutpoint, and each
// block's r values summing to its component's size (Claim 9). Each
// corruption writes the wrong r to RunR and to every RNbr entry that
// mirrors it, then reseals, so it models a buggy writer rather than bit
// rot: neither the checksum nor the RNbr check may be the only defense.
func TestPersistOutReachCorruptSectionFallsBack(t *testing.T) {
	g := graph.RandomTree(100, 4)
	v := buildView(t, g)
	dir := t.TempDir()
	path := filepath.Join(dir, "good.sbcv")
	if err := v.WriteFile(path, nil); err != nil {
		t.Fatal(err)
	}
	good, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// RunR follows offsets, adj, Nbr, RNbr, NbrRun, Mate, RunOff and RunBlock.
	n, m := int64(g.NumNodes()), g.NumEdges()
	runROff := headerSize + (n+1)*8 + 3*(2*m*4) + 2*(2*m*8) + (n+1)*8 + pad8(int64(len(v.RunBlock))*4)
	// RNbr follows offsets, adj and Nbr.
	rnbrOff := headerSize + (n+1)*8 + 2*(2*m*4)
	cut, leaf := int64(-1), int64(-1) // a cutpoint run with r > 1, a non-cutpoint run
	for u := graph.Node(0); int64(u) < n; u++ {
		lo, hi := v.Runs(u)
		if hi-lo >= 2 && cut < 0 && v.RunR[lo] > 1 {
			cut = lo
		}
		if hi-lo == 1 && leaf < 0 {
			leaf = lo
		}
	}
	if cut < 0 || leaf < 0 {
		t.Fatal("test tree lacks a cutpoint run with r > 1 or a non-cutpoint")
	}
	for _, tc := range []struct {
		name, wantSub string
		run           int64
		r             int32
	}{
		{"claim9", "Claim 9", cut, v.RunR[cut] + 1},
		{"zero", "want >= 1", cut, 0},
		{"noncut", "1 at a non-cutpoint", leaf, 2},
	} {
		b := append([]byte(nil), good...)
		binary.NativeEndian.PutUint32(b[runROff+4*tc.run:], uint32(tc.r))
		for i, jr := range v.NbrRun {
			if jr == tc.run {
				binary.NativeEndian.PutUint32(b[rnbrOff+4*int64(i):], uint32(tc.r))
			}
		}
		reseal(b)
		p := filepath.Join(dir, tc.name+".sbcv")
		if err := os.WriteFile(p, b, 0o644); err != nil {
			t.Fatal(err)
		}
		openRejects(t, p, tc.wantSub)
	}
}

func sameDecomposition(a, b *Decomposition) bool {
	return a.NumBlocks == b.NumBlocks &&
		slices.Equal(a.BlockOff, b.BlockOff) && slices.Equal(a.BlockNodes, b.BlockNodes) &&
		slices.Equal(a.NodeOff, b.NodeOff) && slices.Equal(a.NodeBlock, b.NodeBlock) &&
		slices.Equal(a.CompLabel, b.CompLabel) && slices.Equal(a.CompSize, b.CompSize)
}

// TestPersistDecompRoundTrip: OpenMapped rebuilds the full Decomposition
// from the decomposition section (flag bit 3) without rerunning the O(n+m)
// Decompose DFS, bitwise-identical to the in-memory build — the fleet
// cold-start path; a file without the section is rejected.
func TestPersistDecompRoundTrip(t *testing.T) {
	for _, tc := range []struct {
		name string
		g    *graph.Graph
	}{
		{"ba", graph.BarabasiAlbert(400, 3, 13)},
		{"road", graph.RoadNetwork(12, 12, 0.1, 5)},
		{"tree", graph.RandomTree(150, 9)}, // every internal node is a cutpoint
		{"path", graph.Path(4)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			v := buildView(t, tc.g)
			dir := t.TempDir()

			path := filepath.Join(dir, "view.sbcv")
			if err := v.WriteFile(path, nil); err != nil {
				t.Fatal(err)
			}
			m, err := OpenMapped(path)
			if err != nil {
				t.Fatal(err)
			}
			defer m.Close()
			if !sameDecomposition(m.View.D, v.D) || !sameOutReach(m.View.O, v.O) {
				t.Fatal("tables reconstructed from the sections differ from the in-memory build")
			}
			if err := m.View.Validate(); err != nil {
				t.Fatalf("cross-check of reconstructed tables: %v", err)
			}

			good, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			n, m2 := int64(v.G.NumNodes()), v.G.NumEdges()
			secOff := decompOffset(n, m2, int64(len(v.RunBlock)))
			secSize := decompSectionSize(n, int64(len(v.D.CompSize)))
			legacy := filepath.Join(dir, "nodecomp.sbcv")
			if err := os.WriteFile(legacy, stripSection(good, secOff, secSize, flagDecomp), 0o644); err != nil {
				t.Fatal(err)
			}
			openRejects(t, legacy, "decomposition")
		})
	}
}

// TestPersistDecompCorruptSectionFallsBack: garbage in the decomposition
// section or the run layout must never reach an estimate — the open checks
// both and fails instead of recomputing. A mutated prelude (which changes
// the implied section size) is caught by the size check before any section
// is decoded.
func TestPersistDecompCorruptSectionFallsBack(t *testing.T) {
	g := graph.RandomTree(100, 4)
	v := buildView(t, g)
	dir := t.TempDir()
	path := filepath.Join(dir, "good.sbcv")
	if err := v.WriteFile(path, nil); err != nil {
		t.Fatal(err)
	}
	good, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// CompLabel starts 16 bytes into the section, after the
	// numBlocks/numComps prelude.
	n, m := int64(g.NumNodes()), g.NumEdges()
	sectionOff := decompOffset(n, m, int64(len(v.RunBlock)))
	labelOff := sectionOff + 16
	// RunBlock follows offsets, adj, Nbr, RNbr, NbrRun, Mate and RunOff.
	runBlockOff := headerSize + (n+1)*8 + 3*(2*m*4) + 2*(2*m*8) + (n+1)*8
	runStartOff := runBlockOff + 2*pad8(int64(len(v.RunBlock))*4) // after RunBlock and RunR
	runs := func(u graph.Node) []int32 { return v.RunBlock[v.RunOff[u]:v.RunOff[u+1]] }
	// twoRun is a cutpoint of the tree with exactly two runs, one edge each.
	twoRun := graph.Node(-1)
	for u := graph.Node(0); int64(u) < n && twoRun < 0; u++ {
		if len(runs(u)) == 2 && g.Degree(u) == 2 {
			twoRun = u
		}
	}
	if twoRun < 0 {
		t.Fatal("test tree lacks a two-run cutpoint")
	}
	for _, tc := range []struct {
		name, wantSub string
		mutate        func(b []byte)
	}{
		// numComps low byte: the implied file size no longer matches.
		{"prelude", "truncated or corrupt", func(b []byte) { b[sectionOff+8]++ }},
		// An out-of-range component label passes the size check but fails
		// the recount.
		{"label", "component label", func(b []byte) {
			binary.NativeEndian.PutUint32(b[labelOff:], uint32(len(v.D.CompSize)+7))
		}},
		// twoRun's runs skewed to lengths 3 and -1: the lengths still sum
		// to its degree, but the second run's edge range is inverted and
		// slicing Nbr over it would panic.
		{"tiling", "run layout", func(b []byte) {
			lo := v.RunOff[twoRun]
			binary.NativeEndian.PutUint64(b[runStartOff+8*(lo+1):], uint64(v.RunStart[lo]+3))
		}},
		// twoRun's two run blocks swapped: each run keeps its length, but
		// its run blocks no longer ascend, which the run search relies on.
		{"cursor", "run layout", func(b []byte) {
			at := runBlockOff + 4*v.RunOff[twoRun]
			bs := runs(twoRun)
			binary.NativeEndian.PutUint32(b[at:], uint32(bs[1]))
			binary.NativeEndian.PutUint32(b[at+4:], uint32(bs[0]))
		}},
	} {
		b := append([]byte(nil), good...)
		tc.mutate(b)
		reseal(b)
		p := filepath.Join(dir, tc.name+".sbcv")
		if err := os.WriteFile(p, b, 0o644); err != nil {
			t.Fatal(err)
		}
		openRejects(t, p, tc.wantSub)
	}
}

// TestOpenMappedRejectsBadEdgeIndices: every index the exact phase follows
// from an edge is range-checked at open, and RNbr is checked against RunR.
// Each corruption is resealed. The nbr and rnbr cases are the two
// checksum-valid views that opened before these checks: the first panicked
// a full-network exact phase with an index out of range, the second gave
// it a wrong r.
func TestOpenMappedRejectsBadEdgeIndices(t *testing.T) {
	g := graph.BarabasiAlbert(200, 3, 4)
	v := buildView(t, g)
	dir := t.TempDir()
	path := filepath.Join(dir, "good.sbcv")
	if err := v.WriteFile(path, nil); err != nil {
		t.Fatal(err)
	}
	good, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// adj follows the header and offsets; Nbr, RNbr, NbrRun and Mate
	// follow adj.
	n, m2 := int64(g.NumNodes()), 2*g.NumEdges()
	adjOff := headerSize + (n+1)*8
	nbrOff := adjOff + m2*4
	rnbrOff := nbrOff + m2*4
	nbrRunOff := rnbrOff + m2*4
	mateOff := nbrRunOff + m2*8
	put32 := func(at int64, x int32) func([]byte) {
		return func(b []byte) { binary.NativeEndian.PutUint32(b[at:], uint32(x)) }
	}
	put64 := func(at, x int64) func([]byte) {
		return func(b []byte) { binary.NativeEndian.PutUint64(b[at:], uint64(x)) }
	}
	for _, tc := range []struct {
		name, wantSub string
		mutate        func(b []byte)
	}{
		{"nbr", "grouped edge 0 targets node 205", put32(nbrOff, 205)},
		{"rnbr", "RNbr 7", put32(rnbrOff, 7)},
		{"adj", "graph edge 0 targets node 205", put32(adjOff, 205)},
		{"nbrrun", "NbrRun", put64(nbrRunOff, int64(len(v.RunBlock))+1)},
		{"mate", "Mate", put64(mateOff, m2+3)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			b := append([]byte(nil), good...)
			tc.mutate(b)
			reseal(b)
			p := filepath.Join(dir, tc.name+".sbcv")
			if err := os.WriteFile(p, b, 0o644); err != nil {
				t.Fatal(err)
			}
			openRejects(t, p, tc.wantSub)
		})
	}
}
