package graph

import (
	"bytes"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

func TestReadEdgeListBasic(t *testing.T) {
	in := `# a comment
% another comment

0 1
1 2
2 0 17.5 extra fields ignored
`
	g, orig, err := ReadEdgeList(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if g.NumNodes() != 3 || g.NumEdges() != 3 {
		t.Fatalf("n=%d m=%d, want 3,3", g.NumNodes(), g.NumEdges())
	}
	if len(orig) != 3 {
		t.Fatalf("len(orig) = %d", len(orig))
	}
}

func TestReadEdgeListRemapsSparseIDs(t *testing.T) {
	in := "1000 7\n7 99999\n"
	g, orig, err := ReadEdgeList(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if g.NumNodes() != 3 {
		t.Fatalf("n = %d, want 3 (compacted)", g.NumNodes())
	}
	want := []int64{1000, 7, 99999}
	for i, w := range want {
		if orig[i] != w {
			t.Errorf("orig[%d] = %d, want %d", i, orig[i], w)
		}
	}
	// node 1 is raw id 7, which connects to both others
	if g.Degree(1) != 2 {
		t.Errorf("degree of raw id 7 = %d, want 2", g.Degree(1))
	}
}

func TestReadEdgeListErrors(t *testing.T) {
	cases := []struct{ name, in string }{
		{"one field", "42\n"},
		{"bad source", "x 1\n"},
		{"bad target", "1 y\n"},
		{"negative", "-1 2\n"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if _, _, err := ReadEdgeList(strings.NewReader(c.in)); err == nil {
				t.Errorf("want error for %q", c.in)
			}
		})
	}
}

func TestWriteReadRoundTrip(t *testing.T) {
	g := BarabasiAlbert(80, 3, 21)
	var buf bytes.Buffer
	if err := WriteEdgeList(&buf, g); err != nil {
		t.Fatal(err)
	}
	g2, _, err := ReadEdgeList(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if g2.NumNodes() != g.NumNodes() || g2.NumEdges() != g.NumEdges() {
		t.Fatalf("round trip size mismatch: (%d,%d) vs (%d,%d)",
			g2.NumNodes(), g2.NumEdges(), g.NumNodes(), g.NumEdges())
	}
}

func TestSaveLoadFile(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "g.txt")
	g := Cycle(10)
	if err := SaveEdgeList(path, g); err != nil {
		t.Fatal(err)
	}
	g2, _, err := LoadEdgeList(path)
	if err != nil {
		t.Fatal(err)
	}
	if g2.NumEdges() != 10 {
		t.Errorf("m = %d, want 10", g2.NumEdges())
	}
}

func TestLoadMissingFile(t *testing.T) {
	if _, _, err := LoadEdgeList("/does/not/exist"); err == nil {
		t.Error("want error for missing file")
	}
}

// TestReadEdgeListAllocations guards the in-place parser: a 20k-line edge
// list allocates for the scanner buffer, the edge and id slices' doublings,
// the id map's growth and the CSR build, never once per line. Doubling the
// lines over the same ids may add only the slices' extra doublings.
func TestReadEdgeListAllocations(t *testing.T) {
	var once bytes.Buffer
	if err := WriteEdgeList(&once, BarabasiAlbert(5000, 4, 1)); err != nil {
		t.Fatal(err)
	}
	twice := append(slices.Clone(once.Bytes()), once.Bytes()...)
	allocs := func(data []byte) float64 {
		return testing.AllocsPerRun(3, func() {
			if _, _, err := ReadEdgeList(bytes.NewReader(data)); err != nil {
				t.Fatal(err)
			}
		})
	}
	lines := bytes.Count(once.Bytes(), []byte("\n"))
	a1, a2 := allocs(once.Bytes()), allocs(twice)
	t.Logf("%d lines: %.0f allocations; %d lines over the same ids: %.0f", lines, a1, 2*lines, a2)
	if a1 > float64(lines)/100 {
		t.Errorf("%d lines allocate %.0f times, want at most lines/100 = %d", lines, a1, lines/100)
	}
	if a2-a1 > 4 {
		t.Errorf("doubling the lines over the same ids adds %.0f allocations, want at most 4", a2-a1)
	}
}
