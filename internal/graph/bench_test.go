package graph_test

import (
	"path/filepath"
	"testing"

	"saphyra/internal/datasets"
	"saphyra/internal/graph"
)

// BenchmarkLoadEdgeList prices the graph.load_s layer of bench/run.sh: one
// LoadEdgeList of the edge list the benchmark starts from, the Flickr
// stand-in at scale 4 (about 84k lines). The file is written once outside
// the timer and stays in the page cache, so the figure is the parse, the id
// map and the CSR build, not a disk read.
func BenchmarkLoadEdgeList(b *testing.B) {
	path := filepath.Join(b.TempDir(), "flickr.txt")
	if err := graph.SaveEdgeList(path, datasets.Flickr.Build(4)); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := graph.LoadEdgeList(path); err != nil {
			b.Fatal(err)
		}
	}
}
