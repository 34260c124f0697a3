package bicomp

import (
	"path/filepath"
	"testing"

	"saphyra/internal/datasets"
)

// BenchmarkOpenMapped prices one OpenMapped of the view bench/run.sh serves:
// the Flickr stand-in at scale 4 (24k nodes, a 6.0 MB file). That is the
// bicomp.open_s layer: map the file, verify the checksum trailer, check the
// run layout and edge indices, and rebuild the decomposition and out-reach
// tables from their sections. The
// build and write are outside the timed loop; the file stays in the page
// cache, so the figure is the open's CPU cost, not a disk read.
func BenchmarkOpenMapped(b *testing.B) {
	v := NewBlockCSR(datasets.Flickr.Build(4))
	path := filepath.Join(b.TempDir(), "flickr.sbcv")
	if err := v.WriteFile(path, nil); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m, err := OpenMapped(path)
		if err != nil {
			b.Fatal(err)
		}
		if err := m.Close(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkNewBlockCSR prices the bicomp.build_s layer of bench/run.sh on
// the same graph: the decomposition DFS with its per-edge block map, the
// out-reach tables, and the grouped view.
func BenchmarkNewBlockCSR(b *testing.B) {
	g := datasets.Flickr.Build(4)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = NewBlockCSR(g)
	}
}
