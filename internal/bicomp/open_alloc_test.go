//go:build unix

package bicomp

import (
	"math"
	"path/filepath"
	"runtime"
	"testing"

	"saphyra/internal/graph"
)

// TestOpenMappedAllocatesNothingPerNode bounds the heap one OpenMapped
// allocates by the view's run, block and component counts: the node-major
// tables alias the mapped run arrays, so only the block-major CSR and its r
// column (8 bytes per run), the per-block offsets, sums and fill cursor (40
// bytes per block) and the component recount (8 bytes per component) are
// heap, plus a few fixed headers. The bound's constants, 16, 48 and 8
// bytes, leave room for the allocator's size-class rounding. A table with
// one slice header per node breaks the bound on a tree, where nearly every
// node is a cutpoint and the run count is only about twice n, and on a
// Barabási–Albert graph, which is one block with one run per node. The test
// needs a real mapping: where OpenMapped falls back to reading the file
// into the heap, that copy alone exceeds the bound.
func TestOpenMappedAllocatesNothingPerNode(t *testing.T) {
	for _, tc := range []struct {
		name string
		g    *graph.Graph
	}{
		{"tree", graph.RandomTree(2000, 1)},
		{"ba", graph.BarabasiAlbert(2000, 3, 1)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			v := buildView(t, tc.g)
			path := filepath.Join(t.TempDir(), "view.sbcv")
			if err := v.WriteFile(path, nil); err != nil {
				t.Fatal(err)
			}
			runs, blocks, comps := uint64(len(v.RunBlock)), uint64(v.D.NumBlocks), uint64(len(v.D.CompSize))
			bound := 16*runs + 48*blocks + 8*comps + 4096
			// TotalAlloc counts every goroutine's allocations; the least of
			// a few opens is this one's.
			got := uint64(math.MaxUint64)
			for range 3 {
				var before, after runtime.MemStats
				runtime.ReadMemStats(&before)
				m, err := OpenMapped(path)
				runtime.ReadMemStats(&after)
				if err != nil {
					t.Fatal(err)
				}
				if err := m.Close(); err != nil {
					t.Fatal(err)
				}
				got = min(got, after.TotalAlloc-before.TotalAlloc)
			}
			if got > bound {
				t.Fatalf("OpenMapped allocated %d bytes, bound 16*%d runs + 48*%d blocks + 8*%d components + 4096 = %d (n = %d)",
					got, runs, blocks, comps, bound, v.G.NumNodes())
			}
			t.Logf("OpenMapped allocated %d bytes of %d allowed (n = %d, %d runs, %d blocks)", got, bound, v.G.NumNodes(), runs, blocks)
		})
	}
}
