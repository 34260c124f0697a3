package bicomp

import (
	"sync"
	"testing"

	"saphyra/internal/graph"
	"saphyra/internal/testutil"
)

func TestBlockDiameterUpperBoundMemoized(t *testing.T) {
	g := testutil.RandomConnectedGraph(60, 80, 2)
	d := Decompose(g)
	first := make([]int32, d.NumBlocks)
	for b := int32(0); int(b) < d.NumBlocks; b++ {
		first[b] = d.BlockDiameterUpperBound(b)
	}
	// second pass must return identical values (served from the memo)
	for b := int32(0); int(b) < d.NumBlocks; b++ {
		if got := d.BlockDiameterUpperBound(b); got != first[b] {
			t.Fatalf("block %d: memoized %d != first %d", b, got, first[b])
		}
	}
}

// TestBlockDiameterUpperBoundIsUpperBound: the double sweep brackets every
// block's exact diameter, and BlockDiameterUpperBound is the exact diameter
// up to ExactDiameterMaxBlock nodes and the double-sweep bound above it.
// Cycle(64) and Cycle(65) straddle the threshold.
func TestBlockDiameterUpperBoundIsUpperBound(t *testing.T) {
	graphs := []*graph.Graph{
		testutil.RandomConnectedGraph(40, 50, 9),
		testutil.RandomConnectedGraph(200, 150, 9),
		graph.Cycle(ExactDiameterMaxBlock),
		graph.Cycle(ExactDiameterMaxBlock + 1),
	}
	var exactBlocks, sweptBlocks int
	for gi, g := range graphs {
		d := Decompose(g)
		for b := int32(0); int(b) < d.NumBlocks; b++ {
			exact := d.BlockDiameter(b)
			lo, hi := d.BlockDiameterBounds(b)
			if lo > exact || hi < exact {
				t.Fatalf("graph %d block %d: double sweep (%d, %d) excludes exact %d", gi, b, lo, hi, exact)
			}
			want := exact
			if size := d.BlockSize(b); size > ExactDiameterMaxBlock {
				want = hi
				sweptBlocks++
			} else if size > 2 {
				exactBlocks++
			}
			if ub := d.BlockDiameterUpperBound(b); ub != want {
				t.Fatalf("graph %d block %d (%d nodes): upper bound %d, want %d", gi, b, d.BlockSize(b), ub, want)
			}
		}
	}
	if exactBlocks == 0 || sweptBlocks == 0 {
		t.Fatalf("%d exact and %d double-swept blocks: both sides of the threshold must be covered", exactBlocks, sweptBlocks)
	}
}

func TestBlockDiameterUpperBoundSizeTwoBlocks(t *testing.T) {
	g := graph.Path(5) // all blocks are single edges
	d := Decompose(g)
	for b := int32(0); int(b) < d.NumBlocks; b++ {
		if ub := d.BlockDiameterUpperBound(b); ub != 1 {
			t.Errorf("edge block %d: bound %d, want 1", b, ub)
		}
	}
}

func TestBlockDiameterUpperBoundConcurrent(t *testing.T) {
	g := testutil.RandomConnectedGraph(80, 120, 4)
	d := Decompose(g)
	var wg sync.WaitGroup
	results := make([][]int32, 8)
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			out := make([]int32, d.NumBlocks)
			for b := int32(0); int(b) < d.NumBlocks; b++ {
				out[b] = d.BlockDiameterUpperBound(b)
			}
			results[w] = out
		}(w)
	}
	wg.Wait()
	for w := 1; w < 8; w++ {
		for b := range results[0] {
			if results[w][b] != results[0][b] {
				t.Fatalf("worker %d block %d: %d != %d", w, b, results[w][b], results[0][b])
			}
		}
	}
}
