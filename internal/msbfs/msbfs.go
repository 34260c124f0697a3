// Package msbfs implements bit-parallel multi-source BFS: up to 64
// breadth-first traversals advanced together in one level-synchronous pass,
// with one uint64 lane mask per node ("the more the merrier" MS-BFS of Then
// et al., VLDB 2015, specialized to the repo's CSR views).
//
// Lane layout. A batch assigns source i (0 <= i < 64) the lane bit 1<<i —
// the deterministic source->lane assignment the closeness engine's
// determinism contract relies on (DESIGN.md section 11). Three n-word
// arrays carry the whole state: seen[u] holds the lanes whose BFS has
// settled u, visit[u] the lanes whose frontier currently contains u, and
// visitNext[u] the lanes arriving at u in the level being expanded. One
// sequential scan of the frontier's CSR segments per level advances every
// lane at once: a node adjacency is read one time per level regardless of
// how many of the 64 traversals cross it, which is where the >=4x win over
// per-source scalar BFS comes from.
//
// The traversal streams plain CSR arrays (offsets plus a neighbor array) so
// it runs identically over a graph's sorted adjacency or a BlockCSR view's
// block-grouped Nbr array, mmap-backed or not — BFS levels depend only on
// the edge set, never on neighbor order, so every (source, node) distance is
// bitwise-identical to a scalar graph.BFSDistances run.
//
// Cancellation. Run polls a sched.Stop every pollStride scanned edges —
// strictly inside a pass, so time-to-cancel is bounded by the poll stride,
// not by a whole multi-source pass (the engines' chunk checkpoints are far
// coarser). A raised stop aborts with ErrStopped and the workspace is
// re-cleared on the next Run: the all-or-nothing contract is the caller's
// (discard everything on error), mirroring the other engines.
package msbfs

import (
	"context"
	"errors"
	"fmt"

	"saphyra/internal/faultinject"
	"saphyra/internal/graph"
	"saphyra/internal/obs"
	"saphyra/internal/sched"
)

// MaxLanes is the number of sources one pass can advance: the width of the
// per-node lane mask.
const MaxLanes = 64

// pollStride is the number of scanned directed edges between sched.Stop
// polls inside a pass. Coarse enough that the atomic load vanishes against
// the edge scans, fine enough that time-to-cancel is a small fraction of a
// pass on any graph big enough for cancellation to matter.
const pollStride = 1 << 14

// scanDiv sets the settle-mode switch: a level whose frontier holds at
// least n/scanDiv nodes settles by sweeping the visitNext array instead of
// tracking a candidate list edge by edge. Narrow-frontier graphs (road
// grids) never trip it; small-world graphs spend their two or three huge
// middle levels in scan mode, which is where almost all their edges are.
const scanDiv = 16

// ErrStopped is returned by Run when the wired sched.Stop was raised before
// the pass completed. Callers under a context map it to their typed
// cancellation error with the context's cause.
var ErrStopped = errors.New("msbfs: traversal stopped")

// Traversal is a reusable multi-source BFS workspace for graphs of a fixed
// node count. It is owned by one goroutine at a time; engines pool one per
// worker stream. The zero allocation steady state holds: Run allocates
// nothing.
type Traversal struct {
	n         int
	seen      []uint64
	visit     []uint64
	visitNext []uint64
	// frontier/next hold the current level's nodes and the next level's
	// candidates. A level lists each node at most once and the swap hands
	// the candidate list back empty, so neither outgrows its n-node
	// capacity and the appends never reallocate after New.
	frontier []graph.Node
	next     []graph.Node

	// Levels and ScanLevels describe the most recent Run for telemetry:
	// BFS levels expanded past the sources, and how many of them settled
	// in scan mode (full visitNext sweep) rather than list mode. Pure
	// observation — they feed trace spans, never the traversal itself.
	Levels     int
	ScanLevels int
}

// New returns a Traversal workspace for graphs of n nodes.
func New(n int) *Traversal {
	return &Traversal{
		n:         n,
		seen:      make([]uint64, n),
		visit:     make([]uint64, n),
		visitNext: make([]uint64, n),
		frontier:  make([]graph.Node, 0, n),
		next:      make([]graph.Node, 0, n),
	}
}

// Run advances one BFS per source, all together, over the CSR adjacency
// (off has length n+1; node u's neighbors are nbr[off[u]:off[u+1]]).
// Sources may repeat; a repeated source's lanes travel together. onSettle is
// invoked exactly once per (node, lane) pair — grouped as one call per node
// per level with the mask of lanes settling there — in deterministic order:
// level by level, discovery order within a level, which itself is a pure
// function of the adjacency arrays. depth is the BFS distance from the
// lane's source. stop may be nil (never stops).
//
// Run returns nil when every lane exhausted its component, ErrStopped when
// the stop was raised mid-pass, or the armed fault of the "msbfs.run"
// failure point. On error the settle callbacks already issued stand; the
// caller must discard the whole computation (all-or-nothing).
func (t *Traversal) Run(off []int64, nbr []graph.Node, sources []graph.Node, stop *sched.Stop, onSettle func(u graph.Node, lanes uint64, depth int32)) error {
	if len(sources) == 0 {
		return nil
	}
	if len(sources) > MaxLanes {
		return fmt.Errorf("msbfs: %d sources exceed the %d-lane mask", len(sources), MaxLanes)
	}
	if len(off) != t.n+1 {
		return fmt.Errorf("msbfs: offsets length %d, want n+1 = %d", len(off), t.n+1)
	}
	// A previous pass may have aborted mid-level: re-clear everything rather
	// than trusting clean-on-exit.
	clear(t.seen)
	clear(t.visit)
	clear(t.visitNext)
	t.Levels, t.ScanLevels = 0, 0

	fr, nx := t.frontier[:0], t.next[:0]
	for i, s := range sources {
		bit := uint64(1) << uint(i)
		if t.visit[s] == 0 {
			fr = append(fr, s)
		}
		t.visit[s] |= bit
		t.seen[s] |= bit
	}
	for _, s := range fr {
		onSettle(s, t.visit[s], 0)
	}
	if stop.Stopped() {
		return ErrStopped
	}

	edges := 0
	for depth := int32(1); len(fr) > 0; depth++ {
		// Chaos hook: one gate check per level; lets the fault harness fail
		// or delay a traversal mid-pass without reaching into the loop.
		if err := faultinject.Fire("msbfs.run"); err != nil {
			return err
		}
		// The expansion ORs each frontier mask into visitNext[w] unmasked —
		// one load-or-store per edge, no branches on seen — and the
		// already-settled lanes are subtracted once per node at settle time.
		// Two settle shapes, picked per level: narrow frontiers track the
		// candidate list explicitly (a node enters nx when its visitNext
		// word first goes nonzero); wide frontiers skip the list work in the
		// inner loop entirely and find candidates with one sequential sweep
		// of visitNext, which at >= n/scanDiv frontier nodes is cheaper than
		// the per-edge bookkeeping it replaces.
		scan := len(fr) >= t.n/scanDiv
		t.Levels++
		if scan {
			t.ScanLevels++
			for _, u := range fr {
				mu := t.visit[u]
				lo, hi := off[u], off[u+1]
				edges += int(hi - lo)
				if edges >= pollStride {
					edges = 0
					if stop.Stopped() {
						return ErrStopped
					}
				}
				for _, w := range nbr[lo:hi] {
					t.visitNext[w] |= mu
				}
			}
		} else {
			for _, u := range fr {
				mu := t.visit[u]
				lo, hi := off[u], off[u+1]
				edges += int(hi - lo)
				if edges >= pollStride {
					edges = 0
					if stop.Stopped() {
						return ErrStopped
					}
				}
				for _, w := range nbr[lo:hi] {
					if t.visitNext[w] == 0 {
						nx = append(nx, w)
					}
					t.visitNext[w] |= mu
				}
			}
		}
		// Close the level: retire the old frontier's visit masks first — a
		// node can gain further lanes at the next depth and re-enter the
		// frontier — then settle the genuinely new arrivals. A candidate
		// whose mask is fully seen (reached only by settled lanes this
		// level) just has its visitNext word cleared.
		for _, u := range fr {
			t.visit[u] = 0
		}
		nx2 := nx[:0]
		if scan {
			for w, vn := range t.visitNext {
				if vn == 0 {
					continue
				}
				t.visitNext[w] = 0
				if m := vn &^ t.seen[w]; m != 0 {
					t.seen[w] |= m
					t.visit[w] = m
					nx2 = append(nx2, graph.Node(w))
					onSettle(graph.Node(w), m, depth)
				}
			}
		} else {
			for _, w := range nx {
				vn := t.visitNext[w]
				t.visitNext[w] = 0
				if m := vn &^ t.seen[w]; m != 0 {
					t.seen[w] |= m
					t.visit[w] = m
					nx2 = append(nx2, w)
					onSettle(w, m, depth)
				}
			}
		}
		fr, nx = nx2, fr[:0]
	}
	return nil
}

// RunCtx is Run wrapped in a "msbfs.pass" trace span: Extra = levels
// expanded, note = lane count and scan-mode level split. The traversal
// itself is byte-for-byte Run — ctx is consulted only for the trace, never
// for cancellation (that remains stop's job, preserving the engines'
// all-or-nothing contract).
func (t *Traversal) RunCtx(ctx context.Context, off []int64, nbr []graph.Node, sources []graph.Node, stop *sched.Stop, onSettle func(u graph.Node, lanes uint64, depth int32)) error {
	sp := obs.StartLeaf(ctx, "msbfs.pass")
	err := t.Run(off, nbr, sources, stop, onSettle)
	if sp != nil {
		sp.SetExtra(int64(t.Levels))
		sp.SetNote(fmt.Sprintf("lanes=%d scan_levels=%d/%d", len(sources), t.ScanLevels, t.Levels))
		sp.End()
	}
	return err
}
