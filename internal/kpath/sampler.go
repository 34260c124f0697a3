package kpath

import (
	"math/rand/v2"

	"saphyra/internal/core"
	"saphyra/internal/graph"
	"saphyra/internal/sched"
)

// walkSampler draws random walks of uniform length in [minLen, maxLen] from
// uniform start nodes and reports first visits to target nodes. Estimate
// draws with minLen 2 (the approximate-subspace conditional); the tests'
// unpartitioned reference draws with minLen 1 (the whole sample space). It
// implements core.Sampler with an allocation-free hot loop.
//
// Steps index the sorted adjacency lists with uniform variates, so the walk
// realized by a given rng stream depends on neighbor order — the reason
// kpath never walks the block-grouped arrays (see the package comment).
type walkSampler struct {
	g              *graph.Graph
	aIndex         []int32
	minLen, maxLen int
	rng            *rand.Rand
	visited        []int32
	epochs         *sched.Epoch // over visited

	// stop is the framework-wired sub-round cancellation flag, polled every
	// cancelPollWalks walks inside DrawBatch (see core.stoppable). Polls
	// consume no randomness: an unfired stop changes no bits.
	stop *sched.Stop
}

// SetStop wires the sub-round cancellation flag (core.stoppable).
func (s *walkSampler) SetStop(st *sched.Stop) { s.stop = st }

// cancelPollWalks is the walk stride between stop polls: walks are k cheap
// adjacency indexings each, so a few thousand of them bound time-to-cancel
// well under a millisecond while keeping the poll off the per-step path.
const cancelPollWalks = 1 << 12

func newWalkSampler(g *graph.Graph, aIndex []int32, minLen, maxLen int, seed int64) *walkSampler {
	s := &walkSampler{
		g:       g,
		aIndex:  aIndex,
		minLen:  minLen,
		maxLen:  maxLen,
		rng:     rand.New(rand.NewPCG(uint64(seed), 0x6a09e667f3bcc909)),
		visited: make([]int32, g.NumNodes()),
	}
	s.epochs = sched.NewEpoch(s.visited)
	return s
}

// walk performs one random walk, incrementing counts[idx] for each target
// it visits for the first time.
func (s *walkSampler) walk(counts []int64) {
	ep := s.epochs.Next()
	n := s.g.NumNodes()
	u := graph.Node(s.rng.IntN(n))
	s.visited[u] = ep
	l := s.minLen
	if s.maxLen > s.minLen {
		l += s.rng.IntN(s.maxLen - s.minLen + 1)
	}
	for step := 0; step < l; step++ {
		nbrs := s.g.Neighbors(u)
		if len(nbrs) == 0 {
			break
		}
		u = nbrs[s.rng.IntN(len(nbrs))]
		if s.visited[u] != ep {
			s.visited[u] = ep
			if ai := s.aIndex[u]; ai >= 0 {
				counts[ai]++
			}
		}
	}
}

// DrawBatch implements core.Sampler. A raised stop returns early with
// a short count — only ever observed by a canceled run, whose estimate the
// framework discards whole.
func (s *walkSampler) DrawBatch(n int64, hits []int64) {
	for j := int64(0); j < n; j++ {
		if j&(cancelPollWalks-1) == 0 && s.stop.Stopped() {
			return
		}
		s.walk(hits)
	}
}

var _ core.Sampler = (*walkSampler)(nil)
