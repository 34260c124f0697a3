// Package alias implements Walker/Vose alias tables for O(1) draws from a
// fixed discrete distribution. SaPHyRa's multistage sampler (Algorithm 2)
// draws from three static distributions per sample — block mass w_i, source
// mass r(s)(S-r(s)), target mass r(t) — and alias tables over them replace
// the O(log n) binary searches over cumulative tables in the hot loop.
//
// Construction is Vose's O(n) stable partition into "small" and "large"
// columns; it is fully deterministic, so samplers built from the same
// weights draw identical sequences for identical uniform streams — one of
// the determinism guarantees the engines rely on (DESIGN.md sections 2 and
// 3): the sampling engine's per-stream outputs are pure functions of the
// seed because every stage, including these tables, is.
package alias

// Table is an immutable alias table over indices [0, Len()).
type Table struct {
	prob  []float64 // acceptance threshold per column
	alias []int32   // fallback index per column
}

// New builds an alias table for the given non-negative weights. Negative
// weights are treated as zero; if every weight is zero (or the slice is
// empty after clamping) the table draws uniformly.
func New(weights []float64) *Table {
	t := Build(make([]float64, len(weights)), make([]int32, len(weights)), weights)
	return &t
}

// Build is New over caller-owned storage: it writes the table for weights
// into prob and alias, which must both hold len(weights) entries, and
// returns a Table that reads them. The arithmetic is New's, so the two
// draw identical sequences from identical weights; Build lets a caller keep
// many tables in one flat allocation.
func Build(prob []float64, alias []int32, weights []float64) Table {
	n := len(weights)
	t := Table{prob: prob[:n:n], alias: alias[:n:n]}
	if n == 0 {
		return t
	}
	var total float64
	for _, w := range weights {
		if w > 0 {
			total += w
		}
	}
	if total <= 0 {
		// Degenerate: uniform over all columns.
		for i := range t.prob {
			t.prob[i] = 1
			t.alias[i] = int32(i)
		}
		return t
	}
	// Scaled weights: mean 1 per column.
	scaled := make([]float64, n)
	scale := float64(n) / total
	for i, w := range weights {
		if w > 0 {
			scaled[i] = w * scale
		}
	}
	small := make([]int32, 0, n)
	large := make([]int32, 0, n)
	for i := n - 1; i >= 0; i-- { // reverse so pops go in index order
		if scaled[i] < 1 {
			small = append(small, int32(i))
		} else {
			large = append(large, int32(i))
		}
	}
	for len(small) > 0 && len(large) > 0 {
		s := small[len(small)-1]
		small = small[:len(small)-1]
		l := large[len(large)-1]
		t.prob[s] = scaled[s]
		t.alias[s] = l
		scaled[l] -= 1 - scaled[s]
		if scaled[l] < 1 {
			large = large[:len(large)-1]
			small = append(small, l)
		}
	}
	// Float round-off leftovers: both lists hold columns with mass ~1.
	for _, i := range large {
		t.prob[i] = 1
		t.alias[i] = i
	}
	for _, i := range small {
		t.prob[i] = 1
		t.alias[i] = i
	}
	return t
}

// Of returns the Table that an earlier Build wrote into prob and alias.
func Of(prob []float64, alias []int32) Table {
	return Table{prob: prob, alias: alias}
}

// Len returns the number of columns.
func (t *Table) Len() int { return len(t.prob) }

// Draw maps one uniform variate in [0, 1) to an index: the integer part of
// u*n selects the column, the fractional part replays as the acceptance
// coin. One rng call per draw, O(1), no allocation.
func (t *Table) Draw(u float64) int {
	f := u * float64(len(t.prob))
	i := int(f)
	if i >= len(t.prob) { // u == 1-ulp round-up guard
		i = len(t.prob) - 1
	}
	if f-float64(i) < t.prob[i] {
		return i
	}
	return int(t.alias[i])
}
