package main

import (
	"fmt"
	"math"
	"slices"
	"time"
)

// quantile returns the q-quantile of an ascending slice by nearest rank:
// the smallest value with at least q·n samples at or below it. Failed
// operations enter as +Inf, so they count as missing any latency limit.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	i := rank(len(sorted), q) - 1
	return sorted[min(max(i, 0), len(sorted)-1)]
}

// rank is the nearest-rank position (1-based) of the q-quantile of n
// samples. The tolerance keeps q·n from rounding up past a whole number.
func rank(n int, q float64) int { return int(math.Ceil(q*float64(n) - 1e-9)) }

// beyond returns how many of n samples lie above the nearest-rank
// q-quantile.
func beyond(n int, q float64) int { return n - rank(n, q) }

// median returns the middle value (the mean of the two middle values for
// an even count), as Python's statistics.median does.
func median(v []float64) float64 {
	if len(v) == 0 {
		return math.NaN()
	}
	s := slices.Sorted(slices.Values(v))
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns the three cut points Python's
// statistics.quantiles(v, n=4) returns with its default 'exclusive' method,
// so spreads computed here match the ones the benchmark contract states.
// Fewer than two values give that value three times.
func quartiles(v []float64) [3]float64 {
	s := slices.Sorted(slices.Values(v))
	ld := len(s)
	if ld == 0 {
		return [3]float64{math.NaN(), math.NaN(), math.NaN()}
	}
	if ld == 1 {
		return [3]float64{s[0], s[0], s[0]}
	}
	var out [3]float64
	m := ld + 1
	for i := 1; i <= 3; i++ {
		j := min(max(i*m/4, 1), ld-1)
		delta := i*m - j*4
		out[i-1] = (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return out
}

// spread returns the interquartile distance of v as a share of its median.
func spread(v []float64) float64 {
	q := quartiles(v)
	return (q[2] - q[0]) / math.Abs(q[1])
}

// windows is how many equal parts the measured span is cut into. A block of
// the reference kernel (host.go) runs before the first window, between
// windows and after the last, and each operation's time is scaled by the
// kernel times on both sides of its window.
const windows = 8

// A reference block runs refPerBlock searches (~25 ms) or stops at
// refBudget. In the open loops it sits in a gap of refGap with no request
// due, refSettle after the gap opens so that the window's last answers are
// in; the gap also holds the garbage collection that precedes the block
// (4-15 ms on the hit workloads).
const (
	refPerBlock = 16
	refBudget   = 40 * time.Millisecond
	refGap      = 140 * time.Millisecond
	refSettle   = 40 * time.Millisecond
)

// windowed is what a workload measured for the end-to-end metrics: each
// attempted operation's window and latency (+Inf for a failure), and the
// reference kernel's times in the blocks around the windows.
type windowed struct {
	win  []int
	ms   []float64
	refs [windows + 1][]float64
	// closed marks a closed loop, whose rate is operations answered per
	// second spent on them. An open loop's is operations answered per
	// second of its schedule, which lasts span.
	closed bool
	span   time.Duration
}

func (m *windowed) add(win int, ms float64) {
	m.win = append(m.win, win)
	m.ms = append(m.ms, ms)
}

// setEndToEnd reports p50_ms, tail_ms (at percentile tail) and ops_per_s
// over every attempted operation, each time scaled to the quiet host's
// speed by the factor of its window. The unscaled values and the factors
// are reported under raw.* and host.*.
func setEndToEnd(res *result, m *windowed, tail float64) {
	var factors, refs []float64
	for w := range windows {
		around := slices.Concat(m.refs[w], m.refs[w+1])
		factors = append(factors, hostFactor(around))
		refs = append(refs, around...)
	}
	scaled := make([]float64, len(m.ms))
	ok, busy := 0, 0.0
	for i, v := range m.ms {
		scaled[i] = v * factors[m.win[i]]
		if !math.IsInf(v, 1) {
			ok++
			busy += scaled[i] / 1e3
		}
	}
	raw := slices.Sorted(slices.Values(m.ms))
	slices.Sort(scaled)
	n := len(m.ms)
	res.set("p50_ms", "ms", quantile(scaled, 0.5), n, "at quiet-host speed")
	res.set("tail_ms", "ms", quantile(scaled, tail), n, fmt.Sprintf("p%g with %d beyond, at quiet-host speed", tail*100, beyond(n, tail)))
	if m.closed {
		res.set("ops_per_s", "1/s", float64(ok)/busy, n, "answered per second busy, at quiet-host speed")
	} else {
		res.set("ops_per_s", "1/s", float64(ok)/m.span.Seconds(), n, "answered per second of the schedule: a success-rate check, not a throughput")
	}
	res.set("raw.p50_ms", "ms", quantile(raw, 0.5), n, "p50_ms unscaled")
	res.set("raw.tail_ms", "ms", quantile(raw, tail), n, "tail_ms unscaled")
	res.set("host.factor", "ratio", median(factors), len(factors), "median scale of the windows")
	res.set("host.ref_ms", "ms", median(refs), len(refs), "reference search, median")
}

// setSetup reports setup_s from the set-up times and the reference kernel
// times taken after each set-up.
func setSetup(res *result, totals, refs []float64, note string) {
	res.set("setup_s", "s", median(totals)*hostFactor(refs), len(totals), note+", at quiet-host speed")
	res.set("raw.setup_s", "s", median(totals), len(totals), "setup_s unscaled")
}
