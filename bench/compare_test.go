package main

import (
	"encoding/json"
	"math"
	"strings"
	"testing"
)

func TestCompareRule(t *testing.T) {
	bound := 0.1
	latency := specMetric{Name: "p50_ms", Unit: "ms", Better: "lower", Bound: &bound}
	rate := specMetric{Name: "ops_per_s", Unit: "1/s", Better: "higher", Bound: &bound}
	steady := []float64{10.0, 10.1, 9.9, 10.2, 9.8, 10.0, 10.1, 9.9, 10.0, 10.05}
	failed := []float64{9.0, 9.1, math.Inf(1), 9.2, 8.8, 9.0, 9.1, 9.0, 9.2, 8.9}
	scale := func(v []float64, f float64) []float64 {
		out := make([]float64, len(v))
		for i := range v {
			out[i] = v[i] * f
		}
		return out
	}
	for _, c := range []struct {
		name   string
		m      specMetric
		b, c   []float64
		result string
	}{
		{"no change", latency, steady, scale(steady, 1.01), verdictSame},
		{"faster in every pair", latency, steady, scale(steady, 0.8), verdictGain},
		{"faster median but not 9/10 pairs", latency, steady,
			[]float64{8, 8, 8, 8, 8, 8, 8, 8, 11, 11}, verdictSame},
		{"slower beyond the bound", latency, steady, scale(steady, 1.2), verdictRegression},
		{"lower rate beyond the bound", rate, steady, scale(steady, 0.85), verdictRegression},
		{"higher rate in every pair", rate, steady, scale(steady, 1.2), verdictGain},
		{"spread wider than the bound", latency,
			[]float64{7, 13, 8, 12, 10, 6, 14, 9, 11, 10},
			[]float64{8, 12, 10, 13, 7, 11, 9, 14, 6, 10.5}, verdictUnresolved},
		{"wide spread, every change run better, gap within the parent's spread", latency,
			[]float64{10, 14, 10, 14, 10, 14, 10, 14, 10, 14},
			[]float64{9.5, 9.9, 9.6, 9.8, 9.7, 9.5, 9.9, 9.6, 9.8, 9.7}, verdictSame},
		{"a change run failed past the percentile", latency, steady, failed, verdictRegression},
		{"a parent run failed past the percentile", latency, failed, steady, verdictUnresolved},
	} {
		if got := compareMetric(c.m, "w", c.b, c.c).Verdict; got != c.result {
			t.Errorf("%s: verdict %q, want %q", c.name, got, c.result)
		}
	}
}

// TestRecordNotFinite checks that a value that is not finite is written as
// null and that null or a missing metric reads back as NaN, which the
// compare rule takes for a failed run.
func TestRecordNotFinite(t *testing.T) {
	var rec record
	if err := json.Unmarshal([]byte(`{"metrics": {"p50_ms": {"value": null, "unit": "ms"}}}`), &rec); err != nil {
		t.Fatal(err)
	}
	change := []record{rec, {Metrics: map[string]metricValue{}}}
	for i, v := range values(change, "p50_ms") {
		if !notFinite(v) {
			t.Errorf("change run %d reads %g, want NaN", i, v)
		}
	}
	if b, err := json.Marshal(metricValue{Value: num(math.Inf(1)), Unit: "ms"}); err != nil || !strings.Contains(string(b), `"value":null`) {
		t.Errorf("+Inf marshals as %s (%v), want null", b, err)
	}
}

func TestCompareUnscaled(t *testing.T) {
	bound := 0.1
	sp := &spec{
		Workloads: []specWorkload{{Name: "w"}},
		EndToEnd:  []specMetric{{Name: "p50_ms", Unit: "ms", Better: "lower", Bound: &bound}},
	}
	run := func(scaled, raw float64) record {
		return record{Workload: "w", Metrics: map[string]metricValue{
			"p50_ms":     {Value: num(scaled), Unit: "ms"},
			"raw.p50_ms": {Value: num(raw), Unit: "ms"},
		}}
	}
	var base, change, mixed []record
	for i := range 6 {
		d := 0.1 * float64(i%3)
		base = append(base, run(10+d, 10+d))
		// The scaled value holds while the unscaled one is 20% worse in
		// every pair, as when a change also slows the reference kernel.
		change = append(change, run(10+d, 12+d))
		m := run(10+d, 12+d)
		if i == 0 {
			m = run(10+d, 10+d)
		}
		mixed = append(mixed, m)
	}
	if r := compareRuns(sp, base, change)[0]; r.Verdict != verdictRegression || !r.RawWorse {
		t.Errorf("unscaled 20%% worse in every pair: verdict %q, raw %v; want a regression", r.Verdict, r.RawWorse)
	}
	if r := compareRuns(sp, base, mixed)[0]; r.Verdict != verdictSame {
		t.Errorf("unscaled worse in all but one pair: verdict %q, want %q", r.Verdict, verdictSame)
	}
}

func TestCompareFailFrac(t *testing.T) {
	base := []record{{Attempted: 1000}, {Attempted: 1000, Failed: 1}}
	change := []record{{Attempted: 1000, Failed: 3}}
	if failFrac(base) >= failFrac(change) {
		t.Errorf("fail_frac base %g, change %g: the rise was not seen", failFrac(base), failFrac(change))
	}
}
