package obs

import (
	"strconv"
	"strings"
	"testing"
	"time"
)

// TestCounterGaugeRender pins the exact exposition shape for scalar
// families: HELP/TYPE header once per family, one line per series in
// registration order, integers rendered without an exponent or trailing
// zeros.
func TestCounterGaugeRender(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("t_requests_total", "Requests.", `endpoint="rank"`)
	c.Add(2)
	r.Counter("t_requests_total", "Requests.", `endpoint="topk"`).Inc()
	r.GaugeFunc("t_depth", "Depth.", "", func() float64 { return 3 })
	r.GaugeFunc("t_uptime", "Up.", "", func() float64 { return 1.5 })
	r.CounterFunc("t_hits_total", "Hits.", `kind="hit"`, func() float64 { return 9 })

	var sb strings.Builder
	r.WritePrometheus(&sb)
	out := sb.String()
	for _, want := range []string{
		"# HELP t_requests_total Requests.\n# TYPE t_requests_total counter\n",
		"t_requests_total{endpoint=\"rank\"} 2\n",
		"t_requests_total{endpoint=\"topk\"} 1\n",
		"# TYPE t_depth gauge\n",
		"t_depth 3\n",
		"t_uptime 1.5\n",
		"t_hits_total{kind=\"hit\"} 9\n",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q\n---\n%s", want, out)
		}
	}
	if c.Value() != 2 {
		t.Errorf("Counter.Value = %d", c.Value())
	}
}

// TestRegistryReusesSeries pins that registering the same (name, labels)
// twice returns the same underlying series, and that a kind clash panics
// instead of silently corrupting the family.
func TestRegistryReusesSeries(t *testing.T) {
	r := NewRegistry()
	a := r.Counter("t_total", "h", "")
	b := r.Counter("t_total", "h", "")
	a.Inc()
	if b.Value() != 1 {
		t.Error("re-registration returned a distinct series")
	}
	defer func() {
		if recover() == nil {
			t.Error("kind mismatch did not panic")
		}
	}()
	r.GaugeFunc("t_total", "h", "", func() float64 { return 0 })
}

// TestSnapshotMatchesExposition pins Snapshot as the JSON twin of the
// exposition: every counter and gauge sample line of WritePrometheus is in
// the snapshot under the same key with the same value, and the snapshot
// holds nothing else — no histogram series and none of their quantiles.
func TestSnapshotMatchesExposition(t *testing.T) {
	r := NewRegistry()
	r.Counter("t_requests_total", "Requests.", `endpoint="rank"`).Add(7)
	r.Counter("t_requests_total", "Requests.", `endpoint="topk"`)
	r.CounterFunc("t_hits_total", "Hits.", Label("replica", `a"b`), func() float64 { return 9 })
	r.GaugeFunc("t_uptime", "Up.", "", func() float64 { return 1.5 })
	r.GaugeFunc("t_stamp", "Stamp.", "", func() float64 { return 1.7e9 + 0.25 })
	h := r.Histogram("t_seconds", "Latency.", `outcome="ok"`, UnitSeconds)
	h.Observe(3 * time.Millisecond)
	r.Histogram("t_fanin", "Fan-in.", "", UnitCount).ObserveN(4)

	var sb strings.Builder
	r.WritePrometheus(&sb)
	snap := r.Snapshot()
	seen := 0
	for _, line := range strings.Split(strings.TrimSuffix(sb.String(), "\n"), "\n") {
		if strings.HasPrefix(line, "#") || strings.HasPrefix(line, "t_seconds") || strings.HasPrefix(line, "t_fanin") {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		key, val := line[:i], line[i+1:]
		got, ok := snap[key]
		if !ok {
			t.Errorf("snapshot has no %q", key)
			continue
		}
		if fmtVal(got) != val {
			t.Errorf("snapshot[%q] = %s, exposition says %s", key, fmtVal(got), val)
		}
		seen++
	}
	if seen != 5 || len(snap) != seen {
		t.Errorf("exposition has %d counter/gauge samples, snapshot %d keys, want 5 each: %v", seen, len(snap), snap)
	}
}

// TestHistogramRenderInvariants is the registry-level half of the
// exposition lint: bucket cumulatives are monotone, the +Inf bucket equals
// _count exactly, and _sum matches the observations (seconds families
// divide nanoseconds out).
func TestHistogramRenderInvariants(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("t_seconds", "Latency.", "", UnitSeconds)
	var wantSum time.Duration
	for _, d := range []time.Duration{time.Microsecond, 30 * time.Microsecond,
		2 * time.Millisecond, 900 * time.Millisecond, time.Minute} {
		h.Observe(d)
		wantSum += d
	}
	n := r.Histogram("t_fanin", "Fan-in.", "", UnitCount)
	for i := int64(1); i <= 100; i++ {
		n.ObserveN(i)
	}

	var sb strings.Builder
	r.WritePrometheus(&sb)
	for _, fam := range []struct {
		name  string
		count int64
	}{{"t_seconds", 5}, {"t_fanin", 100}} {
		prev := int64(-1)
		var inf, cnt int64 = -1, -1
		for _, line := range strings.Split(sb.String(), "\n") {
			switch {
			case strings.HasPrefix(line, fam.name+"_bucket{le=\"+Inf\"}"):
				inf = mustInt(t, line)
			case strings.HasPrefix(line, fam.name+"_bucket"):
				v := mustInt(t, line)
				if v < prev {
					t.Errorf("%s: bucket cumulative decreased: %s", fam.name, line)
				}
				prev = v
			case strings.HasPrefix(line, fam.name+"_count"):
				cnt = mustInt(t, line)
			}
		}
		if inf != fam.count || cnt != fam.count {
			t.Errorf("%s: +Inf %d, _count %d, want both %d", fam.name, inf, cnt, fam.count)
		}
	}
	wantSumLine := "t_seconds_sum " + fmtVal(wantSum.Seconds()) + "\n"
	if !strings.Contains(sb.String(), wantSumLine) {
		t.Errorf("missing %q", wantSumLine)
	}
	// The quantile companion family is a gauge, not part of the histogram.
	if !strings.Contains(sb.String(), "# TYPE t_seconds_quantile gauge\n") {
		t.Error("quantile companion family missing or mistyped")
	}
	if !strings.Contains(sb.String(), `t_seconds_quantile{quantile="0.99"}`) {
		t.Error("p99 quantile series missing")
	}
}

// TestHistogramEdgesStrictlyIncreasing guards the two coalesced ladders
// the renderer trusts to be sorted.
func TestHistogramEdgesStrictlyIncreasing(t *testing.T) {
	for name, edges := range map[string][]int64{"seconds": secondsEdges, "count": countEdges} {
		for i := 1; i < len(edges); i++ {
			if edges[i] <= edges[i-1] {
				t.Errorf("%s edges not strictly increasing at %d: %d <= %d", name, i, edges[i], edges[i-1])
			}
		}
	}
	if got := secondsEdges[len(secondsEdges)-1]; got != int64(25*time.Second) {
		t.Errorf("last seconds edge = %v, want 25s", time.Duration(got))
	}
}

func mustInt(t *testing.T, line string) int64 {
	t.Helper()
	fields := strings.Fields(line)
	v, err := strconv.ParseInt(fields[len(fields)-1], 10, 64)
	if err != nil {
		t.Fatalf("bad value in %q: %v", line, err)
	}
	return v
}

// TestLabelEscaping pins the runtime-value label helper against the
// Prometheus text exposition escaping rules: backslash, double quote, and
// newline are escaped, everything else passes through byte-for-byte. The
// cluster router feeds replica URLs through this — an unescaped quote in a
// hostile replica name would otherwise corrupt the whole /metricsz body.
func TestLabelEscaping(t *testing.T) {
	cases := []struct{ k, v, want string }{
		{"replica", "http://127.0.0.1:8372", `replica="http://127.0.0.1:8372"`},
		{"path", `C:\views\net.sbcv`, `path="C:\\views\\net.sbcv"`},
		{"name", `say "hi"`, `name="say \"hi\""`},
		{"note", "line1\nline2", `note="line1\nline2"`},
		{"empty", "", `empty=""`},
	}
	for _, c := range cases {
		if got := Label(c.k, c.v); got != c.want {
			t.Errorf("Label(%q, %q) = %s, want %s", c.k, c.v, got, c.want)
		}
	}

	// A labeled series built with Label must render as a parseable line:
	// the lint in serve's metricsz test covers the full body; here just
	// check the rendered line carries the escaped value verbatim.
	r := NewRegistry()
	r.Counter("t_total", "test.", Label("replica", `a"b\c`)).Add(1)
	var sb strings.Builder
	r.WritePrometheus(&sb)
	want := `t_total{replica="a\"b\\c"} 1` + "\n"
	if !strings.Contains(sb.String(), want) {
		t.Errorf("rendered body missing %q:\n%s", want, sb.String())
	}
}
