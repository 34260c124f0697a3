package serve

import (
	"bufio"
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"regexp"
	"strconv"
	"strings"
	"testing"
	"time"

	"saphyra"
	"saphyra/internal/obs"
)

func metricsBody(t *testing.T, s *Server) string {
	t.Helper()
	w := httptest.NewRecorder()
	s.Handler().ServeHTTP(w, httptest.NewRequest("GET", "/metricsz", nil))
	if w.Code != http.StatusOK {
		t.Fatalf("metricsz = %d", w.Code)
	}
	if ct := w.Header().Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Errorf("Content-Type = %q", ct)
	}
	return w.Body.String()
}

var metricNameRe = regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*$`)

// TestMetricszExpositionLint is the satellite acceptance test: the full
// /metricsz body must be valid Prometheus text exposition. Every sample
// belongs to a family with a HELP and TYPE header, names are legal,
// counters end in _total, histogram bucket cumulatives are monotone in le,
// and the +Inf bucket equals _count exactly for every series.
func TestMetricszExpositionLint(t *testing.T) {
	g := saphyra.Generate.BarabasiAlbert(300, 3, 5)
	s, ids := newTestServer(t, g, Config{DisablePrecompute: true})
	// Touch a few paths so histograms and counters hold real samples.
	for i := 0; i < 3; i++ {
		if _, code := postRank(t, s.Handler(), RankRequest{
			Method: MethodSaPHyRa, Targets: []int64{ids[1], ids[2]},
			Eps: 0.2, Delta: 0.1, Seed: 7,
		}); code != http.StatusOK {
			t.Fatalf("rank = %d", code)
		}
	}
	body := metricsBody(t, s)

	help := map[string]bool{}
	typ := map[string]string{}
	type bucketSeries struct {
		lastLe  float64
		lastCum int64
		inf     int64
		hasInf  bool
	}
	buckets := map[string]*bucketSeries{} // family + non-le labels
	counts := map[string]int64{}          // _count samples by family + labels
	seen := map[string]bool{}             // duplicate sample detection

	sc := bufio.NewScanner(strings.NewReader(body))
	for sc.Scan() {
		line := sc.Text()
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "# HELP ") {
			f := strings.Fields(line)
			if len(f) < 4 {
				t.Errorf("HELP without text: %q", line)
			}
			help[f[2]] = true
			continue
		}
		if strings.HasPrefix(line, "# TYPE ") {
			f := strings.Fields(line)
			if len(f) != 4 {
				t.Fatalf("malformed TYPE: %q", line)
			}
			if !help[f[2]] {
				t.Errorf("TYPE before HELP for %s", f[2])
			}
			if _, dup := typ[f[2]]; dup {
				t.Errorf("family %s declared twice", f[2])
			}
			typ[f[2]] = f[3]
			continue
		}
		if strings.HasPrefix(line, "#") {
			t.Errorf("unknown comment line: %q", line)
			continue
		}

		// Sample line: name{labels} value | name value
		nameEnd := strings.IndexAny(line, "{ ")
		if nameEnd < 0 {
			t.Fatalf("malformed sample: %q", line)
		}
		name := line[:nameEnd]
		if !metricNameRe.MatchString(name) {
			t.Errorf("illegal metric name %q", name)
		}
		labels := ""
		rest := line[nameEnd:]
		if rest[0] == '{' {
			close := strings.Index(rest, "}")
			if close < 0 {
				t.Fatalf("unclosed labels: %q", line)
			}
			labels = rest[1:close]
			rest = rest[close+1:]
		}
		valStr := strings.TrimSpace(rest)
		val, err := strconv.ParseFloat(valStr, 64)
		if err != nil {
			t.Fatalf("unparseable value in %q: %v", line, err)
		}
		if seen[name+"{"+labels+"}"] {
			t.Errorf("duplicate sample %s{%s}", name, labels)
		}
		seen[name+"{"+labels+"}"] = true

		// Resolve the family the sample belongs to.
		fam, suffix := name, ""
		if typ[fam] == "" {
			for _, sfx := range []string{"_bucket", "_sum", "_count"} {
				if base := strings.TrimSuffix(name, sfx); base != name && typ[base] == "histogram" {
					fam, suffix = base, sfx
					break
				}
			}
		}
		ft := typ[fam]
		if ft == "" {
			t.Errorf("sample %q belongs to no declared family", line)
			continue
		}
		if ft == "counter" {
			if !strings.HasSuffix(fam, "_total") {
				t.Errorf("counter %s does not end in _total", fam)
			}
			if val < 0 {
				t.Errorf("counter %s negative: %v", name, val)
			}
		}
		if ft == "histogram" {
			if suffix == "" {
				t.Errorf("bare sample %q inside histogram family %s", line, fam)
				continue
			}
			nonLe := make([]string, 0, 4)
			le := ""
			for _, p := range strings.Split(labels, ",") {
				if strings.HasPrefix(p, `le="`) {
					le = strings.TrimSuffix(strings.TrimPrefix(p, `le="`), `"`)
				} else if p != "" {
					nonLe = append(nonLe, p)
				}
			}
			key := fam + "{" + strings.Join(nonLe, ",") + "}"
			switch suffix {
			case "_bucket":
				bs := buckets[key]
				if bs == nil {
					bs = &bucketSeries{lastLe: -1}
					buckets[key] = bs
				}
				cum := int64(val)
				if le == "+Inf" {
					bs.inf, bs.hasInf = cum, true
				} else {
					ub, err := strconv.ParseFloat(le, 64)
					if err != nil {
						t.Fatalf("bad le in %q: %v", line, err)
					}
					if ub <= bs.lastLe {
						t.Errorf("%s: le %v not increasing after %v", key, ub, bs.lastLe)
					}
					if cum < bs.lastCum {
						t.Errorf("%s: cumulative decreased at le=%v: %d < %d", key, ub, cum, bs.lastCum)
					}
					if bs.hasInf {
						t.Errorf("%s: finite bucket after +Inf", key)
					}
					bs.lastLe, bs.lastCum = ub, cum
				}
			case "_count":
				counts[key] = int64(val)
			}
		}
	}

	for key, bs := range buckets {
		if !bs.hasInf {
			t.Errorf("%s: no +Inf bucket", key)
			continue
		}
		cnt, ok := counts[key]
		if !ok {
			t.Errorf("%s: no _count sample", key)
			continue
		}
		if bs.inf != cnt {
			t.Errorf("%s: +Inf bucket %d != _count %d", key, bs.inf, cnt)
		}
		if bs.lastCum > bs.inf {
			t.Errorf("%s: last finite bucket %d exceeds +Inf %d", key, bs.lastCum, bs.inf)
		}
	}
	if len(buckets) == 0 {
		t.Error("no histogram series rendered")
	}

	// The satellites' specific series must be present.
	for _, want := range []string{
		"saphyra_retry_after_seconds ",
		"saphyra_waiting_computations ",
		"saphyra_inflight_computations ",
		`saphyra_request_seconds_bucket{outcome="ok",le="+Inf"}`,
		`saphyra_query_cost_bucket{method="saphyra",le="+Inf"}`,
		"saphyra_flight_fanin_requests_count ",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("exposition missing %q", want)
		}
	}
}

// TestHealthzReadyzSplit pins the liveness/readiness split: /healthz
// answers 200 for a live process, /readyz answers 200 once a generation
// serves, and a failed reload — old generation still serving — keeps
// readiness green.
func TestHealthzReadyzSplit(t *testing.T) {
	g := saphyra.Generate.BarabasiAlbert(200, 3, 5)
	s, _ := newTestServer(t, g, Config{DisablePrecompute: true})
	h := s.Handler()

	get := func(path string) *httptest.ResponseRecorder {
		w := httptest.NewRecorder()
		h.ServeHTTP(w, httptest.NewRequest("GET", path, nil))
		return w
	}
	if w := get("/healthz"); w.Code != http.StatusOK {
		t.Fatalf("healthz = %d", w.Code)
	}
	if w := get("/readyz"); w.Code != http.StatusOK || !strings.Contains(w.Body.String(), "ready") {
		t.Fatalf("readyz = %d %q", w.Code, w.Body.String())
	}

	// Break the view file; the reload fails, the old generation keeps
	// serving, and both probes stay green — a failed reload must not tell
	// the orchestrator to pull the instance out of rotation.
	if err := os.Rename(s.viewPath, s.viewPath+".gone"); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Reload(); err == nil {
		t.Fatal("reload of a missing view succeeded")
	}
	if w := get("/healthz"); w.Code != http.StatusOK {
		t.Errorf("healthz after failed reload = %d", w.Code)
	}
	if w := get("/readyz"); w.Code != http.StatusOK {
		t.Errorf("readyz after failed reload = %d", w.Code)
	}
}

// logSlowQuery runs one rank request through a server that logs every
// request as slow and returns the single entry it wrote, with its span
// tree present.
func logSlowQuery(t *testing.T) slowQueryEntry {
	t.Helper()
	g := saphyra.Generate.BarabasiAlbert(400, 3, 5)
	var buf bytes.Buffer
	path, ids := writeTestView(t, g)
	s, err := New(path, Config{
		DisablePrecompute:  true,
		SlowQueryThreshold: time.Nanosecond, // every request is "slow"
		SlowQueryLog:       &buf,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	if _, code := postRank(t, s.Handler(), RankRequest{
		Method: MethodSaPHyRa, Targets: []int64{ids[1], ids[7], ids[20]},
		Eps: 0.1, Delta: 0.1, Seed: 3,
	}); code != http.StatusOK {
		t.Fatalf("rank = %d", code)
	}

	line := strings.TrimSpace(buf.String())
	if line == "" {
		t.Fatal("no slow-query entry written")
	}
	if n := strings.Count(buf.String(), "\n"); n != 1 {
		t.Fatalf("%d entries, want 1:\n%s", n, buf.String())
	}
	var e slowQueryEntry
	if err := json.Unmarshal([]byte(line), &e); err != nil {
		t.Fatalf("entry is not valid JSON: %v\n%s", err, line)
	}
	if e.Trace == nil || len(e.Trace.Spans) == 0 {
		t.Fatal("entry has no span tree")
	}
	return e
}

// TestSlowQueryLog pins the slow-query entry's shape: endpoint, outcome,
// generation, a 64-hex query key, and a span tree naming every phase. Its
// wall-clock half, the tree's coverage of the request's duration, is
// TestSlowQueryLogCoverageWallClock (build tag timing).
func TestSlowQueryLog(t *testing.T) {
	e := logSlowQuery(t)
	if e.Endpoint != "rank" || e.Outcome != "ok" {
		t.Errorf("endpoint=%q outcome=%q", e.Endpoint, e.Outcome)
	}
	if e.Generation != 1 {
		t.Errorf("generation = %d", e.Generation)
	}
	if !regexp.MustCompile(`^[0-9a-f]{64}$`).MatchString(e.QueryKey) {
		t.Errorf("query_key = %q, want 64 hex chars", e.QueryKey)
	}
	names := map[string]bool{}
	var walk func(sp *obs.SpanJSON)
	walk = func(sp *obs.SpanJSON) {
		names[sp.Name] = true
		for _, c := range sp.Children {
			walk(c)
		}
	}
	for _, sp := range e.Trace.Spans {
		walk(sp)
	}
	for _, want := range []string{"request", "cache", "flight", "compute", "rank", "core.exact", "core.round"} {
		if !names[want] {
			t.Errorf("span %q missing from the slow-query tree (have %v)", want, names)
		}
	}
}

// TestTraceEnvelope pins the ?trace=1 debug mode: the response carries the
// span breakdown, scores stay bitwise-identical to the untraced response,
// and an untraced response has no trace key at all (the serialized
// envelope is byte-compatible with pre-telemetry clients).
func TestTraceEnvelope(t *testing.T) {
	g := saphyra.Generate.BarabasiAlbert(300, 3, 5)
	s, ids := newTestServer(t, g, Config{DisablePrecompute: true})
	body, err := json.Marshal(RankRequest{
		Method: MethodSaPHyRa, Targets: []int64{ids[3], ids[9]},
		Eps: 0.1, Delta: 0.1, Seed: 11,
	})
	if err != nil {
		t.Fatal(err)
	}
	post := func(path string, hdr map[string]string) *httptest.ResponseRecorder {
		w := httptest.NewRecorder()
		req := httptest.NewRequest("POST", path, bytes.NewReader(body))
		for k, v := range hdr {
			req.Header.Set(k, v)
		}
		s.Handler().ServeHTTP(w, req)
		if w.Code != http.StatusOK {
			t.Fatalf("%s = %d: %s", path, w.Code, w.Body.String())
		}
		return w
	}

	post("/v1/rank", nil) // warm: every request below is a cache hit
	plain := post("/v1/rank", nil)
	if strings.Contains(plain.Body.String(), `"trace"`) {
		t.Error("untraced response leaked a trace key")
	}

	traced := post("/v1/rank?trace=1", nil)
	var resp RankResponse
	if err := json.Unmarshal(traced.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Trace == nil || len(resp.Trace.Spans) == 0 {
		t.Fatal("?trace=1 returned no span tree")
	}
	if resp.Trace.Spans[0].Name != "request" {
		t.Errorf("root span = %q", resp.Trace.Spans[0].Name)
	}

	// The traced envelope minus its trace must equal the untraced one:
	// tracing can never perturb the payload.
	var plainResp RankResponse
	if err := json.Unmarshal(plain.Body.Bytes(), &plainResp); err != nil {
		t.Fatal(err)
	}
	resp.Trace = nil
	a, _ := json.Marshal(&resp)
	b, _ := json.Marshal(&plainResp)
	if !bytes.Equal(a, b) {
		t.Errorf("traced response payload diverged:\n%s\n%s", a, b)
	}

	// A Trace-Id header arms debug mode too and echoes the id back.
	hdr := post("/v1/rank", map[string]string{"Trace-Id": "req-42"})
	var hresp RankResponse
	if err := json.Unmarshal(hdr.Body.Bytes(), &hresp); err != nil {
		t.Fatal(err)
	}
	if hresp.Trace == nil || hresp.Trace.ID != "req-42" {
		t.Fatalf("Trace-Id not honored: %+v", hresp.Trace)
	}
}
