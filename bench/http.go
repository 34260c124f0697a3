package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"time"

	"saphyra"
	"saphyra/internal/cluster"
	"saphyra/internal/loadgen"
	"saphyra/internal/obs"
	"saphyra/internal/serve"
)

// httpWorkload is one of the workloads that send open-loop HTTP traffic.
type httpWorkload struct {
	mix  func(seed int64, d time.Duration) loadgen.Mix
	boot func(viewPath string) (*target, error)
	// hit marks a hit workload: every cacheable key is sent once before the
	// clock starts, and verification checks each distinct key once and
	// requires every response for it to carry the same bytes. Otherwise
	// every 16th response is verified.
	hit bool
	// tail is the percentile reported as tail_ms, one that leaves well
	// over ten requests beyond it at the workload's rate.
	tail float64
	// setups is how many times the target is booted; setup_s is the
	// median boot.
	setups int
	// fromDue times every request from its due time. It suits a workload
	// whose requests take many times the generator's timer slack (up to a
	// millisecond): there, a late send means the process's one P was busy
	// with the daemon's work, which the request would have waited for too.
	fromDue bool
}

// target is a booted daemon or fleet.
type target struct {
	base    string   // where requests are sent
	daemons []string // the daemons whose /metricsz is read
	fleet   *cluster.Fleet
	close   func()
}

// bootDaemon returns a boot function for one in-process daemon: serve.New
// with cfg, its Handler behind a loopback HTTP/1.1 server.
func bootDaemon(cfg serve.Config) func(string) (*target, error) {
	return func(viewPath string) (*target, error) {
		srv, err := serve.New(viewPath, cfg)
		if err != nil {
			return nil, err
		}
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			srv.Close()
			return nil, err
		}
		hs := &http.Server{Handler: srv.Handler()}
		served := make(chan struct{})
		go func() {
			hs.Serve(ln)
			close(served)
		}()
		base := "http://" + ln.Addr().String()
		return &target{base: base, daemons: []string{base}, close: func() {
			hs.Close()
			<-served
			srv.Close()
		}}, nil
	}
}

// bootFleet boots three replicas and their router with cluster.StartFleet.
// The replicas skip the top-k precompute: cluster-hit sends no top-k
// traffic, and serve-hit and serve-miss already measure that cost.
func bootFleet(viewPath string) (*target, error) {
	f, err := cluster.StartFleet(viewPath, cluster.FleetConfig{Serve: serve.Config{DisablePrecompute: true}})
	if err != nil {
		return nil, err
	}
	return &target{base: f.RouterURL, daemons: f.ReplicaURLs, fleet: f, close: f.Close}, nil
}

// httpReq is one scheduled request, encoded before the clock starts.
type httpReq struct {
	ev     *loadgen.Event
	body   []byte
	header http.Header
	key    string // requests with equal keys must get equal answers
	fresh  bool   // a FreshSeed class: a new key every time
	traced bool
}

type httpResp struct {
	status  int
	body    []byte
	replica string
	err     error
}

// traceEvery is how often a traced run sends a Trace-Id header.
const traceEvery = 64

// senders is the generator's sender count and connection bound: one per
// CPU of the machine.
func senders() int { return runtime.NumCPU() }

// newLoadClient returns the generator's client: senders() connections to
// the target, shared by the senders.
func newLoadClient() *http.Client {
	n := senders()
	return &http.Client{Transport: &http.Transport{
		MaxConnsPerHost:     n,
		MaxIdleConnsPerHost: n,
		DisableCompression:  true,
	}}
}

func send(ctx context.Context, c *http.Client, url string, r *httpReq) httpResp {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url+"/v1/rank", bytes.NewReader(r.body))
	if err != nil {
		return httpResp{err: err}
	}
	req.Header = r.header.Clone()
	resp, err := c.Do(req)
	if err != nil {
		return httpResp{err: err}
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	return httpResp{status: resp.StatusCode, body: body, replica: resp.Header.Get("X-Saphyra-Replica"), err: err}
}

// encodeRequests turns the schedule into ready-to-send requests with the
// policy headers of their class.
func encodeRequests(s *loadgen.Schedule, trace bool) ([]httpReq, error) {
	reqs := make([]httpReq, len(s.Events))
	for i := range s.Events {
		ev := &s.Events[i]
		c := s.Mix.Classes[ev.Class]
		body, err := json.Marshal(serve.RankRequest{
			Method: ev.Method, Targets: ev.Targets,
			Eps: ev.Eps, Delta: ev.Delta, K: ev.K, Seed: ev.Seed,
		})
		if err != nil {
			return nil, err
		}
		h := http.Header{"Content-Type": {"application/json"}}
		if c.ClientID != "" {
			h.Set("Client-Id", c.ClientID)
		}
		if c.DegradeMs > 0 {
			h.Set("Degrade-Ms", strconv.Itoa(c.DegradeMs))
		}
		if c.TimeoutMs > 0 {
			h.Set("Timeout-Ms", strconv.Itoa(c.TimeoutMs))
		}
		traced := trace && ev.Seq%traceEvery == 0
		if traced {
			h.Set("Trace-Id", fmt.Sprintf("http-%d", ev.Seq))
		}
		reqs[i] = httpReq{
			ev: ev, body: body, header: h, traced: traced, fresh: c.FreshSeed,
			key: fmt.Sprintf("%d/%d", ev.Class, ev.Seed),
		}
	}
	return reqs, nil
}

// runHTTP runs one open-loop workload: build the view, boot the target
// w.setups times (the median boot is setup_s), warm, replay the seeded
// schedule, then verify the answers against the library.
func runHTTP(w httpWorkload, cfg config) (*result, error) {
	res := newResult()
	host := newHostRef()
	edges, err := writeEdgeList(cfg.dir, cfg.scale)
	if err != nil {
		return nil, err
	}
	viewPath := filepath.Join(cfg.dir, "flickr.sbcv")
	lv, err := librarySetup(edges, viewPath)
	if err != nil {
		return nil, err
	}
	defer lv.view.Close()
	setSetupLayers(res, []*libView{lv})

	var tgt *target
	var boots, bootRefs []float64
	for k := range w.setups {
		t := time.Now()
		tg, err := w.boot(viewPath)
		if err != nil {
			return nil, err
		}
		boots = append(boots, time.Since(t).Seconds())
		bootRefs = append(bootRefs, host.block(refPerBlock, refBudget)...)
		if k < w.setups-1 {
			tg.close()
		} else {
			tgt = tg
		}
	}
	defer tgt.close()
	setSetup(res, boots, bootRefs, "median boot")

	sched, err := loadgen.Build(w.mix(cfg.seed, cfg.duration), lv.view.IDs(), cfg.seed)
	if err != nil {
		return nil, err
	}
	reqs, err := encodeRequests(sched, cfg.trace)
	if err != nil {
		return nil, err
	}
	ctx, cancel := context.WithTimeout(context.Background(), cfg.duration+time.Minute)
	defer cancel()
	client := newLoadClient()
	defer client.CloseIdleConnections()

	if w.hit {
		warmed := map[string]bool{}
		for i := range reqs {
			r := &reqs[i]
			if r.fresh || warmed[r.key] {
				continue
			}
			warmed[r.key] = true
			if resp := send(ctx, client, tgt.base, r); resp.err != nil || resp.status != http.StatusOK {
				return nil, fmt.Errorf("warming %s: status %d, %v", r.key, resp.status, resp.err)
			}
		}
	}

	before, err := scrapeAll(tgt)
	if err != nil {
		return nil, err
	}
	var msBefore, msAfter runtime.MemStats
	runtime.ReadMemStats(&msBefore)
	// The schedule is cut into windows with a gap of refGap before each and
	// after the last, where no request is due and the reference kernel runs.
	window := cfg.duration / windows
	m := &windowed{span: cfg.duration}
	due := make([]time.Duration, len(reqs))
	for i := range reqs {
		w := min(int(reqs[i].ev.At/window), windows-1)
		m.win = append(m.win, w)
		due[i] = reqs[i].ev.At + time.Duration(w+1)*refGap
	}
	resps := make([]httpResp, len(reqs))
	loopStart := time.Now()
	refsDone := make(chan struct{})
	go func() {
		defer close(refsDone)
		for k := range m.refs {
			time.Sleep(time.Until(loopStart.Add(time.Duration(k)*(window+refGap) + refSettle)))
			m.refs[k] = host.block(refPerBlock, refBudget)
		}
	}()
	timings, _ := openLoop(realClock{}, due, senders(), w.fromDue, func(i int) error {
		resps[i] = send(ctx, client, tgt.base, &reqs[i])
		return resps[i].err
	})
	<-refsDone
	runtime.ReadMemStats(&msAfter)
	after, err := scrapeAll(tgt)
	if err != nil {
		return nil, err
	}
	res.attempted = len(reqs)
	if backlogGrowing(timings, senders()) {
		res.invalid = "the generator's backlog grew through the run"
	}

	ok, err := verifyResponses(res, w, viewPath, reqs, resps)
	if err != nil {
		return nil, err
	}
	lat := make([]float64, len(reqs))
	var traced, plain []float64
	for i, t := range timings {
		lat[i] = float64(t.latency) / 1e6
		if ok[i] == nil {
			lat[i] = math.Inf(1)
		} else if reqs[i].traced {
			traced = append(traced, lat[i])
		} else {
			plain = append(plain, lat[i])
		}
	}
	m.ms = lat
	setEndToEnd(res, m, w.tail)
	if !cfg.trace {
		return res, nil
	}

	res.set("trace.overhead", "ratio", median(traced)/median(plain), len(traced), fmt.Sprintf("traced / untraced median, every %dth request traced", traceEvery))
	for i, r := range reqs {
		if r.traced && ok[i] != nil && ok[i].Trace != nil {
			root := &obs.SpanJSON{Name: "bench.http", DurUs: lat[i] * 1e3, Children: ok[i].Trace.Spans}
			res.spans.add(r.header.Get("Trace-Id"), []*obs.SpanJSON{root}, -1, float64(timings[i].sentAt)/1e3)
		}
	}
	setRuntimeLayers(res, &msBefore, &msAfter, len(reqs))
	setGeneratorLayers(res, timings)
	so := &servingObs{before: before, after: after, clientP50Ms: median(plain), daemons: tgt.daemons}
	setServingLayers(res, so)
	if tgt.fleet != nil {
		c, err := observeCluster(ctx, client, tgt.fleet, lv, reqs, resps, ok, lat)
		if err != nil {
			return nil, err
		}
		c.serving = so
		c.routerHops = after["router"]["saphyra_router_hops_sum"] - before["router"]["saphyra_router_hops_sum"]
		c.routerAnswers = after["router"]["saphyra_router_hops_count"] - before["router"]["saphyra_router_hops_count"]
		setClusterLayers(res, c)
	} else {
		setClusterLayers(res, nil)
	}

	// The engines run on the workload's own queries: the first distinct
	// betweenness and closeness keys of the schedule, ranked through the
	// library under a trace.
	dense := denseIDs(lv.view)
	var bcQs, clQs []saphyra.Query
	var shapes []shape
	seen := map[string]bool{}
	for i, r := range reqs {
		if seen[r.key] || ok[i] == nil || r.traced {
			continue
		}
		seen[r.key] = true
		q, err := eventQuery(r.ev, dense)
		if err != nil {
			return nil, err
		}
		switch {
		case q.Measure == saphyra.Betweenness && len(bcQs) < probeQueries:
			bcQs = append(bcQs, q)
		case q.Measure == saphyra.Closeness && len(clQs) < probeQueries:
			clQs = append(clQs, q)
		}
		if len(shapes) < 64 {
			shapes = append(shapes, shape{q: q, body: r.body, resp: ok[i]})
		}
	}
	for i, q := range slices.Concat(bcQs, clQs) {
		if _, err := rankTraced(&res.spans, fmt.Sprintf("%s-probe-%d", traceKind(q.Measure), i), lv.ranker, q); err != nil {
			return nil, err
		}
	}
	if err := probeLayers(res, lv, bcQs, clQs, shapes); err != nil {
		return nil, err
	}
	return res, nil
}

// verifyResponses decodes every answer, counts failures (transport errors,
// non-200 statuses, degraded answers, mismatches) and checks answers
// against the library: on a hit workload each distinct key once plus
// byte-equality across its answers, otherwise every 16th answer. It returns
// the decoded answer of every request that succeeded (nil for failures).
func verifyResponses(res *result, w httpWorkload, viewPath string, reqs []httpReq, resps []httpResp) ([]*serve.RankResponse, error) {
	v, err := loadgen.NewVerifier(viewPath)
	if err != nil {
		return nil, err
	}
	defer v.Close()
	ok := make([]*serve.RankResponse, len(resps))
	for i, r := range resps {
		if r.err != nil || r.status != http.StatusOK {
			continue
		}
		var d serve.RankResponse
		if json.Unmarshal(r.body, &d) != nil || d.Degraded {
			continue
		}
		ok[i] = &d
	}
	mismatch := func(i int, why string) {
		if ok[i] != nil {
			ok[i] = nil
			res.mismatches++
			if res.mismatches <= 5 {
				fmt.Fprintf(os.Stderr, "request %d (%s): %s\n", i, reqs[i].key, why)
			}
		}
	}
	if w.hit {
		first := map[string]int{}
		for i := range reqs {
			if ok[i] == nil {
				continue
			}
			j, seen := first[reqs[i].key]
			if !seen {
				first[reqs[i].key] = i
				if err := v.Check(loadgen.EventRank, ok[i]); err != nil {
					mismatch(i, err.Error())
				}
				continue
			}
			if ok[j] == nil {
				mismatch(i, "the key's first answer failed verification")
			} else if !bytes.Equal(resps[i].body, resps[j].body) && !sameAnswer(ok[i], ok[j]) {
				mismatch(i, "answer differs from the key's first answer")
			}
		}
	} else {
		for i := range reqs {
			if ok[i] != nil && reqs[i].ev.Seq%16 == 0 {
				if err := v.Check(loadgen.EventRank, ok[i]); err != nil {
					mismatch(i, err.Error())
				}
			}
		}
	}
	for i := range ok {
		if ok[i] == nil {
			res.failed++
		}
	}
	return ok, nil
}

// sameAnswer compares two answers field by field, scores by their bits,
// ignoring whether they came from the cache and any trace.
func sameAnswer(a, b *serve.RankResponse) bool {
	x, y := *a, *b
	x.Cached, y.Cached, x.Trace, y.Trace = false, false, nil, nil
	xs, ys := x.Scores, y.Scores
	x.Scores, y.Scores = nil, nil
	if len(xs) != len(ys) {
		return false
	}
	for i := range xs {
		if math.Float64bits(xs[i]) != math.Float64bits(ys[i]) {
			return false
		}
	}
	xb, _ := json.Marshal(x)
	yb, _ := json.Marshal(y)
	return bytes.Equal(xb, yb)
}

// denseIDs maps the view's original node ids to dense nodes.
func denseIDs(v *saphyra.View) map[int64]saphyra.Node {
	ids := v.IDs()
	m := make(map[int64]saphyra.Node, len(ids))
	for d, id := range ids {
		m[id] = saphyra.Node(d)
	}
	return m
}

// eventQuery is the library query a daemon builds for a scheduled request.
func eventQuery(ev *loadgen.Event, dense map[int64]saphyra.Node) (saphyra.Query, error) {
	q := saphyra.Query{K: ev.K, Epsilon: ev.Eps, Delta: ev.Delta, Seed: ev.Seed}
	switch ev.Method {
	case serve.MethodSaPHyRa:
		q.Measure = saphyra.Betweenness
	case serve.MethodKPath:
		q.Measure = saphyra.KPath
	case serve.MethodCloseness:
		q.Measure = saphyra.Closeness
	default:
		return q, fmt.Errorf("unknown method %q", ev.Method)
	}
	for _, id := range ev.Targets {
		n, ok := dense[id]
		if !ok {
			return q, fmt.Errorf("node %d not in the view", id)
		}
		q.Targets = append(q.Targets, n)
	}
	return q, nil
}

// metricsz is one /metricsz scrape: series ("name{labels}") to value.
type metricsz map[string]float64

func scrape(url string) (metricsz, error) {
	resp, err := http.Get(url + "/metricsz")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	m := metricsz{}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		if v, err := strconv.ParseFloat(line[i+1:], 64); err == nil {
			m[line[:i]] = v
		}
	}
	return m, sc.Err()
}

// scrapeAll reads /metricsz from every daemon of the target, and from the
// router of a fleet under the key "router".
func scrapeAll(t *target) (map[string]metricsz, error) {
	out := map[string]metricsz{}
	urls := slices.Clone(t.daemons)
	if t.fleet != nil {
		urls = append(urls, t.fleet.RouterURL)
	}
	for _, u := range urls {
		m, err := scrape(u)
		if err != nil {
			return nil, err
		}
		key := u
		if t.fleet != nil && u == t.fleet.RouterURL {
			key = "router"
		}
		out[key] = m
	}
	return out, nil
}

// The three open-loop traffic mixes.

// hitRate is the offered rate of the two hit workloads. Go's timers wake up
// to a millisecond late on an idle process, so at a few thousand requests
// per second the two senders queue behind their own late wake-ups and p99
// measures the generator; at 1,000/s it measures the daemon.
const hitRate = 1000

func hitMix(_ int64, d time.Duration) loadgen.Mix {
	m := loadgen.HitDominated()
	m.Name, m.Rate, m.Duration = "serve-hit", hitRate, d
	return m
}

// missRate is serve-miss's offered rate. A miss computes for ~6 ms, so the
// one P is busy ~12% of the time and the median request does not queue.
// At 50 req/s (~30% busy) a stretch of host stalls queued requests behind
// one another and the median doubled, which scaling to the host's speed
// cannot undo.
const missRate = 20

func missMix(seed int64, d time.Duration) loadgen.Mix {
	return loadgen.Mix{
		Name: "serve-miss", Rate: missRate, Duration: d,
		Classes: []loadgen.Class{{
			Name: "miss", Share: 1, Arrival: loadgen.Poisson,
			Method: serve.MethodSaPHyRa, Targets: 16, Pool: 4096,
			Eps: 0.1, Delta: 0.05, Seed: seed * 1_000_003, FreshSeed: true,
		}},
	}
}

func clusterMix(seed int64, d time.Duration) loadgen.Mix {
	m := loadgen.ClusterHitDominated()
	m.Name, m.Rate, m.Duration = "cluster-hit", hitRate, d
	m.Classes[0].Share -= coldShare
	m.Classes = append(m.Classes, loadgen.Class{
		Name: "cold", Share: coldShare, Arrival: loadgen.Poisson,
		Method: serve.MethodKPath, Targets: 8, Pool: 4096, K: 3,
		Eps: 0.1, Delta: 0.05, Seed: seed * 1_000_003, FreshSeed: true,
	})
	return m
}

// coldShare is the share of cluster-hit requests that carry a new key. It
// stays under half of the 1% beyond p99: with one P a cold computation
// holds up the hot requests around it, and a larger share put p99 on the
// cold requests' long tail, which swung 1.5-4 ms from run to run.
const coldShare = 0.005
