package main

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"regexp"
	"runtime"
	"slices"
	"strconv"
	"time"

	"saphyra"
	"saphyra/internal/bicomp"
	"saphyra/internal/cluster"
	"saphyra/internal/core"
	"saphyra/internal/serve"
)

// Per-layer metrics of the traced run. Each setter reports its whole group;
// a workload that bypasses a layer passes nil and the group reads 0.

// setRuntimeLayers reports the Go runtime's allocation and GC deltas over
// the measured window, per operation. They are process-wide: the
// generator's own allocations are included.
func setRuntimeLayers(res *result, before, after *runtime.MemStats, ops int) {
	n := float64(max(ops, 1))
	res.set("runtime.allocs_per_op", "count", float64(after.Mallocs-before.Mallocs)/n, ops, "process-wide")
	res.set("runtime.alloc_bytes_per_op", "B", float64(after.TotalAlloc-before.TotalAlloc)/n, ops, "process-wide")
	res.set("runtime.gc_cycles", "count", float64(after.NumGC-before.NumGC), ops, "")
	res.set("runtime.gc_pause_ms", "ms", float64(after.PauseTotalNs-before.PauseTotalNs)/1e6, ops, "total stop-the-world time")
}

// setGeneratorLayers reports how late the open-loop generator sent, and
// its largest backlog. A closed loop (nil) has no schedule to be late on.
func setGeneratorLayers(res *result, ts []timing) {
	var late []float64
	backlog := 0
	for _, t := range ts {
		late = append(late, float64(t.late)/1e6)
		backlog = max(backlog, t.backlog)
	}
	slices.Sort(late)
	p99 := 0.0
	if len(late) > 0 {
		p99 = quantile(late, 0.99)
	}
	res.set("gen.late_p99_ms", "ms", p99, len(late), "send time minus due time")
	res.set("gen.backlog_max", "count", float64(backlog), len(ts), "requests due but not yet sent")
}

// servingObs is what the daemons' /metricsz showed around the measured
// window.
type servingObs struct {
	before, after map[string]metricsz
	clientP50Ms   float64
	daemons       []string
}

// delta sums a series' change over the daemons.
func (o *servingObs) delta(series string) float64 {
	var d float64
	for _, u := range o.daemons {
		d += o.after[u][series] - o.before[u][series]
	}
	return d
}

func (o *servingObs) mean(hist string) float64 {
	return ratio(o.delta(hist+"_sum"), o.delta(hist+"_count"))
}

// ratio returns a/b, or 0 when b is 0: a layer the workload bypasses counts
// nothing.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// handlerQuantile is a daemon's request-time quantile for ok answers,
// averaged over the daemons weighted by their answers. The daemons read it
// from their own histograms, which span the boot-to-end window; the
// measured traffic dominates it.
func (o *servingObs) handlerQuantile(q string) float64 {
	var sum, w float64
	for _, u := range o.daemons {
		n := o.after[u][`saphyra_request_seconds_count{outcome="ok"}`]
		sum += n * o.after[u][`saphyra_request_seconds_quantile{outcome="ok",quantile="`+q+`"}`]
		w += n
	}
	return ratio(sum, w)
}

// setServingLayers reports the daemon-side layers: handler time, cache,
// admission, flights and compute. rank-session, which calls the library
// directly, passes nil.
func setServingLayers(res *result, o *servingObs) {
	if o == nil {
		o = &servingObs{}
	}
	hits := o.delta(`saphyra_cache_events_total{kind="hit"}`)
	misses := o.delta(`saphyra_cache_events_total{kind="miss"}`)
	collapsed := o.delta(`saphyra_cache_events_total{kind="collapsed"}`)
	lookups := hits + misses + collapsed
	p50, p99 := o.handlerQuantile("0.5")*1e6, o.handlerQuantile("0.99")*1e6
	transport := 0.0
	if p50 > 0 {
		transport = o.clientP50Ms*1e3 - p50
	}
	costUnits := 0.0
	for _, m := range []string{serve.MethodSaPHyRa, serve.MethodKPath, serve.MethodCloseness} {
		costUnits += o.delta(`saphyra_query_cost_sum{method="` + m + `"}`)
	}
	cache := res.spans.stats("http-", "cache")
	n := int(lookups)
	res.set("serve.handler_us.p50", "us", p50, n, "daemon request histogram, ok answers")
	res.set("serve.handler_us.p99", "us", p99, n, "daemon request histogram, ok answers")
	res.set("http.transport_us.p50", "us", transport, n, "client median minus handler median")
	res.set("serve.cache_us", "us", ratio(cache.selfUs, float64(cache.count)), cache.count, "cache span self time, traced requests")
	res.set("serve.hit_ratio", "ratio", ratio(hits, lookups), n, "")
	res.set("serve.compute_ms", "ms", o.mean("saphyra_compute_seconds")*1e3, int(o.delta("saphyra_compute_seconds_count")), "mean per computation")
	res.set("serve.queue_wait_ms", "ms", o.mean("saphyra_queue_wait_seconds")*1e3, int(o.delta("saphyra_queue_wait_seconds_count")), "mean admission wait")
	res.set("serve.flight_fanin", "count", o.mean("saphyra_flight_fanin_requests"), int(o.delta("saphyra_flight_fanin_requests_count")), "requests per computation")
	res.set("serve.evictions", "count", max(misses-o.delta("saphyra_cache_entries"), 0), int(misses), "insertions minus resident growth")
	res.set("serve.shed_frac", "ratio", ratio(o.delta(`saphyra_request_errors_total{reason="shed"}`), o.delta(`saphyra_requests_total{endpoint="rank"}`)), n, "")
	res.set("serve.cost_ns_per_unit", "ns", ratio(o.delta("saphyra_compute_seconds_sum")*1e9, costUnits), int(o.delta("saphyra_compute_seconds_count")), "compute time per admission cost unit")
}

// clusterObs is what cluster-hit measured about placement and the hop.
type clusterObs struct {
	serving                      *servingObs
	routerHops, routerAnswers    float64
	homeAnswers, answers         int
	hopUs, peerFillUs, coldP50Ms float64
	hopN, peerFillN, coldN       int
}

// observeCluster measures the cluster tier after the run: how many answers
// came from the key's home replica on the replicas' own ring, and, closed
// loop, how much the router hop and one peer probe cost.
func observeCluster(ctx context.Context, client *http.Client, f *cluster.Fleet, lv *libView, reqs []httpReq, resps []httpResp, ok []*serve.RankResponse, latMs []float64) (*clusterObs, error) {
	ring, err := cluster.NewRing(f.ReplicaURLs, 0)
	if err != nil {
		return nil, err
	}
	dense := denseIDs(lv.view)
	c := &clusterObs{}
	homeOf := map[string]int{}
	keyOf := map[string][32]byte{}
	var hot []int
	var cold []float64
	for i, r := range reqs {
		if ok[i] == nil {
			continue
		}
		if r.fresh {
			cold = append(cold, latMs[i])
		}
		home, seen := homeOf[r.key]
		if !seen {
			q, err := eventQuery(r.ev, dense)
			if err != nil {
				return nil, err
			}
			key := q.Key()
			home = ring.Owner(cluster.KeyHash(key))
			homeOf[r.key], keyOf[r.key] = home, key
			if !r.fresh {
				hot = append(hot, i)
			}
		}
		c.answers++
		if resps[i].replica == f.ReplicaURLs[home] {
			c.homeAnswers++
		}
	}
	slices.Sort(cold)
	c.coldN = len(cold)
	if len(cold) > 0 {
		c.coldP50Ms = quantile(cold, 0.5)
	}
	if len(hot) == 0 {
		return c, nil
	}

	// The hop: the same hot requests, alternately through the router and
	// straight to the replica that answered them.
	var routed, direct []float64
	for k := range 400 {
		i := hot[k%len(hot)]
		t := time.Now()
		a := send(ctx, client, f.RouterURL, &reqs[i])
		routed = append(routed, float64(time.Since(t))/1e3)
		t = time.Now()
		b := send(ctx, client, resps[i].replica, &reqs[i])
		direct = append(direct, float64(time.Since(t))/1e3)
		if a.status != http.StatusOK || b.status != http.StatusOK {
			return nil, fmt.Errorf("hop probe: statuses %d and %d", a.status, b.status)
		}
	}
	c.hopUs, c.hopN = median(routed)-median(direct), len(routed)

	// One peer probe, as a replica that is not the key's home issues it.
	gen := f.Server(0).Generation()
	var fills []float64
	for k := range 200 {
		r := reqs[hot[k%len(hot)]]
		home := homeOf[r.key]
		peers, err := cluster.NewPeers(f.ReplicaURLs, (home+1)%len(f.ReplicaURLs), 0, client, 0)
		if err != nil {
			return nil, err
		}
		t := time.Now()
		peers.Fill(ctx, gen, keyOf[r.key])
		fills = append(fills, float64(time.Since(t))/1e3)
	}
	c.peerFillUs, c.peerFillN = median(fills), len(fills)
	return c, nil
}

// setClusterLayers reports the cluster tier: the router hop, placement and
// peer fill. Workloads without a fleet pass nil.
func setClusterLayers(res *result, c *clusterObs) {
	if c == nil {
		c = &clusterObs{serving: &servingObs{}}
	}
	o := c.serving
	probes := o.delta(`saphyra_internal_cache_total{result="hit"}`) + o.delta(`saphyra_internal_cache_total{result="miss"}`)
	misses := o.delta(`saphyra_cache_events_total{kind="miss"}`)
	res.set("cluster.hops_mean", "count", ratio(c.routerHops, c.routerAnswers), int(c.routerAnswers), "replicas tried per routed request")
	res.set("cluster.home_ratio", "ratio", ratio(float64(c.homeAnswers), float64(c.answers)), c.answers, "answers from the key's home on the replicas' ring")
	res.set("cluster.peer_probes_per_miss", "ratio", ratio(probes, misses), int(misses), "peer cache probes per local miss")
	res.set("cluster.peer_fill_hit_ratio", "ratio", ratio(o.delta(`saphyra_internal_cache_total{result="hit"}`), probes), int(probes), "")
	res.set("cluster.hop_us", "us", c.hopUs, c.hopN, "routed median minus direct median, closed loop")
	res.set("cluster.peerfill_us", "us", c.peerFillUs, c.peerFillN, "Peers.Fill median, closed loop")
	res.set("cluster.cold_p50_ms", "ms", c.coldP50Ms, c.coldN, "requests with a new key")
}

// probeQueries is how many of a workload's betweenness (and closeness)
// queries the estimator probes run.
const probeQueries = 8

// shape is one distinct request of a workload in the forms the query and
// JSON layers see it.
type shape struct {
	q    saphyra.Query
	body []byte
	resp *serve.RankResponse
}

// probeLayers times, after the clock stops, the layers a workload's own
// inputs pass through: the full-network rankings a daemon precomputes, the
// engine phases of the workload's queries (from the spans already logged),
// the estimator's counts and worker speed-up, and the query and JSON codecs.
func probeLayers(res *result, lv *libView, bcQs, clQs []saphyra.Query, shapes []shape) error {
	for _, top := range []struct {
		metric string
		m      saphyra.Measure
	}{{"topk.bc_s", saphyra.Betweenness}, {"topk.closeness_s", saphyra.Closeness}, {"topk.kpath_s", saphyra.KPath}} {
		q := saphyra.Query{Measure: top.m, Epsilon: 0.05, Delta: 0.01, Seed: 1}
		t := time.Now()
		if _, err := rankTraced(&res.spans, "topk-"+traceKind(top.m), lv.ranker, q); err != nil {
			return err
		}
		res.set(top.metric, "s", time.Since(t).Seconds(), 1, "full-network Ranker.Rank at the daemon's defaults")
	}
	setEngineLayers(res)
	if err := setEstimatorLayers(res, lv.path, bcQs); err != nil {
		return err
	}
	var clSamples float64
	for _, q := range clQs {
		r, err := lv.ranker.Rank(context.Background(), q)
		if err != nil {
			return err
		}
		clSamples += float64(r.Samples)
	}
	res.set("closeness.samples", "count", clSamples/float64(max(len(clQs), 1)), len(clQs), "per closeness query")
	setCodecLayers(res, shapes)
	return nil
}

// setEngineLayers derives the engine phases from the logged spans: the
// SaPHyRa_bc phases per betweenness query, and the MS-BFS passes.
func setEngineLayers(res *result) {
	per := func(name string) (float64, int) {
		st := res.spans.stats("bc-", name)
		return st.durUs / 1e3 / float64(max(st.traces, 1)), st.traces
	}
	exact, n := per("core.exact")
	res.set("core.exact_ms", "ms", exact, n, "per SaPHyRa_bc query")
	pilot, _ := per("core.pilot")
	res.set("core.pilot_ms", "ms", pilot, n, "per SaPHyRa_bc query")
	round, _ := per("core.round")
	res.set("core.round_ms", "ms", round, n, "all rounds, per SaPHyRa_bc query")
	rounds := res.spans.stats("bc-", "core.round")
	res.set("core.ns_per_sample", "ns", rounds.durUs*1e3/max(rounds.extra, 1), int(rounds.extra), "round time per sample drawn")

	cl := res.spans.stats("cl-", "msbfs.pass")
	res.set("msbfs.passes", "count", float64(cl.count)/float64(max(cl.traces, 1)), cl.traces, "per closeness query")
	all := res.spans.stats("", "msbfs.pass")
	res.set("msbfs.pass_ms", "ms", all.durUs/1e3/float64(max(all.count, 1)), all.count, "per 64-lane pass, queries and full-network closeness")
	lanes := 0
	notes := res.spans.notes("msbfs.pass")
	for _, n := range notes {
		if m := lanesRE.FindStringSubmatch(n); m != nil {
			l, _ := strconv.Atoi(m[1])
			lanes += l
		}
	}
	res.set("msbfs.lane_fill", "ratio", float64(lanes)/float64(64*max(len(notes), 1)), len(notes), "lanes used per pass / 64")
}

var lanesRE = regexp.MustCompile(`lanes=(\d+)`)

// setEstimatorLayers runs SaPHyRa_bc directly (core.EstimateBC) on up to
// probeQueries of the workload's betweenness queries, at one worker per
// CPU and at one worker, for the estimator's counts and the worker
// speed-up. The measured runs use one P (see main); the speed-up is taken
// with all of them.
func setEstimatorLayers(res *result, viewPath string, qs []saphyra.Query) error {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(runtime.NumCPU()))
	m, err := bicomp.OpenMapped(viewPath)
	if err != nil {
		return err
	}
	defer m.Close()
	pre := core.PreprocessBCFromView(m.View)
	var samples, rounds, lambda, vc float64
	var tMany, tOne time.Duration
	for _, q := range qs {
		c := q.Canonical()
		opt := core.BCOptions{Epsilon: c.Epsilon, Delta: c.Delta, Seed: c.Seed, Workers: runtime.NumCPU()}
		t := time.Now()
		r, err := pre.EstimateBC(context.Background(), c.Targets, opt)
		if err != nil {
			return err
		}
		tMany += time.Since(t)
		opt.Workers = 1
		t = time.Now()
		if _, err := pre.EstimateBC(context.Background(), c.Targets, opt); err != nil {
			return err
		}
		tOne += time.Since(t)
		if r.Est != nil {
			samples += float64(r.Est.Samples)
			rounds += float64(r.Est.Rounds)
			lambda += r.Est.LambdaHat
			vc += float64(r.Est.VCDim)
		}
	}
	n := float64(max(len(qs), 1))
	res.set("core.samples", "count", samples/n, len(qs), "per SaPHyRa_bc query")
	res.set("core.rounds", "count", rounds/n, len(qs), "per SaPHyRa_bc query")
	res.set("core.lambda_hat", "ratio", lambda/n, len(qs), "exact-subspace mass per query")
	res.set("core.vcdim", "count", vc/n, len(qs), "per SaPHyRa_bc query")
	speedup := 0.0
	if tMany > 0 {
		speedup = float64(tOne) / float64(tMany)
	}
	res.set("sched.speedup", "ratio", speedup, len(qs), fmt.Sprintf("SaPHyRa_bc at %d workers vs 1", runtime.NumCPU()))
	return nil
}

// setCodecLayers times Query.Canonical, Query.Key and the JSON request and
// response codecs on the workload's own request shapes.
func setCodecLayers(res *result, shapes []shape) {
	var canon, key, dec, enc float64
	for _, s := range shapes {
		canon += perCallUs(func() { sinkQuery = s.q.Canonical() })
		key += perCallUs(func() { sinkKey = s.q.Key() })
		dec += perCallUs(func() {
			var r serve.RankRequest
			json.Unmarshal(s.body, &r)
			sinkReq = r
		})
		enc += perCallUs(func() { sinkBytes, _ = json.Marshal(s.resp) })
	}
	n := float64(max(len(shapes), 1))
	res.set("query.canonical_us", "us", canon/n, len(shapes), "per request shape")
	res.set("query.key_us", "us", key/n, len(shapes), "per request shape")
	res.set("json.decode_us", "us", dec/n, len(shapes), "RankRequest, per request shape")
	res.set("json.encode_us", "us", enc/n, len(shapes), "RankResponse, per request shape")
}

// Sinks keep the compiler from dropping the timed calls.
var (
	sinkQuery saphyra.Query
	sinkKey   [32]byte
	sinkReq   serve.RankRequest
	sinkBytes []byte
)

// perCallUs returns f's mean time in microseconds over at least 16 calls
// and 2 ms.
func perCallUs(f func()) float64 {
	start := time.Now()
	calls := 0
	for calls < 16 || time.Since(start) < 2*time.Millisecond {
		f()
		calls++
	}
	return float64(time.Since(start)) / 1e3 / float64(calls)
}

// rankShapes turns rank-session's first queries into the request and
// response a daemon would see for them.
func rankShapes(lv *libView, qs []saphyra.Query, rs []*saphyra.Result) []shape {
	ids := lv.view.IDs()
	var out []shape
	for i, q := range qs {
		if rs[i] == nil {
			continue
		}
		req := serve.RankRequest{Method: serve.MethodSaPHyRa, Eps: q.Epsilon, Delta: q.Delta, Seed: q.Seed}
		if q.Measure == saphyra.Closeness {
			req.Method = serve.MethodCloseness
		}
		for _, v := range q.Targets {
			req.Targets = append(req.Targets, ids[v])
		}
		body, _ := json.Marshal(req)
		resp := &serve.RankResponse{
			Generation: 1, Method: req.Method, Eps: q.Epsilon, Delta: q.Delta, Seed: q.Seed,
			Samples: rs[i].Samples, Scores: rs[i].Scores, Ranks: rs[i].Rank,
		}
		for _, v := range rs[i].Nodes {
			resp.Nodes = append(resp.Nodes, ids[v])
		}
		out = append(out, shape{q: q, body: body, resp: resp})
	}
	return out
}
