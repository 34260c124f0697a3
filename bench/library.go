package main

import (
	"context"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"time"

	"saphyra"
	"saphyra/internal/datasets"
	"saphyra/internal/graph"
)

// config is one workload run's settings.
type config struct {
	seed     int64
	duration time.Duration // how long the measured phase runs
	trace    bool          // traced run: per-layer metrics
	// scale is the Flickr stand-in scale; the benchmark runs at
	// flickrScale, the tests at a small one.
	scale float64
	dir   string // scratch directory for the edge list and view files
}

// flickrScale is the stand-in every workload runs on: 12,000 core nodes
// plus 12,000 leaves. Larger graphs make each query more memory-bound and
// its time swing with the machine's other tenants (see README.md).
const flickrScale = 4

// writeEdgeList generates the Flickr stand-in at scale and writes it as an
// edge list, the input the library's set-up path starts from.
func writeEdgeList(dir string, scale float64) (string, error) {
	path := filepath.Join(dir, "flickr.txt")
	if err := graph.SaveEdgeList(path, datasets.Flickr.Build(scale)); err != nil {
		return "", err
	}
	return path, nil
}

// libView is a view opened for ranking, with the seconds each set-up layer
// took to produce it.
type libView struct {
	path   string
	view   *saphyra.View
	ranker *saphyra.Ranker
	layers map[string]float64
	total  float64
}

// librarySetups is how many times rank-session sets up; setup_s is the
// median. The path is short (~0.1 s) and its file write and sync vary, so
// it is repeated often.
const librarySetups = 11

// setupLayerNames are the set-up path's per-layer metrics, in call order.
var setupLayerNames = []string{"graph.load_s", "bicomp.build_s", "bicomp.write_s", "bicomp.open_s", "core.prepare_s"}

// librarySetup runs the library's set-up path once: load the edge list,
// build the view, write it to viewPath, open it, and prepare the
// betweenness and closeness engines.
func librarySetup(edgePath, viewPath string) (*libView, error) {
	lv := &libView{path: viewPath, layers: map[string]float64{}}
	start := time.Now()
	last := start
	lap := func(name string) {
		now := time.Now()
		lv.layers[name] = now.Sub(last).Seconds()
		last = now
	}
	g, ids, err := saphyra.LoadEdgeList(edgePath)
	if err != nil {
		return nil, err
	}
	lap("graph.load_s")
	v := saphyra.BuildView(g, ids)
	lap("bicomp.build_s")
	if err := v.WriteFile(viewPath); err != nil {
		return nil, err
	}
	lap("bicomp.write_s")
	if lv.view, err = saphyra.OpenView(viewPath); err != nil {
		return nil, err
	}
	lap("bicomp.open_s")
	lv.ranker = lv.view.Ranker()
	lv.ranker.Prepare(saphyra.Betweenness)
	lv.ranker.Prepare(saphyra.Closeness)
	lap("core.prepare_s")
	lv.total = time.Since(start).Seconds()
	return lv, nil
}

// setSetupLayers reports each set-up layer's median over the given runs.
func setSetupLayers(res *result, runs []*libView) {
	for _, name := range setupLayerNames {
		var v []float64
		for _, lv := range runs {
			v = append(v, lv.layers[name])
		}
		res.set(name, "s", median(v), len(v), "median over set-ups")
	}
}

// rankSessionTail is the percentile rank-session reports as tail_ms: one
// query in eight is a closeness query, some three times slower than the
// rest, so the tail above p87.5 is theirs.
const rankSessionTail = 0.9

// runRankSession is the paper's own task: one caller ranking 100-node
// random subsets of the network through the library, closed loop.
// Query i is closeness when i%8 == 7 and SaPHyRa_bc otherwise, at ε 0.05,
// δ 0.01 and the default Workers (GOMAXPROCS, one in the benchmark's runs).
// Set-up is the whole library path, run librarySetups times.
func runRankSession(cfg config) (*result, error) {
	res := newResult()
	host := newHostRef()
	edges, err := writeEdgeList(cfg.dir, cfg.scale)
	if err != nil {
		return nil, err
	}
	var setups []*libView
	var totals, setupRefs []float64
	for k := range librarySetups {
		lv, err := librarySetup(edges, filepath.Join(cfg.dir, fmt.Sprintf("flickr-%d.sbcv", k)))
		if err != nil {
			return nil, err
		}
		setups, totals = append(setups, lv), append(totals, lv.total)
		setupRefs = append(setupRefs, host.block(refPerBlock, refBudget)...)
		if k < librarySetups-1 {
			lv.view.Close()
		}
	}
	setSetup(res, totals, setupRefs, "median of load, build, write, open, prepare")
	setSetupLayers(res, setups)
	lv := setups[len(setups)-1]
	defer lv.view.Close()

	subsets := datasets.RandomSubsets(lv.view.Graph().NumNodes(), 100, 4096, cfg.seed)
	query := func(i int) saphyra.Query {
		q := saphyra.Query{
			Measure: saphyra.Betweenness,
			Targets: subsets[i%len(subsets)],
			Epsilon: 0.05, Delta: 0.01,
			Seed: cfg.seed*1_000_003 + int64(i),
		}
		if i%8 == 7 {
			q.Measure = saphyra.Closeness
		}
		return q
	}

	type done struct {
		ms     float64
		traced bool
		r      *saphyra.Result
	}
	var runs []done
	m := &windowed{closed: true}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	m.refs[0] = host.block(refPerBlock, refBudget)
	for w := range windows {
		start := time.Now()
		for time.Since(start) < cfg.duration/windows {
			i := len(runs)
			q := query(i)
			traced := cfg.trace && i%2 == 1
			t := time.Now()
			var r *saphyra.Result
			if traced {
				r, err = rankTraced(&res.spans, fmt.Sprintf("%s-%d", traceKind(q.Measure), i), lv.ranker, q)
			} else {
				r, err = lv.ranker.Rank(context.Background(), q)
			}
			d := done{ms: msSince(t), traced: traced, r: r}
			if err != nil {
				res.failed++
				d.ms = math.Inf(1)
			}
			runs = append(runs, d)
			m.add(w, d.ms)
		}
		m.refs[w+1] = host.block(refPerBlock, refBudget)
	}
	runtime.ReadMemStats(&after)
	res.attempted = len(runs)

	// Results never depend on the worker count: every 16th query is run
	// again on verifyWorkers workers and must match bit for bit.
	for i := 0; i < len(runs); i += 16 {
		if runs[i].r == nil {
			continue
		}
		q := query(i)
		q.Workers = verifyWorkers
		ref, err := lv.ranker.Rank(context.Background(), q)
		if err != nil || !sameResult(runs[i].r, ref) {
			res.mismatches++
			res.failed++
			fmt.Fprintf(os.Stderr, "rank-session: query %d differs at Workers=%d (%v)\n", i, verifyWorkers, err)
		}
	}

	var bc, cl, bcTraced, bcPlain []float64
	for i, d := range runs {
		if query(i).Measure == saphyra.Closeness {
			cl = append(cl, d.ms)
			continue
		}
		bc = append(bc, d.ms)
		if d.traced {
			bcTraced = append(bcTraced, d.ms)
		} else {
			bcPlain = append(bcPlain, d.ms)
		}
	}
	setEndToEnd(res, m, rankSessionTail)
	slices.Sort(bc)
	slices.Sort(cl)
	res.set("bc_p50_ms", "ms", quantile(bc, 0.5), len(bc), "SaPHyRa_bc queries, unscaled")
	res.set("closeness_p50_ms", "ms", quantile(cl, 0.5), len(cl), "closeness queries, unscaled")

	rho, n, err := rankQuality(cfg)
	if err != nil {
		return nil, err
	}
	res.set("bc_rho", "rho", rho, n, "mean Spearman rho against exact betweenness")
	if rho < minRho {
		res.mismatches++
		fmt.Fprintf(os.Stderr, "rank-session: mean Spearman rho %.4f below %.2f\n", rho, minRho)
	}

	if cfg.trace {
		setRuntimeLayers(res, &before, &after, len(runs))
		setGeneratorLayers(res, nil)
		setServingLayers(res, nil)
		setClusterLayers(res, nil)
		res.set("trace.overhead", "ratio", median(bcTraced)/median(bcPlain), len(bcTraced), "traced / untraced SaPHyRa_bc median")
		var qs, bcQs, clQs []saphyra.Query
		var rs []*saphyra.Result
		for i := range min(len(runs), 64) {
			q := query(i)
			qs, rs = append(qs, q), append(rs, runs[i].r)
			switch {
			case q.Measure == saphyra.Betweenness && len(bcQs) < probeQueries:
				bcQs = append(bcQs, q)
			case q.Measure == saphyra.Closeness && len(clQs) < probeQueries:
				clQs = append(clQs, q)
			}
		}
		if err := probeLayers(res, lv, bcQs, clQs, rankShapes(lv, qs, rs)); err != nil {
			return nil, err
		}
	}
	return res, nil
}

// verifyWorkers is the worker count rank-session's queries are checked at.
// The measured queries run on the default, one worker per P, which is one
// in the benchmark; three splits the sampler's 16 virtual streams unevenly
// over goroutines, so a result that depended on the split would differ.
const verifyWorkers = 3

// minRho is the least mean Spearman rho against exact betweenness a
// rank-session run accepts: the estimator reaches ~0.98 on this stand-in,
// so a value below 0.95 means wrong scores, which the bitwise checks
// (comparing the program with itself) cannot see.
const minRho = 0.95

// rankQuality ranks 20 seeded 100-node subsets of the stand-in at a
// quarter of the workload's scale (6,000 nodes in the benchmark) with SaPHyRa_bc at
// ε 0.05, δ 0.01 and returns the mean Spearman rho against exact
// betweenness. It is untimed.
func rankQuality(cfg config) (float64, int, error) {
	g := datasets.Flickr.Build(cfg.scale / flickrScale)
	exact := saphyra.ExactBC(g, 0)
	r := saphyra.NewRanker(g)
	subsets := datasets.RandomSubsets(g.NumNodes(), 100, 20, cfg.seed)
	var sum float64
	for i, s := range subsets {
		res, err := r.Rank(context.Background(), saphyra.Query{
			Targets: s, Epsilon: 0.05, Delta: 0.01, Seed: cfg.seed*1_000_003 + int64(i),
		})
		if err != nil {
			return 0, 0, err
		}
		truth := make([]float64, len(res.Nodes))
		ids := make([]int32, len(res.Nodes))
		for j, v := range res.Nodes {
			truth[j], ids[j] = exact[v], int32(v)
		}
		sum += saphyra.Spearman(truth, res.Scores, ids)
	}
	return sum / float64(len(subsets)), len(subsets), nil
}

// sameResult reports whether two results are bitwise identical.
func sameResult(a, b *saphyra.Result) bool {
	if !slices.Equal(a.Nodes, b.Nodes) || !slices.Equal(a.Rank, b.Rank) || len(a.Scores) != len(b.Scores) {
		return false
	}
	for i := range a.Scores {
		if math.Float64bits(a.Scores[i]) != math.Float64bits(b.Scores[i]) {
			return false
		}
	}
	return true
}

// traceKind is the trace-id prefix the engine metrics group traces by.
func traceKind(m saphyra.Measure) string {
	switch m {
	case saphyra.Betweenness:
		return "bc"
	case saphyra.Closeness:
		return "cl"
	}
	return "kp"
}

func msSince(t time.Time) float64 { return float64(time.Since(t)) / 1e6 }
