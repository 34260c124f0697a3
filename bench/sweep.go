package main

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"saphyra"
	"saphyra/internal/datasets"
)

// sweepPoint is one graph size of the sweep: its set-up layer times and,
// per worker count, the median query latencies.
type sweepPoint struct {
	Scale   float64            `json:"scale"`
	Nodes   int                `json:"nodes"`
	Edges   int64              `json:"edges"`
	SetupS  map[string]float64 `json:"setup_s"`
	Workers []sweepWorkers     `json:"workers"`
}

type sweepWorkers struct {
	Workers        int     `json:"workers"`
	BCP50Ms        float64 `json:"bc_p50_ms"`
	ClosenessP50Ms float64 `json:"closeness_p50_ms"`
}

// The sweep's fixed inputs: the Flickr stand-in scales (6,000 to 384,000
// nodes), the queries of each measure per worker count, and the seed of
// their target subsets and query seeds.
var sweepScales = []float64{1, 4, 16, 64}

const (
	sweepQueries = 8
	sweepSeed    = 1
)

// sweepMain is `bench sweep`: the Flickr stand-in at sweepScales times
// Workers 1..NumCPU, recording the set-up layers and the medians of
// sweepQueries 100-node SaPHyRa_bc and closeness queries. The curves are
// ungated; they are the data behind scaling claims.
func sweepMain(args []string) int {
	if len(args) > 0 {
		fmt.Fprintln(os.Stderr, "usage: bench sweep")
		return 2
	}
	runtime.GOMAXPROCS(runtime.NumCPU())
	out := struct {
		Stamp  stamp        `json:"stamp"`
		Points []sweepPoint `json:"points"`
	}{Stamp: newStamp(time.Now())}
	for _, scale := range sweepScales {
		p, err := sweepScale(scale)
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench sweep:", err)
			return 1
		}
		out.Points = append(out.Points, *p)
		fmt.Fprintf(os.Stderr, "bench sweep: scale %g done\n", scale)
	}
	b, err := json.MarshalIndent(out, "", "  ")
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench sweep:", err)
		return 1
	}
	fmt.Println(string(b))
	return 0
}

func sweepScale(scale float64) (*sweepPoint, error) {
	if err := os.MkdirAll(buildDir, 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(buildDir, "sweep-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	edges, err := writeEdgeList(dir, scale)
	if err != nil {
		return nil, err
	}
	lv, err := librarySetup(edges, filepath.Join(dir, "flickr.sbcv"))
	if err != nil {
		return nil, err
	}
	defer lv.view.Close()
	g := lv.view.Graph()
	p := &sweepPoint{Scale: scale, Nodes: g.NumNodes(), Edges: g.NumEdges(), SetupS: lv.layers}
	subsets := datasets.RandomSubsets(g.NumNodes(), 100, sweepQueries, sweepSeed)
	for w := 1; w <= runtime.NumCPU(); w++ {
		pw := sweepWorkers{Workers: w}
		for _, m := range []saphyra.Measure{saphyra.Betweenness, saphyra.Closeness} {
			var ms []float64
			for i, s := range subsets {
				t := time.Now()
				if _, err := lv.ranker.Rank(context.Background(), saphyra.Query{
					Measure: m, Targets: s, Epsilon: 0.05, Delta: 0.01, Seed: sweepSeed*1_000_003 + int64(i), Workers: w,
				}); err != nil {
					return nil, err
				}
				ms = append(ms, msSince(t))
			}
			if m == saphyra.Betweenness {
				pw.BCP50Ms = median(ms)
			} else {
				pw.ClosenessP50Ms = median(ms)
			}
		}
		p.Workers = append(p.Workers, pw)
	}
	runtime.GC()
	return p, nil
}
