// Package workload contains the experiment drivers that regenerate every
// table and figure of the paper's evaluation (Section V). cmd/experiments
// and the repository's benchmark harness both run these.
package workload

import (
	"context"
	"fmt"
	"io"
	"math"
	"sort"
	"time"

	"saphyra/internal/baselines"
	"saphyra/internal/core"
	"saphyra/internal/datasets"
	"saphyra/internal/exact"
	"saphyra/internal/graph"
	"saphyra/internal/rank"
	"saphyra/internal/vc"
)

// Algo identifies one of the compared algorithms.
type Algo string

// The four algorithms of Figs 3-6 (Fig 7 drops ABRA, as in the paper).
const (
	AlgoABRA        Algo = "ABRA"
	AlgoKADABRA     Algo = "KADABRA"
	AlgoSaPHyRaFull Algo = "SaPHyRa-full"
	AlgoSaPHyRa     Algo = "SaPHyRa"
)

// Config bundles the common experiment knobs.
type Config struct {
	Epsilon float64
	Delta   float64
	Workers int
	Seed    int64
	// MaxSamples optionally caps per-run sampling so CI-sized runs stay
	// bounded; 0 = faithful (eps, delta) budgets.
	MaxSamples int64
}

// Bench is one algorithm run on one subset: wall time, rank quality versus
// the exact ground truth, and the per-node estimates.
type Bench struct {
	Algo     Algo
	Duration time.Duration
	Rho      float64 // Spearman rank correlation vs ground truth
	Samples  int64
	Subset   []graph.Node
	Est      []float64 // aligned with Subset
}

// Env is a prepared network: graph, preprocessing, and exact ground truth.
type Env struct {
	Name  string
	G     *graph.Graph
	Prep  *core.BCPreprocessed
	Truth []float64
}

// NewEnv builds the environment for a network stand-in, computing exact
// betweenness with parallel Brandes (the ground-truth substitution for the
// paper's supercomputer runs).
func NewEnv(net datasets.Network, scale float64, workers int) *Env {
	g := net.Build(scale)
	return &Env{
		Name:  net.Name,
		G:     g,
		Prep:  core.PreprocessBC(g),
		Truth: exact.BCParallel(g, workers),
	}
}

// NewEnvFromGraph wraps an existing graph (used by tests and examples).
func NewEnvFromGraph(name string, g *graph.Graph, workers int) *Env {
	return &Env{
		Name:  name,
		G:     g,
		Prep:  core.PreprocessBC(g),
		Truth: exact.BCParallel(g, workers),
	}
}

func (e *Env) truthFor(subset []graph.Node) ([]float64, []int32) {
	t := make([]float64, len(subset))
	ids := make([]int32, len(subset))
	for i, v := range subset {
		t[i] = e.Truth[v]
		ids[i] = int32(v)
	}
	return t, ids
}

// RunOne executes a single algorithm on one subset and scores it.
func (e *Env) RunOne(algo Algo, subset []graph.Node, cfg Config) (Bench, error) {
	truth, ids := e.truthFor(subset)
	b := Bench{Algo: algo, Subset: subset}
	start := time.Now()
	switch algo {
	case AlgoABRA, AlgoKADABRA:
		var res *baselines.Result
		var err error
		opt := baselines.Options{
			Epsilon: cfg.Epsilon, Delta: cfg.Delta,
			Workers: cfg.Workers, Seed: cfg.Seed, MaxSamples: cfg.MaxSamples,
		}
		if algo == AlgoABRA {
			res, err = baselines.ABRA(context.Background(), e.G, opt)
		} else {
			res, err = baselines.KADABRA(context.Background(), e.G, opt)
		}
		if err != nil {
			return b, err
		}
		b.Duration = time.Since(start)
		b.Samples = res.Samples
		b.Est = make([]float64, len(subset))
		for i, v := range subset {
			b.Est[i] = res.BC[v]
		}
	case AlgoSaPHyRa, AlgoSaPHyRaFull:
		target := subset
		if algo == AlgoSaPHyRaFull {
			target = make([]graph.Node, e.G.NumNodes())
			for i := range target {
				target[i] = graph.Node(i)
			}
		}
		res, err := e.Prep.EstimateBC(context.Background(), target, core.BCOptions{
			Epsilon: cfg.Epsilon, Delta: cfg.Delta,
			Workers: cfg.Workers, Seed: cfg.Seed, MaxSamples: cfg.MaxSamples,
		})
		if err != nil {
			return b, err
		}
		b.Duration = time.Since(start)
		if res.Est != nil {
			b.Samples = res.Est.Samples
		}
		b.Est = make([]float64, len(subset))
		pos := make(map[graph.Node]int, len(res.Nodes))
		for i, v := range res.Nodes {
			pos[v] = i
		}
		for i, v := range subset {
			b.Est[i] = res.BC[pos[v]]
		}
	default:
		return b, fmt.Errorf("workload: unknown algorithm %q", algo)
	}
	b.Rho = rank.Spearman(truth, b.Est, ids)
	return b, nil
}

// Series is an aggregated (mean, min, max) measurement over several subsets,
// matching the paper's shaded confidence bands.
type Series struct {
	MeanTime              time.Duration
	MeanRho, LoRho, HiRho float64
	MeanSamples           int64
}

// Aggregate folds per-subset Bench results into a Series.
func Aggregate(bs []Bench) Series {
	if len(bs) == 0 {
		return Series{}
	}
	s := Series{LoRho: math.Inf(1), HiRho: math.Inf(-1)}
	var t time.Duration
	var samples int64
	for _, b := range bs {
		t += b.Duration
		samples += b.Samples
		s.MeanRho += b.Rho
		if b.Rho < s.LoRho {
			s.LoRho = b.Rho
		}
		if b.Rho > s.HiRho {
			s.HiRho = b.Rho
		}
	}
	s.MeanTime = t / time.Duration(len(bs))
	s.MeanSamples = samples / int64(len(bs))
	s.MeanRho /= float64(len(bs))
	return s
}

// Fig3And4Row is one (network, epsilon, algorithm) cell of Figs 3 and 4.
type Fig3And4Row struct {
	Network string
	Epsilon float64
	Algo    Algo
	Series
}

// Fig3And4 sweeps epsilon for all four algorithms (Fig 3: running time,
// Fig 4: rank correlation). Baselines estimate the full network once per
// epsilon and are scored against every subset, mirroring the paper's setup.
func Fig3And4(e *Env, epsilons []float64, subsets [][]graph.Node, cfg Config) ([]Fig3And4Row, error) {
	var rows []Fig3And4Row
	for _, eps := range epsilons {
		c := cfg
		c.Epsilon = eps
		for _, algo := range []Algo{AlgoABRA, AlgoKADABRA, AlgoSaPHyRaFull, AlgoSaPHyRa} {
			var bs []Bench
			switch algo {
			case AlgoSaPHyRa:
				// subset-personalized: one run per subset
				for i, sub := range subsets {
					cc := c
					cc.Seed = c.Seed + int64(i)
					b, err := e.RunOne(algo, sub, cc)
					if err != nil {
						return nil, err
					}
					bs = append(bs, b)
				}
			default:
				// Whole-network estimators run once per epsilon; every
				// subset is scored against the same estimate (the paper's
				// point: baselines cannot restrict work to the subset).
				full, err := e.fullEstimate(algo, c)
				if err != nil {
					return nil, err
				}
				for _, sub := range subsets {
					truth, ids := e.truthFor(sub)
					est := make([]float64, len(sub))
					for i, v := range sub {
						est[i] = full.values[v]
					}
					bs = append(bs, Bench{
						Algo:     algo,
						Duration: full.dur,
						Samples:  full.samples,
						Subset:   sub,
						Est:      est,
						Rho:      rank.Spearman(truth, est, ids),
					})
				}
			}
			rows = append(rows, Fig3And4Row{Network: e.Name, Epsilon: eps, Algo: algo, Series: Aggregate(bs)})
		}
	}
	return rows, nil
}

type fullRun struct {
	values  []float64
	dur     time.Duration
	samples int64
}

// fullEstimate runs a whole-network algorithm once and returns per-node
// estimates.
func (e *Env) fullEstimate(algo Algo, cfg Config) (*fullRun, error) {
	start := time.Now()
	switch algo {
	case AlgoABRA, AlgoKADABRA:
		opt := baselines.Options{
			Epsilon: cfg.Epsilon, Delta: cfg.Delta,
			Workers: cfg.Workers, Seed: cfg.Seed, MaxSamples: cfg.MaxSamples,
		}
		var res *baselines.Result
		var err error
		if algo == AlgoABRA {
			res, err = baselines.ABRA(context.Background(), e.G, opt)
		} else {
			res, err = baselines.KADABRA(context.Background(), e.G, opt)
		}
		if err != nil {
			return nil, err
		}
		return &fullRun{values: res.BC, dur: time.Since(start), samples: res.Samples}, nil
	case AlgoSaPHyRaFull:
		all := make([]graph.Node, e.G.NumNodes())
		for i := range all {
			all[i] = graph.Node(i)
		}
		res, err := e.Prep.EstimateBC(context.Background(), all, core.BCOptions{
			Epsilon: cfg.Epsilon, Delta: cfg.Delta,
			Workers: cfg.Workers, Seed: cfg.Seed, MaxSamples: cfg.MaxSamples,
		})
		if err != nil {
			return nil, err
		}
		values := make([]float64, e.G.NumNodes())
		for i, v := range res.Nodes {
			values[v] = res.BC[i]
		}
		var samples int64
		if res.Est != nil {
			samples = res.Est.Samples
		}
		return &fullRun{values: values, dur: time.Since(start), samples: samples}, nil
	}
	return nil, fmt.Errorf("workload: %q is not a whole-network algorithm", algo)
}

// Fig5Row is one (subset size, algorithm) cell of Fig 5.
type Fig5Row struct {
	Network string
	Size    int
	Algo    Algo
	Series
}

// Fig5 fixes epsilon and sweeps the subset size.
func Fig5(e *Env, sizes []int, perSize int, cfg Config) ([]Fig5Row, error) {
	var rows []Fig5Row
	fulls := map[Algo]*fullRun{}
	for _, algo := range []Algo{AlgoABRA, AlgoKADABRA, AlgoSaPHyRaFull} {
		fr, err := e.fullEstimate(algo, cfg)
		if err != nil {
			return nil, err
		}
		fulls[algo] = fr
	}
	for _, size := range sizes {
		subsets := datasets.RandomSubsets(e.G.NumNodes(), size, perSize, cfg.Seed+int64(size))
		for algo, fr := range fulls {
			var bs []Bench
			for _, sub := range subsets {
				truth, ids := e.truthFor(sub)
				est := make([]float64, len(sub))
				for i, v := range sub {
					est[i] = fr.values[v]
				}
				bs = append(bs, Bench{Algo: algo, Duration: fr.dur, Samples: fr.samples,
					Subset: sub, Est: est, Rho: rank.Spearman(truth, est, ids)})
			}
			rows = append(rows, Fig5Row{Network: e.Name, Size: size, Algo: algo, Series: Aggregate(bs)})
		}
		var bs []Bench
		for i, sub := range subsets {
			c := cfg
			c.Seed = cfg.Seed + int64(i)
			b, err := e.RunOne(AlgoSaPHyRa, sub, c)
			if err != nil {
				return nil, err
			}
			bs = append(bs, b)
		}
		rows = append(rows, Fig5Row{Network: e.Name, Size: size, Algo: AlgoSaPHyRa, Series: Aggregate(bs)})
	}
	sort.SliceStable(rows, func(i, j int) bool { return rows[i].Size < rows[j].Size })
	return rows, nil
}

// Fig6Row is one algorithm's signed relative-error summary (Fig 6).
type Fig6Row struct {
	Network string
	Algo    Algo
	Summary *rank.ErrorSummary
}

// Fig6 builds the relative-error histograms at fixed epsilon and subset
// size, pooled over the subsets.
func Fig6(e *Env, subsets [][]graph.Node, cfg Config) ([]Fig6Row, error) {
	var rows []Fig6Row
	for _, algo := range []Algo{AlgoABRA, AlgoKADABRA, AlgoSaPHyRaFull} {
		fr, err := e.fullEstimate(algo, cfg)
		if err != nil {
			return nil, err
		}
		sum := rank.NewErrorSummary(25)
		for _, sub := range subsets {
			for _, v := range sub {
				sum.Add(e.Truth[v], fr.values[v])
			}
		}
		rows = append(rows, Fig6Row{Network: e.Name, Algo: algo, Summary: sum})
	}
	sum := rank.NewErrorSummary(25)
	for i, sub := range subsets {
		c := cfg
		c.Seed = cfg.Seed + int64(i)
		b, err := e.RunOne(AlgoSaPHyRa, sub, c)
		if err != nil {
			return nil, err
		}
		for j, v := range sub {
			sum.Add(e.Truth[v], b.Est[j])
		}
	}
	rows = append(rows, Fig6Row{Network: e.Name, Algo: AlgoSaPHyRa, Summary: sum})
	return rows, nil
}

// Fig7Row is one (area, algorithm) cell of the USA-road case study.
type Fig7Row struct {
	Area      string
	AreaSize  int
	Algo      Algo
	Duration  time.Duration
	Rho       float64
	Deviation float64 // average rank deviation (Fig 7a), fraction of k
}

// Fig7 runs KADABRA, SaPHyRa-full and SaPHyRa on each road area.
func Fig7(e *Env, areas []datasets.NamedSubset, cfg Config) ([]Fig7Row, error) {
	var rows []Fig7Row
	fulls := map[Algo]*fullRun{}
	for _, algo := range []Algo{AlgoKADABRA, AlgoSaPHyRaFull} {
		fr, err := e.fullEstimate(algo, cfg)
		if err != nil {
			return nil, err
		}
		fulls[algo] = fr
	}
	for _, area := range areas {
		truth, ids := e.truthFor(area.Nodes)
		for _, algo := range []Algo{AlgoKADABRA, AlgoSaPHyRaFull} {
			fr := fulls[algo]
			est := make([]float64, len(area.Nodes))
			for i, v := range area.Nodes {
				est[i] = fr.values[v]
			}
			rows = append(rows, Fig7Row{
				Area: area.Name, AreaSize: len(area.Nodes), Algo: algo,
				Duration:  fr.dur,
				Rho:       rank.Spearman(truth, est, ids),
				Deviation: rank.Deviation(truth, est, ids),
			})
		}
		b, err := e.RunOne(AlgoSaPHyRa, area.Nodes, cfg)
		if err != nil {
			return nil, err
		}
		rows = append(rows, Fig7Row{
			Area: area.Name, AreaSize: len(area.Nodes), Algo: AlgoSaPHyRa,
			Duration:  b.Duration,
			Rho:       b.Rho,
			Deviation: rank.Deviation(truth, b.Est, ids),
		})
	}
	return rows, nil
}

// Table1Row is one network's VC-dimension bound comparison (Table I).
type Table1Row struct {
	Network       string
	RiondatoFull  int
	SaPHyRaFull   int
	SaPHyRaSubset int
	SaPHyRaLHop   int
	L             int
}

// Table1 computes the bound comparison for a random subset and an l-hop
// subset on the given environment.
func Table1(e *Env, subset []graph.Node, l int) Table1Row {
	d := e.Prep.D
	row := vc.TableI(d, subset, graph.DiameterUpperBound(e.G))
	lhop := vc.LHop(l)
	if lhop > row.SaPHyRaFull {
		lhop = row.SaPHyRaFull
	}
	return Table1Row{
		Network:       e.Name,
		RiondatoFull:  row.RiondatoFull,
		SaPHyRaFull:   row.SaPHyRaFull,
		SaPHyRaSubset: row.SaPHyRaSubset,
		SaPHyRaLHop:   lhop,
		L:             l,
	}
}

// Table2Row summarizes one network stand-in against the paper's Table II.
type Table2Row struct {
	Network    string
	Nodes      int
	Edges      int64
	DiameterLB int32
	PaperNodes string
	PaperEdges string
	PaperDiam  int
	Blocks     int
	Cutpoints  int
}

// Table2 builds the networks-summary row (Table II) for an environment.
func Table2(e *Env, net datasets.Network) Table2Row {
	dec := e.Prep.D
	return Table2Row{
		Network:    e.Name,
		Nodes:      e.G.NumNodes(),
		Edges:      e.G.NumEdges(),
		DiameterLB: graph.ApproxDiameter(e.G, 4, 17),
		PaperNodes: net.PaperNodes,
		PaperEdges: net.PaperEdges,
		PaperDiam:  net.PaperDiam,
		Blocks:     dec.NumBlocks,
		Cutpoints:  len(dec.Cutpoints()),
	}
}

// WriteTSV writes rows of tab-separated values with a header, a trivial
// shared formatting helper for the CLI and EXPERIMENTS.md generation.
func WriteTSV(w io.Writer, header []string, rows [][]string) error {
	for i, h := range header {
		if i > 0 {
			if _, err := fmt.Fprint(w, "\t"); err != nil {
				return err
			}
		}
		if _, err := fmt.Fprint(w, h); err != nil {
			return err
		}
	}
	if _, err := fmt.Fprintln(w); err != nil {
		return err
	}
	for _, row := range rows {
		for i, cell := range row {
			if i > 0 {
				if _, err := fmt.Fprint(w, "\t"); err != nil {
					return err
				}
			}
			if _, err := fmt.Fprint(w, cell); err != nil {
				return err
			}
		}
		if _, err := fmt.Fprintln(w); err != nil {
			return err
		}
	}
	return nil
}
