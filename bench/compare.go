package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"slices"
	"text/tabwriter"
)

// Verdicts of the comparer, for one end-to-end metric on one workload.
const (
	verdictGain       = "gain"
	verdictRegression = "regression"
	verdictUnresolved = "unresolved"
	verdictSame       = "same"
)

// comparison is the comparer's finding for one metric on one workload.
type comparison struct {
	Metric   string     `json:"metric"`
	Workload string     `json:"workload"`
	Unit     string     `json:"unit"`
	Base     [3]float64 `json:"base_quartiles"`
	Change   [3]float64 `json:"change_quartiles"`
	BaseN    int        `json:"base_n"`
	ChangeN  int        `json:"change_n"`
	// Pairs are base run i against change run i, in the order given;
	// ChangeWins and BaseWins count the pairs each side reads better in,
	// ties counting for neither.
	Pairs      int    `json:"pairs"`
	ChangeWins int    `json:"change_wins"`
	BaseWins   int    `json:"base_wins"`
	Verdict    string `json:"verdict"`
	// RawWorse marks a regression found in the unscaled values (raw.*): the
	// change read worse by more than the bound in every pair.
	RawWorse bool `json:"raw_worse_every_pair,omitempty"`
}

// compareRuns applies the decision rule to every end-to-end metric of
// every workload present on both sides. Traced records are ignored: their
// numbers carry the tracing overhead.
//
//   - regression: a change run lacks the metric or its value is not finite
//     (an operation failed past the percentile); or the change's median is
//     worse than the parent's by more than the metric's bound (a share of
//     the parent's median); or the metric's unscaled value (raw.<name>) is
//     worse by more than the bound in every pair, so that scaling to the
//     host's speed cannot hide a consistent regression;
//   - unresolved: a parent run lacks the metric or its value is not finite;
//   - gain: the change wins at least 9/10 of the pairs and the medians
//     differ, in the change's favour, by more than the parent's
//     interquartile distance;
//   - unresolved: otherwise, when either side's spread (interquartile
//     distance over median) exceeds the bound, unless every change run
//     reads better than every parent run;
//   - same: otherwise.
func compareRuns(sp *spec, base, change []record) []comparison {
	var out []comparison
	for _, w := range sp.Workloads {
		b, c := untraced(base, w.Name), untraced(change, w.Name)
		if len(b) == 0 || len(c) == 0 {
			continue
		}
		for _, m := range sp.EndToEnd {
			r := compareMetric(m, w.Name, values(b, m.Name), values(c, m.Name))
			if r.Verdict != verdictRegression && worseEveryPair(m, values(b, "raw."+m.Name), values(c, "raw."+m.Name)) {
				r.Verdict, r.RawWorse = verdictRegression, true
			}
			out = append(out, r)
		}
	}
	return out
}

// worseEveryPair reports whether the change reads worse than the parent by
// more than m's bound in every pair of b and c, all of them finite.
func worseEveryPair(m specMetric, b, c []float64) bool {
	pairs := min(len(b), len(c))
	if pairs == 0 {
		return false
	}
	for i := range pairs {
		if notFinite(b[i]) || notFinite(c[i]) || worseBy(m, b[i], c[i]) <= bound(m) {
			return false
		}
	}
	return true
}

// worseBy is how much worse y reads than x, as a share of x.
func worseBy(m specMetric, x, y float64) float64 {
	w := (y - x) / math.Abs(x)
	if m.Better == "higher" {
		return -w
	}
	return w
}

func bound(m specMetric) float64 {
	if m.Bound == nil {
		return 0
	}
	return *m.Bound
}

func notFinite(v float64) bool { return !num(v).finite() }

func compareMetric(m specMetric, workload string, b, c []float64) comparison {
	// better reports whether x reads better than y.
	better := func(x, y float64) bool {
		if m.Better == "higher" {
			return x > y
		}
		return x < y
	}
	r := comparison{
		Metric: m.Name, Workload: workload, Unit: m.Unit,
		Base: quartiles(b), Change: quartiles(c), BaseN: len(b), ChangeN: len(c),
		Pairs: min(len(b), len(c)),
	}
	for i := range r.Pairs {
		switch {
		case better(c[i], b[i]):
			r.ChangeWins++
		case better(b[i], c[i]):
			r.BaseWins++
		}
	}
	switch {
	case slices.ContainsFunc(c, notFinite):
		r.Verdict = verdictRegression
		return r
	case slices.ContainsFunc(b, notFinite):
		r.Verdict = verdictUnresolved
		return r
	}
	bm, cm := median(b), median(c)
	allBetter := better(slices.Max(c), slices.Min(b))
	if m.Better == "higher" {
		allBetter = better(slices.Min(c), slices.Max(b))
	}
	switch {
	case worseBy(m, bm, cm) > bound(m):
		r.Verdict = verdictRegression
	case better(cm, bm) && 10*r.ChangeWins >= 9*r.Pairs && math.Abs(cm-bm) > r.Base[2]-r.Base[0]:
		r.Verdict = verdictGain
	case (spread(b) > bound(m) || spread(c) > bound(m)) && !allBetter:
		r.Verdict = verdictUnresolved
	default:
		r.Verdict = verdictSame
	}
	return r
}

func untraced(recs []record, workload string) []record {
	var out []record
	for _, r := range recs {
		if r.Workload == workload && !r.Trace {
			out = append(out, r)
		}
	}
	return out
}

// values returns the metric's value in each record, NaN where a record
// lacks it, so that run i of a side stays at index i.
func values(recs []record, metric string) []float64 {
	out := make([]float64, len(recs))
	for i, r := range recs {
		out[i] = math.NaN()
		if v, ok := r.Metrics[metric]; ok {
			out[i] = float64(v.Value)
		}
	}
	return out
}

// failFrac is the share of attempted operations that failed, over records.
func failFrac(recs []record) float64 {
	var failed, attempted int
	for _, r := range recs {
		failed += r.Failed
		attempted += r.Attempted
	}
	return ratio(float64(failed), float64(attempted))
}

func readRecords(paths []string) ([]record, error) {
	var out []record
	for _, p := range paths {
		f, err := os.Open(p)
		if err != nil {
			return nil, err
		}
		sc := bufio.NewScanner(f)
		sc.Buffer(make([]byte, 1<<20), 16<<20)
		for sc.Scan() {
			var r record
			if len(sc.Bytes()) == 0 {
				continue
			}
			if err := json.Unmarshal(sc.Bytes(), &r); err != nil || r.Schema != recordSchema {
				f.Close()
				return nil, fmt.Errorf("%s: not a run record (%v)", p, err)
			}
			out = append(out, r)
		}
		f.Close()
		if err := sc.Err(); err != nil {
			return nil, fmt.Errorf("%s: %w", p, err)
		}
	}
	return out, nil
}

// compareMain is `bench compare -base <records…> -change <records…>`. With
// no -change it prints the medians and quartiles of the -base records. It
// exits 1 on a regression, an incorrect change run or a rise in the share
// of failed operations.
func compareMain(args []string) int {
	var basePaths, changePaths []string
	cur := &basePaths
	for _, a := range args {
		switch a {
		case "-base", "--base":
			cur = &basePaths
		case "-change", "--change":
			cur = &changePaths
		default:
			*cur = append(*cur, a)
		}
	}
	sp, err := loadSpec(specFile)
	if err == nil && len(basePaths) == 0 {
		err = fmt.Errorf("usage: compare -base <records…> [-change <records…>]")
	}
	var base, change []record
	if err == nil {
		base, err = readRecords(basePaths)
	}
	if err == nil {
		change, err = readRecords(changePaths)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench compare:", err)
		return 2
	}
	if len(changePaths) == 0 {
		return summarize(os.Stdout, sp, base)
	}

	tw := tabwriter.NewWriter(os.Stdout, 0, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tunit\tbase median [q1, q3]\tchange median [q1, q3]\twins change/base\tverdict")
	status := 0
	for _, r := range compareRuns(sp, base, change) {
		verdict := r.Verdict
		if r.RawWorse {
			verdict += " (unscaled, every pair)"
		}
		fmt.Fprintf(tw, "%s\t%s\t%s\t%.5g [%.5g, %.5g]\t%.5g [%.5g, %.5g]\t%d/%d of %d\t%s\n",
			r.Workload, r.Metric, r.Unit, r.Base[1], r.Base[0], r.Base[2],
			r.Change[1], r.Change[0], r.Change[2], r.ChangeWins, r.BaseWins, r.Pairs, verdict)
		if r.Verdict == verdictRegression {
			status = 1
		}
	}
	tw.Flush()
	for _, w := range sp.Workloads {
		b, c := untraced(base, w.Name), untraced(change, w.Name)
		if len(b) == 0 || len(c) == 0 {
			continue
		}
		bf, cf := failFrac(b), failFrac(c)
		fmt.Printf("%s fail_frac base %.6g change %.6g\n", w.Name, bf, cf)
		if cf > bf {
			fmt.Printf("%s: the share of failed operations rose\n", w.Name)
			status = 1
		}
		for _, r := range c {
			if !r.Correct {
				fmt.Printf("%s: change run with seed %d is incorrect (%s)\n", w.Name, r.Seed, r.Invalid)
				status = 1
			}
		}
	}
	return status
}

// summary is the medians and quartiles of a set of runs: the baseline form.
type summary struct {
	Stamp   stamp                                  `json:"stamp"`
	Runs    int                                    `json:"runs"`
	Metrics map[string]map[string]summarizedMetric `json:"metrics"` // workload -> metric
}

type summarizedMetric struct {
	Unit      string     `json:"unit"`
	Quartiles [3]float64 `json:"quartiles"`
	Spread    float64    `json:"spread"`
	N         int        `json:"n"`
}

// summarize prints the summary of recs: untraced runs give the end-to-end
// metrics, traced runs the per-layer ones. A value that is not finite makes
// it fail rather than enter a baseline.
func summarize(w io.Writer, sp *spec, recs []record) int {
	s := summary{Runs: len(recs), Metrics: map[string]map[string]summarizedMetric{}}
	if len(recs) > 0 {
		s.Stamp = recs[0].Stamp
	}
	groups := []struct {
		trace   bool
		metrics []specMetric
	}{{false, sp.EndToEnd}, {true, sp.PerLayer}}
	for _, wl := range sp.Workloads {
		ms := map[string]summarizedMetric{}
		for _, g := range groups {
			for _, m := range g.metrics {
				var v []float64
				for _, r := range recs {
					mv, ok := r.Metrics[m.Name]
					if !ok || r.Workload != wl.Name || r.Trace != g.trace {
						continue
					}
					if !mv.Value.finite() {
						fmt.Fprintf(os.Stderr, "bench compare: %s seed %d: %s is not finite\n", wl.Name, r.Seed, m.Name)
						return 1
					}
					v = append(v, float64(mv.Value))
				}
				if len(v) == 0 {
					continue
				}
				sm := summarizedMetric{Unit: m.Unit, Quartiles: quartiles(v), Spread: spread(v), N: len(v)}
				if math.IsNaN(sm.Spread) || math.IsInf(sm.Spread, 0) {
					sm.Spread = 0
				}
				ms[m.Name] = sm
			}
		}
		if len(ms) > 0 {
			s.Metrics[wl.Name] = ms
		}
	}
	b, err := json.MarshalIndent(s, "", "  ")
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench compare:", err)
		return 1
	}
	fmt.Fprintln(w, string(b))
	return 0
}
