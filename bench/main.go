// Command bench is the repository benchmark. It runs four seeded workloads
// on the Flickr stand-in (datasets.Flickr at scale 4: 24,000 nodes)
// through the library, the daemon and the cluster tier,
// checks every answer, prints each metric by name with its unit and sample
// count, and ends with one JSON result line. README.md describes the
// workloads and metrics.
//
// Run it from the repository root through bench/run.sh, which builds it:
//
//	bash bench/run.sh --workload serve-hit --seed 1 --seconds 15 --trace 0
//	bash bench/run.sh --trace 1                    # all four, per-layer metrics
//	bash bench/run.sh compare -base a.jsonl -change b.jsonl
//	bash bench/run.sh sweep
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"saphyra/internal/serve"
)

// workload is one named workload of BENCHMARK.json.
type workload struct {
	name string
	run  func(config) (*result, error)
}

// missCacheEntries bounds serve-miss's result cache so that LRU eviction,
// part of the miss path, runs within a 20 s run.
const missCacheEntries = 256

var workloads = []workload{
	{"rank-session", runRankSession},
	{"serve-hit", httpRunner(httpWorkload{mix: hitMix, boot: bootDaemon(serve.Config{}), hit: true, tail: 0.99, setups: 5})},
	{"serve-miss", httpRunner(httpWorkload{mix: missMix, boot: bootDaemon(serve.Config{CacheEntries: missCacheEntries}), tail: 0.95, setups: 5, fromDue: true})},
	{"cluster-hit", httpRunner(httpWorkload{mix: clusterMix, boot: bootFleet, hit: true, tail: 0.99, setups: 11})},
}

func httpRunner(w httpWorkload) func(config) (*result, error) {
	return func(cfg config) (*result, error) { return runHTTP(w, cfg) }
}

func main() {
	// Workload runs use one P. The host disturbs the two vCPUs of the
	// reference machine independently, so work split across them waits on
	// the slower one: on two Ps run-to-run timings swing by ±20-25%, on one
	// by ±2-9% (README.md). Parallel speed-up is measured separately, by
	// sched.speedup and the sweep.
	runtime.GOMAXPROCS(1)
	if len(os.Args) > 1 {
		switch os.Args[1] {
		case "compare":
			os.Exit(compareMain(os.Args[2:]))
		case "sweep":
			os.Exit(sweepMain(os.Args[2:]))
		}
	}
	os.Exit(runMain(os.Args[1:]))
}

// buildDir holds everything a run writes, under the working directory.
const buildDir = ".bench_build"

func runMain(args []string) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	only := fs.String("workload", "", "run only this workload (default: all four in turn)")
	seed := fs.Int64("seed", 1, "seed of the subsets, query seeds and arrival schedules")
	seconds := fs.Int("seconds", 0, "measured seconds per workload (default: run_seconds of BENCHMARK.json)")
	trace := fs.Int("trace", 0, "1 = traced run, reporting the per-layer metrics")
	out := fs.String("out", "", "append each workload's stamped run record, one JSON line, to this file")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	sp, err := loadSpec(specFile)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	if *seconds <= 0 {
		*seconds = sp.RunSeconds
	}
	var selected []workload
	for _, w := range workloads {
		if *only == "" || *only == w.name {
			selected = append(selected, w)
		}
	}
	if len(selected) == 0 {
		fmt.Fprintf(os.Stderr, "bench: unknown workload %q\n", *only)
		return 2
	}
	if err := os.MkdirAll(buildDir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}

	want := sp.EndToEnd
	if *trace == 1 {
		want = sp.PerLayer
	}
	final := contractLine{Correct: true, Metrics: map[string]contractValue{}}
	for _, w := range selected {
		rec, line, err := runOne(w, config{
			seed: *seed, duration: time.Duration(*seconds) * time.Second,
			trace: *trace == 1, scale: flickrScale,
		}, *seconds, want)
		if err != nil {
			fmt.Fprintf(os.Stderr, "bench: %s: %v\n", w.name, err)
			return 1
		}
		if *out != "" {
			if err := appendRecord(*out, rec); err != nil {
				fmt.Fprintln(os.Stderr, "bench:", err)
				return 1
			}
		}
		final.Correct = final.Correct && line.Correct
		final.Attempted += line.Attempted
		final.Failed += line.Failed
		for name, v := range line.Metrics {
			if len(selected) > 1 {
				name = w.name + "/" + name
			}
			final.Metrics[name] = v
		}
	}
	b, err := json.Marshal(final)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	fmt.Println(string(b))
	if !final.Correct || final.Failed > 0 {
		return 1
	}
	return 0
}

// runOne runs a workload in a scratch directory of its own, prints its
// metrics, writes a traced run's spans, and returns its record and result
// line.
func runOne(w workload, cfg config, seconds int, want []specMetric) (*record, *contractLine, error) {
	start := time.Now()
	dir, err := os.MkdirTemp(buildDir, "run-")
	if err != nil {
		return nil, nil, err
	}
	defer os.RemoveAll(dir)
	cfg.dir = dir
	res, err := w.run(cfg)
	runtime.GC()
	if err != nil {
		return nil, nil, err
	}
	rec := &record{
		Schema: recordSchema, Stamp: newStamp(start), Workload: w.name,
		Seed: cfg.seed, Seconds: seconds, Trace: cfg.trace,
		Correct: res.correct(), Invalid: res.invalid,
		Attempted: res.attempted, Failed: res.failed, Metrics: res.metrics,
	}
	rec.Stamp.WallS = time.Since(start).Seconds()
	fmt.Printf("%s seed=%d seconds=%d trace=%v commit=%s gomaxprocs=%d cpu=%q wall=%.1fs\n",
		w.name, cfg.seed, seconds, cfg.trace, rec.Stamp.Commit, rec.Stamp.GOMAXPROCS, rec.Stamp.CPU, rec.Stamp.WallS)
	printMetrics(os.Stdout, w.name, res.metrics)
	fmt.Printf("%s attempted=%d failed=%d mismatches=%d\n", w.name, res.attempted, res.failed, res.mismatches)
	if res.invalid != "" {
		fmt.Fprintf(os.Stderr, "bench: %s: invalid run: %s\n", w.name, res.invalid)
	}
	if cfg.trace {
		path := filepath.Join(buildDir, fmt.Sprintf("spans-%s-seed%d.json", w.name, cfg.seed))
		if err := res.spans.write(path); err != nil {
			return nil, nil, err
		}
		fmt.Printf("%s spans written to %s\n", w.name, path)
	}
	metrics, err := selectMetrics(want, res.metrics)
	if err != nil {
		return nil, nil, err
	}
	return rec, &contractLine{Correct: rec.Correct, Attempted: rec.Attempted, Failed: rec.Failed, Metrics: metrics}, nil
}

func appendRecord(path string, rec *record) error {
	b, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(b, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
