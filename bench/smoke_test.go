package main

import (
	"runtime"
	"testing"
	"time"
)

// TestSmoke runs every workload traced for half a second on a small
// stand-in and checks that it emits every metric BENCHMARK.json lists, end
// to end and per layer, with no failed operation, so that an API change that
// breaks the benchmark fails here.
func TestSmoke(t *testing.T) {
	sp, err := loadSpec("../" + specFile)
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			res, err := w.run(config{seed: 3, duration: 500 * time.Millisecond, trace: true, scale: 0.25, dir: t.TempDir()})
			runtime.GC()
			if err != nil {
				t.Fatal(err)
			}
			for _, want := range [][]specMetric{sp.EndToEnd, sp.PerLayer} {
				got, err := selectMetrics(want, res.metrics)
				if err != nil {
					t.Error(err)
				}
				for name, v := range got {
					if !v.Value.finite() {
						t.Errorf("%s is not finite", name)
					}
				}
			}
			if res.attempted == 0 || res.failed != 0 || !res.correct() {
				t.Errorf("attempted %d, failed %d, mismatches %d, invalid %q",
					res.attempted, res.failed, res.mismatches, res.invalid)
			}
		})
	}
}
