package main

import (
	"bytes"
	"encoding/json"
	"os"
	"regexp"
	"slices"
	"strings"
	"testing"
)

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	pathRE = regexp.MustCompile(`^[A-Za-z0-9_.-][A-Za-z0-9_./-]{0,199}$`)
)

// ungated lists the end-to-end metrics every run reports but
// BENCHMARK.json does not bound: their run-to-run spread on the reference
// machine is wider than the largest bound a benchmark may set (README.md).
// layers.json may still name them as what a layer moves.
var ungated = []string{"tail_ms"}

// TestBenchmarkJSON lints BENCHMARK.json against the benchmark contract and
// against this program, and layers.json against BENCHMARK.json.
func TestBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../" + specFile)
	if err != nil {
		t.Fatal(err)
	}
	if len(raw) > 64<<10 {
		t.Errorf("BENCHMARK.json is %d bytes", len(raw))
	}
	var keys map[string]json.RawMessage
	if err := json.Unmarshal(raw, &keys); err != nil {
		t.Fatal(err)
	}
	var got []string
	for k := range keys {
		got = append(got, k)
	}
	slices.Sort(got)
	if want := []string{"command", "end_to_end", "paths", "per_layer", "run_seconds", "workloads"}; !slices.Equal(got, want) {
		t.Errorf("keys %v, want %v", got, want)
	}
	sp, err := loadSpec("../" + specFile)
	if err != nil {
		t.Fatal(err)
	}

	if !slices.Equal(sp.Paths, []string{"bench"}) {
		t.Errorf("paths %v, want [bench]", sp.Paths)
	}
	for _, p := range sp.Paths {
		if !pathRE.MatchString(p) || strings.Contains(p, "..") {
			t.Errorf("bad path %q", p)
		}
	}
	if len(sp.Command) == 0 || len(sp.Command) > 32 {
		t.Errorf("command has %d strings", len(sp.Command))
	}
	for _, c := range sp.Command {
		if len(c) > 200 || strings.HasPrefix(c, "/") || strings.Contains(c, "..") {
			t.Errorf("bad command string %q", c)
		}
	}
	if sp.RunSeconds < 1 || sp.RunSeconds > 60 {
		t.Errorf("run_seconds %d", sp.RunSeconds)
	}

	seen := map[string]bool{}
	checkName := func(n string) {
		if !nameRE.MatchString(n) || seen[n] {
			t.Errorf("name %q is malformed or used twice", n)
		}
		seen[n] = true
	}
	if n := len(sp.Workloads); n < 2 || n > 8 {
		t.Errorf("%d workloads, want 2-8", n)
	}
	var names []string
	for _, w := range sp.Workloads {
		checkName(w.Name)
		names = append(names, w.Name)
		if w.Why == "" || len(w.Why) > 200 || strings.ContainsAny(w.Why, "\n\r") {
			t.Errorf("workload %s: why must be one line of at most 200 characters", w.Name)
		}
	}
	var code []string
	for _, w := range workloads {
		code = append(code, w.name)
	}
	if !slices.Equal(names, code) {
		t.Errorf("BENCHMARK.json workloads %v, program runs %v", names, code)
	}

	if n := len(sp.EndToEnd); n < 1 || n > 16 {
		t.Errorf("%d end-to-end metrics, want 1-16", n)
	}
	if n := len(sp.PerLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics, want 1-128", n)
	}
	maxBound, setupBound := 0.0, -1.0
	for _, m := range sp.EndToEnd {
		checkName(m.Name)
		if !unitRE.MatchString(m.Unit) || (m.Better != "lower" && m.Better != "higher") {
			t.Errorf("metric %s: unit %q, better %q", m.Name, m.Unit, m.Better)
		}
		if m.Bound == nil || *m.Bound <= 0 || *m.Bound > 0.25 {
			t.Errorf("metric %s: bound must be in (0, 0.25]", m.Name)
			continue
		}
		maxBound = max(maxBound, *m.Bound)
		if m.Name == "setup_s" {
			setupBound = *m.Bound
			if m.Unit != "s" || m.Better != "lower" {
				t.Errorf("setup_s must be in s, lower better")
			}
		}
	}
	if setupBound != maxBound {
		t.Errorf("setup_s bound %g must be present and the largest (%g)", setupBound, maxBound)
	}
	for _, m := range sp.PerLayer {
		checkName(m.Name)
		if !unitRE.MatchString(m.Unit) || (m.Better != "lower" && m.Better != "higher") || m.Bound != nil {
			t.Errorf("per-layer metric %s: unit %q, better %q, bound %v", m.Name, m.Unit, m.Better, m.Bound)
		}
	}

	// layers.json maps every per-layer metric to the end-to-end metrics
	// and workloads it should move.
	lb, err := os.ReadFile("layers.json")
	if err != nil {
		t.Fatal(err)
	}
	var layers []struct {
		Name, Layer, How string
		Moves            []struct{ Metric, Workload string }
	}
	dec := json.NewDecoder(bytes.NewReader(lb))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&layers); err != nil {
		t.Fatal(err)
	}
	var layerNames, perLayer []string
	for _, l := range layers {
		layerNames = append(layerNames, l.Name)
		if l.Layer == "" || l.How == "" {
			t.Errorf("layers.json %s: layer and how are required", l.Name)
		}
		for _, mv := range l.Moves {
			gated := slices.ContainsFunc(sp.EndToEnd, func(m specMetric) bool { return m.Name == mv.Metric })
			if !gated && !slices.Contains(ungated, mv.Metric) || !slices.Contains(names, mv.Workload) {
				t.Errorf("layers.json %s moves %s@%s, which does not exist", l.Name, mv.Metric, mv.Workload)
			}
		}
	}
	for _, m := range sp.PerLayer {
		perLayer = append(perLayer, m.Name)
	}
	if !slices.Equal(layerNames, perLayer) {
		t.Errorf("layers.json lists %v,\nBENCHMARK.json per_layer lists %v", layerNames, perLayer)
	}
}
