package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"runtime"
	"sort"
	"strings"
	"time"
)

// metricValue is one measured metric. N is the number of samples behind it
// (requests, queries, set-ups or spans); Note says how it was taken where
// the name alone does not, e.g. which percentile tail_ms is.
type metricValue struct {
	Value num    `json:"value"`
	Unit  string `json:"unit"`
	N     int    `json:"n"`
	Note  string `json:"note,omitempty"`
}

// num is a metric value. A value that is not finite arises only when
// operations failed past a percentile or a sample set is empty; JSON cannot
// carry it, so it is written as null and read back as NaN, which no
// comparison or summary takes for a number.
type num float64

func (v num) finite() bool { return !math.IsNaN(float64(v)) && !math.IsInf(float64(v), 0) }

func (v num) MarshalJSON() ([]byte, error) {
	if !v.finite() {
		return []byte("null"), nil
	}
	return json.Marshal(float64(v))
}

func (v *num) UnmarshalJSON(b []byte) error {
	if string(b) == "null" {
		*v = num(math.NaN())
		return nil
	}
	return json.Unmarshal(b, (*float64)(v))
}

// result is what one workload run measured.
type result struct {
	attempted, failed, mismatches int
	// invalid is why the measurement cannot be used ("" when it can).
	invalid string
	metrics map[string]metricValue
	spans   spanLog
}

func newResult() *result { return &result{metrics: map[string]metricValue{}} }

// set records a metric.
func (r *result) set(name, unit string, v float64, n int, note string) {
	r.metrics[name] = metricValue{Value: num(v), Unit: unit, N: n, Note: note}
}

func (r *result) correct() bool { return r.mismatches == 0 && r.invalid == "" }

// stamp identifies the code and machine a run record came from.
type stamp struct {
	Commit     string  `json:"commit"`
	Go         string  `json:"go"`
	OS         string  `json:"os"`
	Arch       string  `json:"arch"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	NumCPU     int     `json:"num_cpu"`
	CPU        string  `json:"cpu"`
	Start      string  `json:"start"`
	WallS      float64 `json:"wall_s"`
}

func newStamp(start time.Time) stamp {
	return stamp{
		Commit:     commit(),
		Go:         runtime.Version(),
		OS:         runtime.GOOS,
		Arch:       runtime.GOARCH,
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
		CPU:        cpuModel(),
		Start:      start.UTC().Format(time.RFC3339),
	}
}

// commit returns `git rev-parse HEAD` of the working directory, with
// "-dirty" appended when tracked files differ, or "unknown" outside a git
// checkout. Only a .git in the working directory itself is consulted, so
// git never searches the directories above it.
func commit() string {
	if _, err := os.Stat(".git"); err != nil {
		return "unknown"
	}
	head, err := exec.Command("git", "rev-parse", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	c := strings.TrimSpace(string(head))
	if st, err := exec.Command("git", "status", "--porcelain", "--untracked-files=no").Output(); err == nil && len(bytes.TrimSpace(st)) > 0 {
		c += "-dirty"
	}
	return c
}

// cpuModel returns the first "model name" of /proc/cpuinfo, or "unknown".
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// record is the stamped outcome of one workload run, one JSON line in the
// file named by -out; the comparer reads these.
type record struct {
	Schema    string                 `json:"schema"`
	Stamp     stamp                  `json:"stamp"`
	Workload  string                 `json:"workload"`
	Seed      int64                  `json:"seed"`
	Seconds   int                    `json:"seconds"`
	Trace     bool                   `json:"trace"`
	Correct   bool                   `json:"correct"`
	Invalid   string                 `json:"invalid,omitempty"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

const recordSchema = "saphyra-bench/run/v1"

// contractLine is the result object the last line of standard output
// carries: the metrics BENCHMARK.json lists for this kind of run, by value
// and unit.
type contractLine struct {
	Correct   bool                     `json:"correct"`
	Attempted int                      `json:"attempted"`
	Failed    int                      `json:"failed"`
	Metrics   map[string]contractValue `json:"metrics"`
}

type contractValue struct {
	Value num    `json:"value"`
	Unit  string `json:"unit"`
}

// selectMetrics picks the metrics listed in want from got, checking that
// each was measured with the unit BENCHMARK.json gives it.
func selectMetrics(want []specMetric, got map[string]metricValue) (map[string]contractValue, error) {
	out := make(map[string]contractValue, len(want))
	for _, m := range want {
		v, ok := got[m.Name]
		if !ok {
			return nil, fmt.Errorf("metric %s was not measured", m.Name)
		}
		if v.Unit != m.Unit {
			return nil, fmt.Errorf("metric %s measured in %q, BENCHMARK.json says %q", m.Name, v.Unit, m.Unit)
		}
		out[m.Name] = contractValue{Value: v.Value, Unit: v.Unit}
	}
	return out, nil
}

// printMetrics writes one line per metric: name, value, unit, n and note.
func printMetrics(w io.Writer, workload string, ms map[string]metricValue) {
	names := make([]string, 0, len(ms))
	for n := range ms {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := ms[n]
		line := fmt.Sprintf("%-12s %-30s %14.6g %-6s n=%d", workload, n, float64(m.Value), m.Unit, m.N)
		if m.Note != "" {
			line += "  (" + m.Note + ")"
		}
		fmt.Fprintln(w, line)
	}
}
