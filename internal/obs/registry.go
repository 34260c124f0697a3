package obs

import (
	"fmt"
	"io"
	"slices"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"saphyra/internal/obs/hist"
)

// Kind is a metric family's Prometheus type.
type Kind uint8

const (
	KindCounter Kind = iota
	KindGauge
	KindHistogram
)

func (k Kind) String() string {
	switch k {
	case KindCounter:
		return "counter"
	case KindGauge:
		return "gauge"
	case KindHistogram:
		return "histogram"
	}
	return "untyped"
}

// Unit selects a histogram's rendered bucket ladder. Observations are
// always recorded in the fine log-bucketed histogram; rendering coalesces
// them onto a small fixed ladder so the exposition stays dashboard-sized.
type Unit uint8

const (
	// UnitSeconds: observations are nanosecond durations, rendered in
	// seconds over a 1-2.5-5 decade ladder from 1µs to 30s.
	UnitSeconds Unit = iota
	// UnitCount: observations are dimensionless counts, rendered over a
	// powers-of-4 ladder from 1 to 4^15.
	UnitCount
)

// secondsEdges / countEdges are the coalesced bucket upper bounds, in the
// native (nanosecond / count) domain. Both are strictly increasing; the
// renderer appends +Inf.
var secondsEdges = func() []int64 {
	var e []int64
	for scale := int64(1_000); scale <= 10_000_000_000; scale *= 10 { // 1µs .. 10s decades
		e = append(e, scale, scale*5/2, scale*5)
	}
	return e[:len(e)-1] // drop 50s; last finite edge is 25s
}()

var countEdges = func() []int64 {
	e := make([]int64, 16)
	v := int64(1)
	for i := range e {
		e[i] = v
		v *= 4
	}
	return e
}()

// quantiles rendered for every histogram family (as a companion gauge
// family — Prometheus exposition does not allow quantile series inside a
// histogram type).
var quantiles = []float64{0.5, 0.9, 0.99, 0.999}

type series struct {
	labels string // rendered label pairs without braces, e.g. `endpoint="rank"`

	c  atomic.Int64    // KindCounter
	fn func() float64  // CounterFunc/GaugeFunc: computed on render
	h  *hist.Histogram // KindHistogram
}

type family struct {
	name, help string
	kind       Kind
	unit       Unit
	series     []*series
	byLabels   map[string]*series
}

// Registry holds named metric families. All reads on the hot path (Inc,
// Add, Observe) are lock-free atomic operations on pre-registered series;
// the registry mutex is only taken at registration and render time.
type Registry struct {
	mu   sync.Mutex
	fams []*family
	byN  map[string]*family
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{byN: make(map[string]*family)}
}

func (r *Registry) fam(name, help string, kind Kind, unit Unit) *family {
	f, ok := r.byN[name]
	if !ok {
		f = &family{name: name, help: help, kind: kind, unit: unit, byLabels: make(map[string]*series)}
		r.byN[name] = f
		r.fams = append(r.fams, f)
	} else if f.kind != kind {
		panic("obs: metric " + name + " re-registered with a different kind")
	}
	return f
}

func (r *Registry) ser(name, help string, kind Kind, unit Unit, labels string) *series {
	r.mu.Lock()
	defer r.mu.Unlock()
	f := r.fam(name, help, kind, unit)
	s, ok := f.byLabels[labels]
	if !ok {
		s = &series{labels: labels}
		if kind == KindHistogram {
			s.h = &hist.Histogram{}
		}
		f.byLabels[labels] = s
		f.series = append(f.series, s)
	}
	return s
}

// Counter is a monotonically increasing series.
type Counter struct{ s *series }

// Inc adds one.
func (c *Counter) Inc() { c.s.c.Add(1) }

// Add adds n (n must be >= 0 for the exposition to stay a valid counter).
func (c *Counter) Add(n int64) { c.s.c.Add(n) }

// Value returns the current count.
func (c *Counter) Value() int64 { return c.s.c.Load() }

// Hist is a registered histogram series. Observations are recorded in the
// wait-free fine histogram and coalesced onto the family's bucket ladder
// at render time.
type Hist struct{ s *series }

// Observe records one duration (for UnitSeconds families).
func (h *Hist) Observe(d time.Duration) { h.s.h.Observe(d) }

// ObserveN records one dimensionless count (for UnitCount families).
func (h *Hist) ObserveN(n int64) { h.s.h.Observe(time.Duration(n)) }

// Counter registers (or fetches) a counter series. labels is either "" or
// rendered pairs like `endpoint="rank"`.
func (r *Registry) Counter(name, help, labels string) *Counter {
	return &Counter{r.ser(name, help, KindCounter, UnitCount, labels)}
}

// CounterFunc registers a counter whose value is computed at render time —
// the bridge for pre-existing atomics owned elsewhere.
func (r *Registry) CounterFunc(name, help, labels string, fn func() float64) {
	r.ser(name, help, KindCounter, UnitCount, labels).fn = fn
}

// GaugeFunc registers a gauge computed at render time.
func (r *Registry) GaugeFunc(name, help, labels string, fn func() float64) {
	r.ser(name, help, KindGauge, UnitCount, labels).fn = fn
}

// Histogram registers (or fetches) a histogram series. Families rendered
// with UnitSeconds expect Observe(duration); UnitCount expect ObserveN.
func (r *Registry) Histogram(name, help, labels string, unit Unit) *Hist {
	return &Hist{r.ser(name, help, KindHistogram, unit, labels)}
}

// Label renders one label pair for the Counter/GaugeFunc/Histogram labels
// argument, escaping the value per the Prometheus text exposition rules
// (backslash, double quote, newline). Static label sets are written as
// literals (`endpoint="rank"`); Label is for values that arrive at runtime
// — replica URLs, file paths — where unescaped quotes would corrupt the
// exposition.
func Label(k, v string) string {
	var b []byte
	b = append(b, k...)
	b = append(b, '=', '"')
	for _, c := range []byte(v) {
		switch c {
		case '\\', '"':
			b = append(b, '\\', c)
		case '\n':
			b = append(b, '\\', 'n')
		default:
			b = append(b, c)
		}
	}
	return string(append(b, '"'))
}

// fmtVal renders a float in its shortest exact form, so integers carry
// no exponent or trailing zeros: `saphyra_generation 1`.
func fmtVal(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

// value reads a counter or gauge series: the render-time function when one
// is registered, else the counter's atomic.
func (s *series) value() float64 {
	if s.fn != nil {
		return s.fn()
	}
	return float64(s.c.Load())
}

func withLabels(base, extra string) string {
	switch {
	case base == "" && extra == "":
		return ""
	case base == "":
		return "{" + extra + "}"
	case extra == "":
		return "{" + base + "}"
	default:
		return "{" + base + "," + extra + "}"
	}
}

// WritePrometheus renders every family in registration order as valid
// Prometheus text exposition format. Histograms emit the coalesced
// `_bucket`/`_sum`/`_count` series plus a companion `<name>_quantile`
// gauge family carrying p50/p90/p99/p999 read from the fine histogram
// (relative error <= 1/32).
func (r *Registry) WritePrometheus(w io.Writer) {
	for _, f := range r.families() {
		switch f.kind {
		case KindCounter, KindGauge:
			fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n", f.name, f.help, f.name, f.kind)
			for _, s := range f.series {
				fmt.Fprintf(w, "%s%s %s\n", f.name, withLabels(s.labels, ""), fmtVal(s.value()))
			}
		case KindHistogram:
			f.writeHistogram(w)
		}
	}
}

func (f *family) writeHistogram(w io.Writer) {
	edges := secondsEdges
	div := 1e9 // ns -> s
	if f.unit == UnitCount {
		edges = countEdges
		div = 1
	}
	fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s histogram\n", f.name, f.help, f.name)
	cum := make([]int64, len(edges))
	for _, s := range f.series {
		total := s.h.CumulativeAt(edges, cum)
		for i, e := range edges {
			le := fmtVal(float64(e) / div)
			fmt.Fprintf(w, "%s_bucket%s %d\n", f.name, withLabels(s.labels, `le="`+le+`"`), cum[i])
		}
		fmt.Fprintf(w, "%s_bucket%s %d\n", f.name, withLabels(s.labels, `le="+Inf"`), total)
		fmt.Fprintf(w, "%s_sum%s %s\n", f.name, withLabels(s.labels, ""), fmtVal(float64(s.h.Sum())/div))
		fmt.Fprintf(w, "%s_count%s %d\n", f.name, withLabels(s.labels, ""), total)
	}
	qn := f.name + "_quantile"
	fmt.Fprintf(w, "# HELP %s Approximate quantiles of %s (log-bucketed, relative error <= %s).\n# TYPE %s gauge\n",
		qn, f.name, fmtVal(hist.RelativeError()), qn)
	for _, s := range f.series {
		for _, q := range quantiles {
			v := float64(s.h.Quantile(q)) / div
			fmt.Fprintf(w, "%s%s %s\n", qn, withLabels(s.labels, `quantile="`+fmtVal(q)+`"`), fmtVal(v))
		}
	}
}

// Snapshot returns every counter and gauge series' current value, keyed
// exactly as the series' sample line in WritePrometheus
// (`saphyra_cache_events_total{kind="miss"}`, `saphyra_generation`) — the
// GET /statusz body. Histograms are left to the Prometheus exposition.
func (r *Registry) Snapshot() map[string]float64 {
	out := make(map[string]float64)
	for _, f := range r.families() {
		if f.kind == KindHistogram {
			continue
		}
		for _, s := range f.series {
			out[f.name+withLabels(s.labels, "")] = s.value()
		}
	}
	return out
}

// families copies the family list so renders run without the registry lock.
func (r *Registry) families() []*family {
	r.mu.Lock()
	defer r.mu.Unlock()
	return slices.Clone(r.fams)
}
