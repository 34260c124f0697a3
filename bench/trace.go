package main

import (
	"cmp"
	"context"
	"encoding/json"
	"os"
	"slices"
	"strings"
	"sync"

	"saphyra"
	"saphyra/internal/obs"
)

// spanRec is one span of the traced run, flattened. Spans are kept in
// memory and written out when the run ends.
type spanRec struct {
	Trace   string  `json:"trace"`
	Name    string  `json:"name"`
	Parent  int     `json:"parent"` // index in the run's span list; -1 for a root
	StartUs float64 `json:"start_us"`
	DurUs   float64 `json:"dur_us"`
	// SelfUs is the duration minus the part of it the span's children cover.
	SelfUs float64 `json:"self_us"`
	Extra  int64   `json:"extra,omitempty"`
	Note   string  `json:"note,omitempty"`
}

type spanLog struct {
	mu    sync.Mutex
	spans []spanRec
}

// add appends a span forest as rendered by obs, under parent (-1 for
// roots), shifting start times by offsetUs.
func (l *spanLog) add(trace string, forest []*obs.SpanJSON, parent int, offsetUs float64) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.addLocked(trace, forest, parent, offsetUs)
}

func (l *spanLog) addLocked(trace string, forest []*obs.SpanJSON, parent int, offsetUs float64) {
	for _, s := range forest {
		idx := len(l.spans)
		l.spans = append(l.spans, spanRec{
			Trace: trace, Name: s.Name, Parent: parent,
			StartUs: s.StartUs + offsetUs, DurUs: s.DurUs,
			SelfUs: s.DurUs - coverage(s), Extra: s.Extra, Note: s.Note,
		})
		l.addLocked(trace, s.Children, idx, offsetUs)
	}
}

// coverage returns how much of s's interval its children's intervals cover,
// counting overlapping children once.
func coverage(s *obs.SpanJSON) float64 {
	type iv struct{ a, b float64 }
	var ivs []iv
	end := s.StartUs + s.DurUs
	for _, c := range s.Children {
		a, b := max(c.StartUs, s.StartUs), min(c.StartUs+c.DurUs, end)
		if b > a {
			ivs = append(ivs, iv{a, b})
		}
	}
	slices.SortFunc(ivs, func(x, y iv) int { return cmp.Compare(x.a, y.a) })
	var covered, reach float64
	reach = s.StartUs
	for _, v := range ivs {
		if v.b <= reach {
			continue
		}
		covered += v.b - max(v.a, reach)
		reach = v.b
	}
	return covered
}

// write stores the span list as JSON.
func (l *spanLog) write(path string) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	b, err := json.Marshal(l.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

// spanStats aggregates the spans named name over the traces whose id has
// the given prefix: the number of such traces, the number of spans, and
// their summed duration, self time and Extra.
type spanStats struct {
	traces, count        int
	durUs, selfUs, extra float64
}

func (l *spanLog) stats(tracePrefix, name string) spanStats {
	l.mu.Lock()
	defer l.mu.Unlock()
	var st spanStats
	seen := map[string]bool{}
	for _, s := range l.spans {
		if !strings.HasPrefix(s.Trace, tracePrefix) {
			continue
		}
		if !seen[s.Trace] {
			seen[s.Trace] = true
			st.traces++
		}
		if s.Name == name {
			st.count++
			st.durUs += s.DurUs
			st.selfUs += s.SelfUs
			st.extra += float64(s.Extra)
		}
	}
	return st
}

// notes returns the notes of every span named name.
func (l *spanLog) notes(name string) []string {
	l.mu.Lock()
	defer l.mu.Unlock()
	var out []string
	for _, s := range l.spans {
		if s.Name == name {
			out = append(out, s.Note)
		}
	}
	return out
}

// rankTraced runs one Ranker.Rank under a fresh obs trace with the
// benchmark's own "bench.rank" span as its root, and logs the span tree
// under the trace id.
func rankTraced(l *spanLog, id string, r *saphyra.Ranker, q saphyra.Query) (*saphyra.Result, error) {
	tr := obs.NewTrace(id)
	defer tr.Unref()
	ctx, root := obs.StartSpanIn(context.Background(), tr, "bench.rank")
	res, err := r.Rank(ctx, q)
	root.End()
	l.add(id, tr.Snapshot().Spans, -1, 0)
	return res, err
}
