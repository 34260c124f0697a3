package main

import (
	"testing"

	"saphyra/internal/obs"
)

func TestSelfTime(t *testing.T) {
	// Children at [10, 30], [20, 40] (overlapping) and [90, 120] (running
	// past the parent's end at 100) cover 30 + 10 of the parent's 100 µs.
	root := &obs.SpanJSON{Name: "root", StartUs: 0, DurUs: 100, Children: []*obs.SpanJSON{
		{Name: "a", StartUs: 20, DurUs: 20},
		{Name: "b", StartUs: 10, DurUs: 20},
		{Name: "c", StartUs: 90, DurUs: 30},
	}}
	var l spanLog
	l.add("t", []*obs.SpanJSON{root}, -1, 0)
	if got := l.spans[0].SelfUs; got != 60 {
		t.Errorf("root self time %g µs, want 60", got)
	}
	if st := l.stats("t", "a"); st.traces != 1 || st.count != 1 || st.selfUs != 20 {
		t.Errorf("stats of a: %+v", st)
	}
}
