package main

import (
	"sync"
	"testing"
	"time"
)

// fakeClock moves only when the generator sleeps or a request is served.
// oversleep makes every sleep wake that much late, as a busy timer does.
type fakeClock struct {
	mu        sync.Mutex
	now       time.Time
	oversleep time.Duration
}

func (c *fakeClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.now
}

func (c *fakeClock) Sleep(d time.Duration) { c.advance(d + c.oversleep) }

func (c *fakeClock) advance(d time.Duration) {
	c.mu.Lock()
	c.now = c.now.Add(d)
	c.mu.Unlock()
}

func TestTimingRule(t *testing.T) {
	ms := time.Millisecond
	due := []time.Duration{1 * ms, 10 * ms, 11 * ms, 12 * ms, 40 * ms}
	clk := &fakeClock{now: time.Unix(0, 0), oversleep: 2 * ms}
	// One sender, 5 ms per request. Requests 0, 1 and 4 find the sender
	// idle: it sleeps, wakes 2 ms late, and they are timed from the actual
	// send, so the late timer is not charged. Requests 2 and 3 are due
	// while the sender is busy: they are timed from their due time, so the
	// backlog is.
	serve := func(int) error {
		clk.advance(5 * ms)
		return nil
	}
	got, elapsed := openLoop(clk, due, 1, false, serve)
	want := []timing{
		{latency: 5 * ms, late: 2 * ms, backlog: 0, sentAt: 3 * ms},
		{latency: 5 * ms, late: 2 * ms, backlog: 0, sentAt: 12 * ms},
		{latency: 11 * ms, late: 6 * ms, backlog: 2, sentAt: 17 * ms},
		{latency: 15 * ms, late: 10 * ms, backlog: 1, sentAt: 22 * ms},
		{latency: 5 * ms, late: 2 * ms, backlog: 0, sentAt: 42 * ms},
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("request %d: got %+v, want %+v", i, got[i], want[i])
		}
	}
	if elapsed != 47*ms {
		t.Errorf("elapsed %v, want 47ms", elapsed)
	}

	// Timed from the due time, the late wake-ups count too.
	clk.now = time.Unix(0, 0)
	got, _ = openLoop(clk, due, 1, true, serve)
	for i, w := range []time.Duration{7 * ms, 7 * ms, 11 * ms, 15 * ms, 7 * ms} {
		if got[i].latency != w {
			t.Errorf("from due, request %d: latency %v, want %v", i, got[i].latency, w)
		}
	}
}

func TestBacklogGrowing(t *testing.T) {
	ramp := make([]timing, 40)
	flat := make([]timing, 40)
	for i := range ramp {
		ramp[i].backlog = i
		flat[i].backlog = i % 3
	}
	if !backlogGrowing(ramp, 2) {
		t.Error("a backlog rising every quarter was not flagged")
	}
	if backlogGrowing(flat, 2) {
		t.Error("a steady backlog was flagged")
	}
}
