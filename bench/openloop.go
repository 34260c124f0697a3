package main

import (
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// clock is the time source of the open-loop generator; tests inject a fake
// one to check the timing rule without real sleeps.
type clock interface {
	Now() time.Time
	Sleep(time.Duration)
}

type realClock struct{}

func (realClock) Now() time.Time        { return time.Now() }
func (realClock) Sleep(d time.Duration) { time.Sleep(d) }

// timing is one scheduled request as the generator measured it.
type timing struct {
	// latency runs to the response from the request's due time when it was
	// already overdue when a sender took it (so backlog counts), and from
	// its actual send otherwise (so timer wake-up lateness does not), unless
	// the generator times every request from its due time.
	latency time.Duration
	// late is how long after its due time the request was sent.
	late time.Duration
	// backlog is the number of requests due but not yet taken, this one
	// included, when a sender took it.
	backlog int
	// sentAt is the send offset from the start of the run.
	sentAt time.Duration
	err    error
}

// openLoop sends the requests due at the given offsets (ascending) from
// `senders` goroutines that take them in order. Each sender sleeps until
// its request is due, sends it and records how it was timed; fromDue times
// every request from its due time. It returns when every request has
// completed, with the wall time from start to the last completion.
func openLoop(clk clock, due []time.Duration, senders int, fromDue bool, send func(i int) error) ([]timing, time.Duration) {
	out := make([]timing, len(due))
	var next atomic.Int64
	var wg sync.WaitGroup
	start := clk.Now()
	for range senders {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(due) {
					return
				}
				taken := clk.Now().Sub(start)
				overdue := taken >= due[i]
				if !overdue {
					clk.Sleep(due[i] - taken)
				}
				sent := clk.Now().Sub(start)
				from := sent
				if overdue || fromDue {
					from = due[i]
				}
				err := send(i)
				done := clk.Now().Sub(start)
				dueBy := sort.Search(len(due), func(j int) bool { return due[j] > taken })
				out[i] = timing{
					latency: done - from,
					late:    sent - due[i],
					backlog: max(dueBy-i, 0),
					sentAt:  sent,
					err:     err,
				}
			}
		}()
	}
	wg.Wait()
	return out, clk.Now().Sub(start)
}

// backlogGrowing reports whether the generator fell further behind through
// the run: the mean backlog rises from each quarter of the schedule to the
// next and ends above the sender count. Such a run measured the generator's
// queue, not the system, and is marked invalid.
func backlogGrowing(ts []timing, senders int) bool {
	if len(ts) < 8 {
		return false
	}
	var means [4]float64
	for q := range means {
		part := ts[q*len(ts)/4 : (q+1)*len(ts)/4]
		for _, t := range part {
			means[q] += float64(t.backlog)
		}
		means[q] /= float64(len(part))
	}
	for q := 1; q < 4; q++ {
		if means[q] <= means[q-1] {
			return false
		}
	}
	return means[3] > float64(senders)
}
