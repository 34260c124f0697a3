package loadgen

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"sync"
	"time"

	"saphyra/internal/obs/hist"
	"saphyra/internal/serve"
	"saphyra/internal/workload"
)

// Options configures one replay of a Schedule against a serving target.
// The target is addressed by URL, so the same runner drives a live
// saphyrad daemon or an in-process httptest server over serve.Handler().
type Options struct {
	// Base is the service root, e.g. "http://127.0.0.1:7171".
	Base string
	// HTTP is the transport; nil means http.DefaultClient.
	HTTP *http.Client
	// Speed compresses the schedule clock: a wall-clock gap is the
	// scheduled gap divided by Speed. 0 means 1 (real time).
	Speed float64
	// Warm pre-fires each distinct cacheable query of the schedule once
	// (sequentially, unrecorded) before the clock starts, so a
	// hit-dominated mix measures the steady state rather than cold-cache
	// transients. FreshSeed classes are never warmed — their misses are
	// the point.
	Warm bool
	// VerifyEvery samples every Nth scheduled request's 200 response for
	// post-run bitwise verification (by schedule Seq, so the sample is
	// deterministic). 0 disables verification.
	VerifyEvery int
	// Verifier checks the sampled responses; required when VerifyEvery > 0.
	Verifier *Verifier
	// MaxVerifyErrors caps the failure details kept in the report
	// (default 5; the count is always exact).
	MaxVerifyErrors int
}

// Report is one run's outcome: latency quantiles over served responses,
// per-outcome counts and rates, verification results, and the SLO verdict.
// The JSON form is what BENCH_serving.json records per mix.
type Report struct {
	Mix      string  `json:"mix"`
	Seed     int64   `json:"seed"`
	Rate     float64 `json:"rate_rps"`
	Duration float64 `json:"duration_s"`
	Requests int     `json:"requests"`
	Reloads  int     `json:"reloads"`
	Elapsed  float64 `json:"elapsed_s"`

	// Served-latency quantiles (200s only), milliseconds.
	P50Ms  float64 `json:"p50_ms"`
	P99Ms  float64 `json:"p99_ms"`
	P999Ms float64 `json:"p999_ms"`
	MeanMs float64 `json:"mean_ms"`

	Outcomes map[string]int64 `json:"outcomes"`

	HitRate      float64 `json:"hit_rate"`
	DegradedRate float64 `json:"degraded_rate"`
	ShedRate     float64 `json:"shed_rate"`
	ErrorRate    float64 `json:"error_rate"`

	Verified     int      `json:"verified"`
	VerifyFailed int      `json:"verify_failed"`
	VerifyErrors []string `json:"verify_errors,omitempty"`

	SLO           SLO      `json:"slo"`
	SLOViolations []string `json:"slo_violations,omitempty"`
	Pass          bool     `json:"pass"`
}

// sample is one response held for post-run verification.
type sample struct {
	kind EventKind
	resp *serve.RankResponse
}

// Run replays the schedule open-loop against the target and returns the
// report. Arrival times come from the schedule alone — a slow server
// backs requests up instead of slowing arrivals down — and every response
// is classified and recorded. The context cancels the remainder of the
// run (in-flight requests are abandoned and counted as errors).
func Run(ctx context.Context, s *Schedule, opt Options) (*Report, error) {
	if opt.Base == "" {
		return nil, errors.New("loadgen: Options.Base required")
	}
	if opt.VerifyEvery > 0 && opt.Verifier == nil {
		return nil, errors.New("loadgen: VerifyEvery set without a Verifier")
	}
	speed := opt.Speed
	if speed <= 0 {
		speed = 1
	}
	maxVerifyErrs := opt.MaxVerifyErrors
	if maxVerifyErrs <= 0 {
		maxVerifyErrs = 5
	}

	// One resilient-client shell per class carries that class's policy
	// headers; RankOnce/TopKOnce bypass its retry machinery.
	clients := make([]*workload.Client, len(s.Mix.Classes))
	for i, c := range s.Mix.Classes {
		clients[i] = &workload.Client{
			Base: opt.Base, HTTP: opt.HTTP,
			ClientID: c.ClientID, DegradeMs: c.DegradeMs, TimeoutMs: c.TimeoutMs,
		}
	}

	if opt.Warm {
		if err := warm(ctx, s, clients); err != nil {
			return nil, fmt.Errorf("loadgen: warmup: %w", err)
		}
	}

	var (
		rec      hist.Recorder
		wg       sync.WaitGroup
		mu       sync.Mutex
		samples  []sample
		cached   int64
		served   int64
		reloads  int
		reloadMu sync.Mutex
	)
	fire := func(ev *Event) {
		defer wg.Done()
		if ev.Kind == EventReload {
			if err := reload(ctx, opt); err == nil {
				reloadMu.Lock()
				reloads++
				reloadMu.Unlock()
			}
			return
		}
		c := clients[ev.Class]
		t0 := time.Now()
		var resp *serve.RankResponse
		var err error
		if ev.Kind == EventTopK {
			resp, err = c.TopKOnce(ctx, ev.Method, ev.TopK, ev.Eps, ev.Delta, ev.Seed, ev.K)
		} else {
			resp, err = c.RankOnce(ctx, serve.RankRequest{
				Method: ev.Method, Targets: ev.Targets,
				Eps: ev.Eps, Delta: ev.Delta, K: ev.K, Seed: ev.Seed,
			})
		}
		d := time.Since(t0)
		o := classify(resp, err)
		rec.Observe(o, d)
		if resp == nil {
			return
		}
		mu.Lock()
		served++
		if resp.Cached {
			cached++
		}
		if opt.VerifyEvery > 0 && ev.Seq%opt.VerifyEvery == 0 {
			samples = append(samples, sample{kind: ev.Kind, resp: resp})
		}
		mu.Unlock()
	}

	start := time.Now()
	for i := range s.Events {
		ev := &s.Events[i]
		at := time.Duration(float64(ev.At) / speed)
		if gap := at - time.Since(start); gap > 0 {
			select {
			case <-time.After(gap):
			case <-ctx.Done():
				return nil, ctx.Err()
			}
		}
		wg.Add(1)
		go fire(ev)
	}
	wg.Wait()
	elapsed := time.Since(start)

	r := &Report{
		Mix:      s.Mix.Name,
		Seed:     s.Seed,
		Rate:     s.Mix.Rate,
		Duration: s.Mix.Duration.Seconds(),
		Requests: s.Requests(),
		Reloads:  reloads,
		Elapsed:  elapsed.Seconds(),
		P50Ms:    ms(rec.Served.Quantile(0.50)),
		P99Ms:    ms(rec.Served.Quantile(0.99)),
		P999Ms:   ms(rec.Served.Quantile(0.999)),
		MeanMs:   ms(rec.Served.Mean()),
		Outcomes: map[string]int64{},
		SLO:      s.Mix.SLO,
	}
	for _, o := range hist.Outcomes() {
		r.Outcomes[o.String()] = rec.Count(o)
	}
	if served > 0 {
		r.HitRate = float64(cached) / float64(served)
	}
	r.DegradedRate = rec.Rate(hist.Degraded)
	r.ShedRate = rec.Rate(hist.Shed)
	r.ErrorRate = rec.Rate(hist.Deadline) + rec.Rate(hist.ClientClosed) + rec.Rate(hist.Error)

	// Post-run verification: recomputation happens after the last response
	// so it cannot contend with the measured run.
	for _, sm := range samples {
		r.Verified++
		if err := opt.Verifier.Check(sm.kind, sm.resp); err != nil {
			r.VerifyFailed++
			if len(r.VerifyErrors) < maxVerifyErrs {
				r.VerifyErrors = append(r.VerifyErrors, err.Error())
			}
		}
	}

	r.SLOViolations = s.Mix.SLO.Check(r)
	r.Pass = len(r.SLOViolations) == 0 && r.VerifyFailed == 0
	return r, nil
}

// classify maps one response/error pair to its outcome counter.
func classify(resp *serve.RankResponse, err error) hist.Outcome {
	if err == nil {
		if resp != nil && resp.Degraded {
			return hist.Degraded
		}
		return hist.OK
	}
	var se *workload.StatusError
	if errors.As(err, &se) {
		switch se.Code {
		case http.StatusTooManyRequests:
			return hist.Shed
		case http.StatusGatewayTimeout:
			return hist.Deadline
		case serve.StatusClientClosedRequest:
			return hist.ClientClosed
		}
	}
	return hist.Error
}

// warm fires each distinct cacheable query once, sequentially. Distinct
// means one request per (class, seed) pair — for pool-backed classes the
// per-entry seed identifies the pool entry, so this touches exactly the
// hot set; FreshSeed classes are skipped.
func warm(ctx context.Context, s *Schedule, clients []*workload.Client) error {
	type key struct {
		class int
		seed  int64
	}
	done := make(map[key]bool)
	for i := range s.Events {
		ev := &s.Events[i]
		if ev.Kind == EventReload || s.Mix.Classes[ev.Class].FreshSeed {
			continue
		}
		k := key{ev.Class, ev.Seed}
		if done[k] {
			continue
		}
		done[k] = true
		c := clients[ev.Class]
		// A shed warmup request is retried after a beat: warmup runs
		// sequentially so this converges fast, and a cold cache would
		// otherwise bias the first measured seconds.
		for attempt := 0; attempt < 20; attempt++ {
			var err error
			if ev.Kind == EventTopK {
				_, err = c.TopKOnce(ctx, ev.Method, ev.TopK, ev.Eps, ev.Delta, ev.Seed, ev.K)
			} else {
				_, err = c.RankOnce(ctx, serve.RankRequest{
					Method: ev.Method, Targets: ev.Targets,
					Eps: ev.Eps, Delta: ev.Delta, K: ev.K, Seed: ev.Seed,
				})
			}
			if ctx.Err() != nil {
				return ctx.Err()
			}
			var se *workload.StatusError
			if errors.As(err, &se) && se.Code == http.StatusTooManyRequests {
				time.Sleep(50 * time.Millisecond)
				continue
			}
			break
		}
	}
	return nil
}

// reload POSTs the admin reload endpoint.
func reload(ctx context.Context, opt Options) error {
	httpc := opt.HTTP
	if httpc == nil {
		httpc = http.DefaultClient
	}
	req, err := http.NewRequestWithContext(ctx, "POST", opt.Base+"/admin/reload", nil)
	if err != nil {
		return err
	}
	resp, err := httpc.Do(req)
	if err != nil {
		return err
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("reload: status %d", resp.StatusCode)
	}
	return nil
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
