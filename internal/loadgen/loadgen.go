// Package loadgen is the deterministic open-loop load generator and SLO
// gate over internal/serve (DESIGN.md section 12). It turns the serving
// layer's single-request benchmarks into a regression-gated replay of
// realistic mixed traffic:
//
//   - a seeded traffic-mix model: zipf-distributed target sets drawn from a
//     bounded pool (the skew knob controls the cache hit ratio), per-class
//     constant or Poisson arrival processes, configurable shares of
//     tiny/full/degradable/deadline-bearing queries, and scheduled reload
//     storms — one seed yields a byte-identical request schedule
//     (Schedule.Encode), so a run is reproducible end to end;
//   - a lock-cheap latency recorder (internal/obs/hist): log-bucketed
//     histogram quantiles (p50/p99/p999) and per-outcome counters instead
//     of sort-based percentiles;
//   - an SLO spec evaluated after each run, plus optional bitwise
//     verification of a sampled fraction of 200 responses against the
//     library reference for their reported (generation, eps, delta, seed)
//     contract — sound because every estimate is a pure function of exactly
//     those inputs, so load testing doubles as a correctness gate.
//
// The schedule is open-loop: arrival times are fixed by the mix and seed,
// never by response times, so an overloaded server cannot slow the offered
// load down and hide its own shed rate — the classic closed-loop
// coordinated-omission trap.
//
// cmd/saphyraload drives a live daemon or an in-process Server and emits
// versioned JSON (BENCH_serving.json via scripts/bench.sh); the in-process
// replay smoke test in this package is the CI regression gate.
package loadgen

import (
	"fmt"
	"time"
)

// Arrival selects a class's arrival process.
type Arrival int

const (
	// Constant spaces a class's requests evenly at its rate.
	Constant Arrival = iota
	// Poisson draws exponential inter-arrival gaps at the class rate — the
	// memoryless open-loop model of independent clients.
	Poisson
)

func (a Arrival) String() string {
	if a == Poisson {
		return "poisson"
	}
	return "constant"
}

// Class is one request population inside a Mix. Every knob is part of the
// deterministic schedule contract: two builds from equal (Mix, nodes, seed)
// produce byte-identical schedules.
type Class struct {
	// Name labels the class in reports.
	Name string
	// Share is the fraction of the mix's total rate this class offers.
	Share float64
	// Arrival is the class's arrival process.
	Arrival Arrival

	// Method is the serve method ("saphyra" | "kpath" | "closeness").
	Method string
	// Targets is the target-set size per query. Zero means a full-network
	// top-k query (GET /v1/topk) instead of a subset rank.
	Targets int
	// Pool is the number of distinct target sets the class draws from; each
	// request picks one via the zipf law below. A small, skewed pool is a
	// cache-hit-dominated population; a large, flat pool with fresh seeds is
	// a miss storm. Ignored for full-network classes (one query shape).
	Pool int
	// ZipfS is the zipf exponent over the pool: pool entry i is drawn with
	// probability proportional to 1/(i+1)^ZipfS. Zero means uniform.
	ZipfS float64

	// Eps, Delta, K, Seed are the query contract. Seed is the base query
	// seed; pool entry i queries with Seed+i so a repeated pool draw is the
	// identical query (a cache hit after the first).
	Eps   float64
	Delta float64
	K     int
	Seed  int64
	// FreshSeed gives every request a unique seed derived from its sequence
	// number, defeating the result cache — the miss-heavy knob.
	FreshSeed bool

	// TimeoutMs > 0 sends the Timeout-Ms header (deadline-bearing traffic);
	// DegradeMs > 0 sends Degrade-Ms (degradable traffic); ClientID, when
	// set, attributes the class to a quota bucket.
	TimeoutMs int
	DegradeMs int
	ClientID  string
}

// Storm schedules a burst of hot reloads: Count reloads starting at At,
// spaced Every apart.
type Storm struct {
	At    time.Duration
	Count int
	Every time.Duration
}

// Mix is a named traffic mix: the complete, seedable description of one
// load-replay run.
type Mix struct {
	Name string
	// Rate is the total offered request rate (req/s) across all classes.
	Rate float64
	// Duration is the scheduled span; the last arrivals land just before it.
	Duration time.Duration
	Classes  []Class
	Storms   []Storm
	// SLO is the pass/fail contract evaluated over the run's Report.
	SLO SLO
}

// Validate rejects mixes that cannot produce a well-formed schedule.
func (m *Mix) Validate() error {
	if m.Rate <= 0 {
		return fmt.Errorf("loadgen: mix %q: rate must be > 0, got %g", m.Name, m.Rate)
	}
	if m.Duration <= 0 {
		return fmt.Errorf("loadgen: mix %q: duration must be > 0, got %v", m.Name, m.Duration)
	}
	if len(m.Classes) == 0 {
		return fmt.Errorf("loadgen: mix %q: no classes", m.Name)
	}
	var share float64
	for i, c := range m.Classes {
		if c.Share <= 0 {
			return fmt.Errorf("loadgen: mix %q class %d (%s): share must be > 0", m.Name, i, c.Name)
		}
		if c.Targets < 0 || (c.Targets > 0 && c.Pool <= 0) {
			return fmt.Errorf("loadgen: mix %q class %d (%s): subset classes need a pool", m.Name, i, c.Name)
		}
		share += c.Share
	}
	if share > 1+1e-9 {
		return fmt.Errorf("loadgen: mix %q: class shares sum to %g > 1", m.Name, share)
	}
	return nil
}

// Scale returns a copy of the mix with rate and duration overridden when
// the arguments are positive — the CLI's -rate/-duration knobs.
func (m Mix) Scale(rate float64, d time.Duration) Mix {
	if rate > 0 {
		m.Rate = rate
	}
	if d > 0 {
		m.Duration = d
		// Re-anchor storms into the new span: keep their relative positions.
		storms := make([]Storm, len(m.Storms))
		copy(storms, m.Storms)
		m.Storms = storms
	}
	return m
}

// The three named mixes of the serving acceptance gate. Rates are sized for
// an in-process replay on a few-thousand-node view; Scale adjusts them for
// bigger hardware or longer soaks.

// HitDominated models steady production traffic over a hot working set: a
// small, heavily skewed pool of target sets, so after warmup nearly every
// request is a deterministic cache hit. Includes deadline-bearing and
// degradable slices. The SLO is tight: hits are microseconds, so p99 beyond
// tens of milliseconds means the cache or admission path regressed.
func HitDominated() Mix {
	return Mix{
		Name:     "hit-dominated",
		Rate:     400,
		Duration: 2 * time.Second,
		Classes: []Class{
			{Name: "tiny", Share: 0.70, Arrival: Poisson, Method: "saphyra", Targets: 4, Pool: 8, ZipfS: 1.2, Eps: 0.1, Delta: 0.05, Seed: 1},
			{Name: "tiny-deadline", Share: 0.15, Arrival: Poisson, Method: "closeness", Targets: 4, Pool: 6, ZipfS: 1.1, Eps: 0.1, Delta: 0.05, Seed: 100, TimeoutMs: 2000},
			{Name: "degradable", Share: 0.10, Arrival: Poisson, Method: "kpath", Targets: 6, Pool: 4, ZipfS: 1.0, Eps: 0.1, Delta: 0.05, K: 3, Seed: 200, DegradeMs: 500, ClientID: "degradable"},
			{Name: "steady", Share: 0.05, Arrival: Constant, Method: "saphyra", Targets: 8, Pool: 2, ZipfS: 0.5, Eps: 0.1, Delta: 0.05, Seed: 300},
		},
		SLO: SLO{P99Ms: 50, P999Ms: 250, MaxShedRate: 0.01, MaxErrorRate: 0.01},
	}
}

// MissHeavy models cache-hostile traffic: fresh seeds defeat the result
// cache, so nearly every request computes, saturates admission, and the
// server must shed. The SLO therefore gates the *behavior under overload*
// — bounded response latency (shedding must stay cheap), a shed-rate
// ceiling, and no internal errors — not raw throughput. A small full-network
// top-k slice keeps the most expensive query shape in the mix.
func MissHeavy() Mix {
	return Mix{
		Name:     "miss-heavy",
		Rate:     300,
		Duration: 2 * time.Second,
		Classes: []Class{
			{Name: "subset-miss", Share: 0.60, Arrival: Poisson, Method: "saphyra", Targets: 8, Pool: 64, ZipfS: 0.3, Eps: 0.1, Delta: 0.05, Seed: 1, FreshSeed: true},
			{Name: "tiny-hot", Share: 0.25, Arrival: Poisson, Method: "saphyra", Targets: 4, Pool: 8, ZipfS: 1.2, Eps: 0.1, Delta: 0.05, Seed: 400},
			{Name: "degradable-miss", Share: 0.10, Arrival: Poisson, Method: "closeness", Targets: 8, Pool: 32, ZipfS: 0.3, Eps: 0.1, Delta: 0.05, Seed: 500, FreshSeed: true, DegradeMs: 500, ClientID: "degradable"},
			{Name: "topk", Share: 0.05, Arrival: Constant, Method: "closeness", Targets: 0, Eps: 0.2, Delta: 0.05, Seed: 600},
		},
		SLO: SLO{P99Ms: 5000, P999Ms: 10000, MaxShedRate: 0.95, MaxErrorRate: 0.02},
	}
}

// ReloadStorm is the hit-dominated mix under a rolling reload storm: every
// reload purges the live cache generation (entries retire to the stale
// store), so the hot set recomputes repeatedly while traffic keeps
// arriving. Degradable requests may ride the stale rung; the SLO allows a
// modest shed rate but still demands bounded tails and no errors.
func ReloadStorm() Mix {
	m := HitDominated()
	m.Name = "reload-storm"
	m.Storms = []Storm{{At: 300 * time.Millisecond, Count: 5, Every: 300 * time.Millisecond}}
	m.SLO = SLO{P99Ms: 1000, P999Ms: 5000, MaxShedRate: 0.10, MaxErrorRate: 0.01}
	return m
}

// ClusterHitDominated is the hit-dominated mix aimed at a cluster router
// (internal/cluster) instead of a single replica: the same traffic, with
// the latency SLO widened for the extra proxy hop every request pays and
// the peer-fill round-trip a cold key may pay. Everything else — shed,
// error, and bitwise-verification gates — is identical: the router is a
// placement layer, not a correctness layer, so the cluster must meet the
// same contract a single box does.
func ClusterHitDominated() Mix {
	m := HitDominated()
	m.Name = "cluster-hit-dominated"
	m.SLO = SLO{P99Ms: 250, P999Ms: 1000, MaxShedRate: 0.01, MaxErrorRate: 0.01}
	return m
}

// Mixes returns the named single-box acceptance mixes in reporting order.
// ClusterHitDominated is not in this list — it needs a router in front of a
// fleet (cmd/saphyraload -cluster), not a lone server.
func Mixes() []Mix { return []Mix{HitDominated(), MissHeavy(), ReloadStorm()} }

// ByName returns the named mix ("hit-dominated" | "miss-heavy" |
// "reload-storm" | "cluster-hit-dominated").
func ByName(name string) (Mix, error) {
	for _, m := range append(Mixes(), ClusterHitDominated()) {
		if m.Name == name {
			return m, nil
		}
	}
	return Mix{}, fmt.Errorf("loadgen: unknown mix %q (want hit-dominated | miss-heavy | reload-storm | cluster-hit-dominated)", name)
}
