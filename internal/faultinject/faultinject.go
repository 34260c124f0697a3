// Package faultinject is a registry of named, test-gated failure points —
// the substrate of the serving layer's chaos tests (DESIGN.md section 10).
//
// Production code marks the places where the outside world can fail (a slow
// computation, an mmap that errors, a reload that dies mid-swap, a panic on
// a flight goroutine) with a single call:
//
//	if err := faultinject.Fire("bicomp.openmapped"); err != nil {
//	    return nil, err
//	}
//
// With the package disabled — the default, and the only state production
// ever runs in — Fire is one atomic load and a nil return; no map lookup,
// no allocation, no lock. Tests call Enable, arm points with Set, and every
// Fire of an armed point then applies its Fault: an optional delay, an
// optional panic, an optional returned error, gated by an optional firing
// probability and a firing-count cap.
//
// Points are identified by convention as "package.site[.detail]". The
// registry is process-global on purpose: the code under test must not need
// plumbing to reach its failure points, and the chaos harness arms the
// whole process at once. Tests that arm points must not run in parallel
// with tests that assume a quiet registry; the repository keeps all
// fault-armed tests in packages already serialized by the -race CI list.
package faultinject

import (
	"math/rand/v2"
	"sync"
	"sync/atomic"
	"time"
)

// Fault describes what an armed point does when it fires.
type Fault struct {
	// Err is returned by Fire when the fault fires (nil for delay- or
	// panic-only faults).
	Err error
	// Delay is slept before Fire returns (fired or not: the sleep happens
	// only when the probability gate passes).
	Delay time.Duration
	// Panic, when non-empty, makes Fire panic with this value — the
	// flight-panic fault. Delay (if any) is applied first.
	Panic string
	// Prob gates each Fire: the fault fires with this probability. Values
	// <= 0 or >= 1 mean "always". The draws come from a per-point PCG
	// seeded by Seed, so a chaos run is reproducible.
	Prob float64
	// Seed seeds the probability stream (only meaningful with a
	// fractional Prob). Zero means seed 1.
	Seed int64
	// Times caps how often the fault fires; 0 means no cap. Once the cap
	// is reached the point stays armed but inert (Hits keeps counting
	// passes through the gate).
	Times int64
}

// point is the armed state behind one name.
type point struct {
	mu    sync.Mutex
	fault Fault
	rng   *rand.Rand
	fired int64
	hits  atomic.Int64 // Fire calls that found the point armed
}

var (
	enabled atomic.Bool
	mu      sync.Mutex
	points  sync.Map // name -> *point
)

// Enable opens the global gate: armed points start firing. Intended for
// tests only.
func Enable() { enabled.Store(true) }

// Enabled reports whether the global gate is open.
func Enabled() bool { return enabled.Load() }

// Set arms (or re-arms, resetting counters) the named point.
func Set(name string, f Fault) {
	seed := f.Seed
	if seed == 0 {
		seed = 1
	}
	p := &point{fault: f, rng: rand.New(rand.NewPCG(uint64(seed), 0x5bf0_3635))}
	points.Store(name, p)
}

// Reset disarms every point and closes the gate — the test-teardown call.
func Reset() {
	enabled.Store(false)
	points.Range(func(k, _ any) bool {
		points.Delete(k)
		return true
	})
}

// Hits returns how many times the named point was reached while armed and
// enabled (whether or not the probability gate fired it).
func Hits(name string) int64 {
	v, ok := points.Load(name)
	if !ok {
		return 0
	}
	return v.(*point).hits.Load()
}

// Fired returns how many times the named point actually fired.
func Fired(name string) int64 {
	v, ok := points.Load(name)
	if !ok {
		return 0
	}
	p := v.(*point)
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.fired
}

// Fire is the instrumentation call sites use. Disabled (the production
// state) it is one atomic load returning nil. Enabled, it applies the armed
// Fault for name — sleeping Delay, panicking with Panic, returning Err —
// or returns nil when the point is unarmed, the probability gate passes, or
// the firing cap is exhausted.
func Fire(name string) error {
	if !enabled.Load() {
		return nil
	}
	v, ok := points.Load(name)
	if !ok {
		return nil
	}
	p := v.(*point)
	p.hits.Add(1)
	p.mu.Lock()
	f := p.fault
	if f.Times > 0 && p.fired >= f.Times {
		p.mu.Unlock()
		return nil
	}
	if f.Prob > 0 && f.Prob < 1 && p.rng.Float64() >= f.Prob {
		p.mu.Unlock()
		return nil
	}
	p.fired++
	p.mu.Unlock()
	if f.Delay > 0 {
		time.Sleep(f.Delay)
	}
	if f.Panic != "" {
		panic("faultinject: " + name + ": " + f.Panic)
	}
	return f.Err
}
