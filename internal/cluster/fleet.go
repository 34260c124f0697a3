package cluster

import (
	"fmt"
	"net"
	"net/http"
	"sync"
	"time"

	"saphyra/internal/serve"
)

// FleetConfig tunes StartFleet.
type FleetConfig struct {
	// Replicas is the fleet size. Default 3.
	Replicas int
	// Serve configures every replica identically (PeerFill is overwritten
	// with the fleet's own peer wiring).
	Serve serve.Config
	// Router overrides router knobs; Replicas/Client are filled in by the
	// fleet.
	Router RouterConfig
	// PeerTimeout bounds one peer cache probe. Default DefaultPeerTimeout.
	PeerTimeout time.Duration
}

// Fleet is an in-process cluster on loopback listeners: N serve.Servers
// wired into a peer-fill ring, fronted by one Router. It is the single
// harness behind the cluster tests, cmd/saphyraload's -cluster mode, and
// examples/cluster — the same wiring a real deployment has, minus
// process boundaries.
type Fleet struct {
	RouterURL   string
	ReplicaURLs []string

	router   *Router
	routerLn net.Listener
	routerHS *http.Server

	mu       sync.Mutex
	replicas []*fleetReplica
}

type fleetReplica struct {
	srv  *serve.Server
	hs   *http.Server
	ln   net.Listener
	dead bool
}

// StartFleet boots n replicas over viewPath plus a router. All replicas
// serve the same view file, so they agree on every generation's bytes.
func StartFleet(viewPath string, cfg FleetConfig) (*Fleet, error) {
	n := cfg.Replicas
	if n <= 0 {
		n = 3
	}
	f := &Fleet{}
	ok := false
	defer func() {
		if !ok {
			f.Close()
		}
	}()

	// Listeners first: every replica needs the full URL list (ring
	// agreement is positional) before any server starts.
	lns := make([]net.Listener, n)
	for i := range lns {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, fmt.Errorf("cluster: fleet listen: %w", err)
		}
		lns[i] = ln
		f.ReplicaURLs = append(f.ReplicaURLs, "http://"+ln.Addr().String())
	}

	client := &http.Client{}
	for i := range lns {
		peers, err := NewPeers(f.ReplicaURLs, i, cfg.Router.VNodes, client, cfg.PeerTimeout)
		if err != nil {
			return nil, err
		}
		scfg := cfg.Serve
		scfg.PeerFill = peers.Fill
		srv, err := serve.New(viewPath, scfg)
		if err != nil {
			return nil, fmt.Errorf("cluster: fleet replica %d: %w", i, err)
		}
		hs := &http.Server{Handler: srv.Handler()}
		f.replicas = append(f.replicas, &fleetReplica{srv: srv, hs: hs, ln: lns[i]})
		go hs.Serve(lns[i])
	}

	rcfg := cfg.Router
	rcfg.Replicas = f.ReplicaURLs
	rcfg.Client = client
	router, err := NewRouter(rcfg)
	if err != nil {
		return nil, err
	}
	f.router = router
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("cluster: fleet router listen: %w", err)
	}
	f.routerLn = ln
	f.RouterURL = "http://" + ln.Addr().String()
	f.routerHS = &http.Server{Handler: router.Handler()}
	go f.routerHS.Serve(ln)
	ok = true
	return f, nil
}

// Server returns replica i's serving layer (nil once killed) — the handle
// the tests use to read cache counters and compute bitwise references.
func (f *Fleet) Server(i int) *serve.Server {
	f.mu.Lock()
	defer f.mu.Unlock()
	r := f.replicas[i]
	if r == nil || r.dead {
		return nil
	}
	return r.srv
}

// KillReplica hard-stops replica i: the listener closes and every open
// connection is torn down, the shape of a crashed process (connect refusals
// and io errors, not graceful drains). The router's hop-retry and health
// EWMA are expected to absorb it.
func (f *Fleet) KillReplica(i int) {
	f.mu.Lock()
	r := f.replicas[i]
	f.mu.Unlock()
	if r == nil || r.dead {
		return
	}
	r.hs.Close()
	r.srv.Close()
	f.mu.Lock()
	r.dead = true
	f.mu.Unlock()
}

// Close tears the whole fleet down.
func (f *Fleet) Close() {
	if f.router != nil {
		f.router.Close()
	}
	if f.routerHS != nil {
		f.routerHS.Close()
	}
	for i := range f.replicas {
		f.KillReplica(i)
	}
}
