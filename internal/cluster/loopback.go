package cluster

import (
	"context"
	"fmt"
	"net"
	"time"

	"blockpar/internal/registry"
)

// Loopback is LoopbackFleet's one-worker case: w on a loopback TCP
// listener and a dispatcher connected to it — the in-process harness
// the conformance driver, the cluster tests, and
// BenchmarkClusterLoopback use to exercise the full wire path without
// spawning processes. The returned stop function tears both down.
func Loopback(w *Worker, dopts DispatcherOptions) (*Dispatcher, func(), error) {
	d, _, stop, err := LoopbackFleet(1, dopts, func(int) *Worker { return w })
	return d, stop, err
}

// LoopbackFleet starts n workers, each on its own loopback listener,
// and one dispatcher connected to all of them — the harness for
// split-session tests and benchmarks. It blocks until every worker is
// placeable (a full-depth split needs the whole fleet), so
// callers can open sessions immediately. The returned workers allow
// targeted kills in chaos tests; the stop function tears everything
// down.
func LoopbackFleet(n int, dopts DispatcherOptions, mk func(i int) *Worker) (*Dispatcher, []*Worker, func(), error) {
	workers := make([]*Worker, n)
	addrs := make([]string, n)
	lns := make([]net.Listener, n)
	cleanup := func() {
		for _, ln := range lns {
			if ln != nil {
				ln.Close()
			}
		}
		for _, w := range workers {
			if w != nil {
				w.Close()
			}
		}
	}
	for i := 0; i < n; i++ {
		w := mk(i)
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			cleanup()
			return nil, nil, nil, err
		}
		workers[i], lns[i], addrs[i] = w, ln, ln.Addr().String()
		go w.Serve(ln)
	}
	d := NewDispatcher(addrs, dopts)
	if err := d.waitPlaceable(n, 5*time.Second); err != nil {
		d.Close()
		cleanup()
		return nil, nil, nil, err
	}
	stop := func() {
		d.Close()
		cleanup()
	}
	return d, workers, stop, nil
}

// RegisteredWorker bundles one self-registered worker: the execution
// Worker, its data-plane listener, and the Joiner maintaining its
// fleet registration. Chaos tests kill or drain it to exercise
// registration-flap campaigns.
type RegisteredWorker struct {
	Name   string
	Addr   string // data-plane address frontends dial back
	Worker *Worker
	Joiner *registry.Joiner

	ln net.Listener
}

// Kill simulates a crash: everything closes abruptly, no Deregister is
// sent, and frontends discover the death through the dead connection
// (sessions fail over) and lease expiry (membership drops).
func (rw *RegisteredWorker) Kill() {
	rw.Joiner.Close()
	rw.Worker.Close()
	rw.ln.Close()
}

// Drain leaves gracefully, exactly as bpworker does on SIGTERM: see
// DrainAndLeave.
func (rw *RegisteredWorker) Drain(ctx context.Context) error {
	return DrainAndLeave(ctx, rw.Worker, rw.Joiner)
}

// RegisteredClusterConfig parameterizes StartRegisteredCluster.
type RegisteredClusterConfig struct {
	// Lease is the fleet membership lease (default registry.DefaultLease;
	// chaos tests shrink it so eviction is fast).
	Lease time.Duration
	// Dispatcher tunes every frontend's dispatcher identically.
	Dispatcher DispatcherOptions
	// MakeWorker builds worker i's execution side. Each worker must
	// carry a unique name (WorkerOptions.Name).
	MakeWorker func(i int) *Worker
	// Capacity reports worker i's registered cycles/sec. Nil registers
	// effectively unlimited capacity so admission control never
	// interferes with correctness tests.
	Capacity func(i int) float64
	// Logf receives fleet diagnostics; nil discards them.
	Logf func(format string, args ...any)
}

// RegisteredCluster is the multi-frontend harness: every frontend runs
// its own Fleet (registration listener + registered dispatcher), and
// every worker joins all of them — exactly the bpserve -registry /
// bpworker -join topology, in-process over loopback TCP.
type RegisteredCluster struct {
	Fleets      []*registry.Fleet
	Dispatchers []*Dispatcher
	Workers     []*RegisteredWorker
	RegAddrs    []string // registration addresses workers join

	cfg RegisteredClusterConfig
}

// StartRegisteredCluster brings up `frontends` fleets and `workers`
// self-registered workers, and blocks until every dispatcher can place
// on every worker.
func StartRegisteredCluster(frontends, workers int, cfg RegisteredClusterConfig) (*RegisteredCluster, error) {
	if cfg.Lease <= 0 {
		cfg.Lease = registry.DefaultLease
	}
	if cfg.Logf == nil {
		cfg.Logf = func(string, ...any) {}
	}
	c := &RegisteredCluster{cfg: cfg}
	for i := 0; i < frontends; i++ {
		f := registry.NewFleet(registry.FleetOptions{
			Frontend: fmt.Sprintf("frontend-%d", i),
			Lease:    cfg.Lease,
			Logf:     cfg.Logf,
		})
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			f.Close()
			c.Close()
			return nil, err
		}
		f.Serve(ln)
		c.Fleets = append(c.Fleets, f)
		c.RegAddrs = append(c.RegAddrs, ln.Addr().String())
		c.Dispatchers = append(c.Dispatchers, NewRegisteredDispatcher(f, cfg.Dispatcher))
	}
	for i := 0; i < workers; i++ {
		capacity := 1e18
		if cfg.Capacity != nil {
			capacity = cfg.Capacity(i)
		}
		if _, err := c.JoinWorker(cfg.MakeWorker(i), capacity); err != nil {
			c.Close()
			return nil, err
		}
	}
	if err := c.WaitPlaceable(workers, 10*time.Second); err != nil {
		c.Close()
		return nil, err
	}
	return c, nil
}

// JoinWorker starts w's data-plane listener and registers it with
// every frontend — also how a flap campaign re-adds a worker
// mid-stream.
func (c *RegisteredCluster) JoinWorker(w *Worker, capacity float64) (*RegisteredWorker, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	go w.Serve(ln)
	j, err := registry.Join(registry.JoinConfig{
		Frontends: c.RegAddrs,
		Self: registry.Member{
			Name:         w.Name(),
			Addr:         ln.Addr().String(),
			CyclesPerSec: capacity,
		},
		RetryMin: 10 * time.Millisecond,
		Logf:     c.cfg.Logf,
	})
	if err != nil {
		ln.Close()
		w.Close()
		return nil, err
	}
	rw := &RegisteredWorker{
		Name:   w.Name(),
		Addr:   ln.Addr().String(),
		Worker: w,
		Joiner: j,
		ln:     ln,
	}
	c.Workers = append(c.Workers, rw)
	return rw, nil
}

// WaitPlaceable blocks until every dispatcher can place on n workers.
func (c *RegisteredCluster) WaitPlaceable(n int, timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for _, d := range c.Dispatchers {
		if err := d.waitPlaceable(n, time.Until(deadline)); err != nil {
			return err
		}
	}
	return nil
}

// Close tears everything down: joiners, workers, dispatchers, fleets.
func (c *RegisteredCluster) Close() {
	for _, rw := range c.Workers {
		rw.Kill()
	}
	for _, d := range c.Dispatchers {
		d.Close()
	}
	for _, f := range c.Fleets {
		f.Close()
	}
}
