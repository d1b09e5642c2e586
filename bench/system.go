package main

import (
	"context"
	"fmt"
	"net"
	"net/http"
	"sync"
	"time"

	"blockpar/internal/cluster"
	"blockpar/internal/machine"
	"blockpar/internal/runtime"
	"blockpar/internal/serve"
)

// system is the whole serving stack of one workload, started in this
// process over real loopback TCP: the HTTP frontend bpserve would run
// and, for cluster workloads, the bpworker fleet behind its dispatcher.
// Every option is left at its shipped default (executor, zero-copy
// data plane, frame queue of 8, replay budget), so the numbers are the
// ones an operator running the two commands unmodified would see.
type system struct {
	wl   workload
	seed uint64
	reg  *serve.Registry
	pipe *serve.Pipeline
	srv  *serve.Server
	hs   *http.Server
	base string // "http://127.0.0.1:port"
	disp *cluster.Dispatcher
	// fleet is indexed like the dispatcher's static address list; the
	// recovery probe swaps entries when it kills and rejoins a worker.
	fleet []*fleetWorker

	compileMS float64 // frontend registry compile
	startMS   float64 // fleet listeners up until every worker placeable

	wg sync.WaitGroup // Serve goroutines this system started
}

// fleetWorker is one in-process bpworker: its own registry (compiled
// separately, as a real worker process would) behind its own listener.
type fleetWorker struct {
	addr string
	reg  *serve.Registry
	w    *cluster.Worker
}

// compileRegistry builds a registry holding just the workload's
// pipeline, the way `bpserve -apps <id>` does.
func compileRegistry(wl workload, seed uint64) (*serve.Registry, *serve.Pipeline, error) {
	app, err := suiteApp(wl, seed)
	if err != nil {
		return nil, nil, err
	}
	reg := serve.NewRegistry(machine.Embedded())
	p, err := reg.AddApp(wl.app, "suite", app)
	if err != nil {
		return nil, nil, err
	}
	return reg, p, nil
}

// startSystem compiles, starts the fleet and the frontend, and returns
// once sessions can be opened. A non-nil tracer installs the three
// outside wrappers (HTTP middleware, backend, worker connections);
// with nil the stack is exactly the shipped one.
func startSystem(wl workload, seed uint64, tr *tracer) (*system, error) {
	s := &system{wl: wl, seed: seed}
	start := time.Now()
	reg, p, err := compileRegistry(wl, seed)
	if err != nil {
		return nil, err
	}
	s.reg, s.pipe = reg, p
	s.compileMS = msSince(start)

	var backend serve.Backend
	if wl.workers > 0 {
		start = time.Now()
		addrs := make([]string, wl.workers)
		for i := range addrs {
			wreg, _, err := compileRegistry(wl, seed)
			if err != nil {
				s.stop()
				return nil, err
			}
			fw := &fleetWorker{reg: wreg}
			s.fleet = append(s.fleet, fw)
			if err := s.serveWorker(fw, "127.0.0.1:0", i); err != nil {
				s.stop()
				return nil, err
			}
			addrs[i] = fw.addr
		}
		dopts := cluster.DispatcherOptions{Partitions: wl.partitions}
		if tr != nil {
			dopts.Dial = tr.dial
		}
		s.disp = cluster.NewDispatcher(addrs, dopts)
		if err := s.waitPlaceable(wl.workers, 10*time.Second); err != nil {
			s.stop()
			return nil, err
		}
		s.startMS = msSince(start)
		backend = s.disp
	}
	if tr != nil {
		if backend == nil {
			backend = localBackend{}
		}
		backend = &tracedBackend{inner: backend, tr: tr}
	}

	s.srv = serve.NewServer(reg, serve.Options{Backend: backend})
	handler := s.srv.Handler()
	if tr != nil {
		handler = tr.middleware(handler)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		s.stop()
		return nil, err
	}
	s.hs = &http.Server{Handler: handler}
	s.base = "http://" + ln.Addr().String()
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		s.hs.Serve(ln) // returns http.ErrServerClosed on Shutdown
	}()
	return s, nil
}

// serveWorker (re)starts fw's worker on addr and records the bound
// address. Passing fw.addr back in rejoins a killed worker where the
// dispatcher's static list expects it.
func (s *system) serveWorker(fw *fleetWorker, addr string, i int) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	fw.addr = ln.Addr().String()
	fw.w = cluster.NewWorker(fw.reg, cluster.WorkerOptions{Name: fmt.Sprintf("w%d", i)})
	w := fw.w
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		w.Serve(ln)
	}()
	return nil
}

func (s *system) waitPlaceable(n int, timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for s.disp.PlaceableWorkers() < n {
		if time.Now().After(deadline) {
			return fmt.Errorf("%d/%d workers placeable within %v", s.disp.PlaceableWorkers(), n, timeout)
		}
		time.Sleep(time.Millisecond)
	}
	return nil
}

// stop tears everything down and waits for the goroutines this system
// started; safe on a partially started system.
func (s *system) stop() {
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()
	if s.hs != nil {
		s.hs.Shutdown(ctx)
	}
	if s.srv != nil {
		s.srv.Shutdown(ctx)
	}
	if s.disp != nil {
		s.disp.Close()
	}
	for _, fw := range s.fleet {
		if fw.w != nil {
			fw.w.Close()
		}
	}
	s.wg.Wait()
}

// localBackend is serve's default in-process backend, restated here
// because the traced run needs something to wrap and serve keeps its
// own unexported.
type localBackend struct{}

func (localBackend) Open(p *serve.Pipeline, opts serve.OpenOptions) (serve.SessionHandle, error) {
	return p.NewSession(runtime.SessionOptions{MaxInFlight: opts.MaxInFlight})
}

func msSince(t time.Time) float64 { return float64(time.Since(t).Nanoseconds()) / 1e6 }
