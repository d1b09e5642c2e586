// Command bpserve hosts compiled block-parallel pipelines as a
// streaming-ingest HTTP server: benchmark applications (and arbitrary
// JSON descriptions) are compiled once at startup, clients open
// concurrent sessions, stream frames in, and collect per-frame outputs
// that are byte-identical to the batch runtime. See docs/serving.md
// for the API.
//
// Usage:
//
//	bpserve -addr :8080 -apps 1,2,5
//	bpserve -apps all -desc edges.json -queue 16
//
// Endpoints: GET /healthz, GET /pipelines, POST /pipelines,
// GET /metrics, POST /sessions, GET /sessions, DELETE /sessions/{id},
// POST /sessions/{id}/frames, /collect, /process.
package main

import (
	"context"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"blockpar/internal/apps"
	"blockpar/internal/cluster"
	"blockpar/internal/machine"
	"blockpar/internal/registry"
	"blockpar/internal/serve"
)

func main() {
	addr := flag.String("addr", ":8080", "listen address")
	appIDs := flag.String("apps", "all", "comma-separated benchmark ids to compile at startup ("+strings.Join(apps.IDs(), ", ")+"), or \"all\", or \"none\"")
	var descFiles stringList
	flag.Var(&descFiles, "desc", "JSON application description to compile and serve (repeatable)")
	queue := flag.Int("queue", 8, "default per-session bounded frame queue (HTTP 429 beyond it)")
	maxSessions := flag.Int("max-sessions", 64, "concurrent session cap")
	collectTimeout := flag.Duration("collect-timeout", 30*time.Second, "maximum per-request frame-collect deadline")
	var drainTimeout time.Duration
	flag.DurationVar(&drainTimeout, "drain", 30*time.Second, "graceful-shutdown drain budget: in-flight sessions finish before exit")
	flag.DurationVar(&drainTimeout, "drain-timeout", 30*time.Second, "alias for -drain")
	clusterAddrs := flag.String("cluster", "", "comma-separated bpworker addresses; sessions execute on the cluster instead of in-process")
	sessionDeadline := flag.Duration("session-deadline", 0, "wall-clock budget per session, propagated to cluster workers (0 = unbounded)")
	replayBudget := flag.Int64("replay-budget", 0, "bytes of fed frames retained per session for cluster failover replay (0 = 32MiB default, negative disables failover)")
	stallTimeout := flag.Duration("stall-timeout", 0, "no-progress window before a cluster session fails over off a wedged worker (0 = 30s default, negative disables)")
	partitions := flag.Int("partitions", 0, "split each cluster session across up to N workers via the placement layer (0 = whole sessions)")
	registryAddr := flag.String("registry", "", "registration listen address; workers self-register (bpworker -join) instead of being listed with -cluster")
	lease := flag.Duration("lease", 0, "membership lease granted to self-registered workers (0 = 5s default)")
	pprofAddr := flag.String("pprof", "", "serve net/http/pprof on this separate listen address (empty = off)")
	flag.Parse()

	cfg := serveConfig{
		addr: *addr, appIDs: *appIDs, descFiles: descFiles,
		queue: *queue, maxSessions: *maxSessions,
		collectTimeout: *collectTimeout, drainTimeout: drainTimeout,
		clusterAddrs:    *clusterAddrs,
		sessionDeadline: *sessionDeadline,
		replayBudget:    *replayBudget,
		stallTimeout:    *stallTimeout,
		partitions:      *partitions,
		registryAddr:    *registryAddr,
		lease:           *lease,
		pprofAddr:       *pprofAddr,
	}
	// A drain that abandons work exits nonzero so orchestration (and CI)
	// can tell a clean drain from frames thrown away.
	if err := run(cfg); err != nil {
		fmt.Fprintln(os.Stderr, "bpserve:", err)
		os.Exit(1)
	}
}

// serveConfig carries the parsed flags into run.
type serveConfig struct {
	addr            string
	appIDs          string
	descFiles       []string
	queue           int
	maxSessions     int
	collectTimeout  time.Duration
	drainTimeout    time.Duration
	clusterAddrs    string
	sessionDeadline time.Duration
	replayBudget    int64
	stallTimeout    time.Duration
	partitions      int
	registryAddr    string
	lease           time.Duration
	pprofAddr       string
}

func run(cfg serveConfig) error {
	addr, appIDs, descFiles := cfg.addr, cfg.appIDs, cfg.descFiles
	queue, maxSessions := cfg.queue, cfg.maxSessions
	collectTimeout, drainTimeout := cfg.collectTimeout, cfg.drainTimeout
	clusterAddrs := cfg.clusterAddrs
	reg := serve.NewRegistry(machine.Embedded())
	switch appIDs {
	case "none":
	case "all", "":
		if err := reg.AddSuite(); err != nil {
			return err
		}
	default:
		if err := reg.AddSuite(strings.Split(appIDs, ",")...); err != nil {
			return err
		}
	}
	for _, f := range descFiles {
		data, err := os.ReadFile(f)
		if err != nil {
			return err
		}
		if _, err := reg.AddJSON(data); err != nil {
			return fmt.Errorf("%s: %w", f, err)
		}
	}
	for _, p := range reg.List() {
		fmt.Printf("compiled %-14s %-16s %3d nodes in %v\n", p.ID, p.Name, p.Nodes, p.CompileTime.Round(time.Millisecond))
	}

	// One dispatcher whichever membership source feeds it: a fixed
	// -cluster list, or workers self-registering at -registry.
	var d *cluster.Dispatcher
	dopts := cluster.DispatcherOptions{
		ReplayBudget: cfg.replayBudget,
		StallTimeout: cfg.stallTimeout,
		Partitions:   cfg.partitions,
	}
	switch {
	case cfg.registryAddr != "" && clusterAddrs != "":
		return fmt.Errorf("-registry and -cluster are mutually exclusive: membership comes from self-registration or a fixed list, not both")
	case cfg.registryAddr != "":
		fleet := registry.NewFleet(registry.FleetOptions{
			Frontend: addr,
			Lease:    cfg.lease,
			Logf: func(format string, args ...any) {
				fmt.Printf("bpserve: "+format+"\n", args...)
			},
		})
		defer fleet.Close()
		rln, err := net.Listen("tcp", cfg.registryAddr)
		if err != nil {
			return err
		}
		fleet.Serve(rln)
		d = cluster.NewRegisteredDispatcher(fleet, dopts)
		fmt.Printf("bpserve registry listening on %s (workers self-register; sessions 503 until one joins)\n", cfg.registryAddr)
	case clusterAddrs != "":
		addrs := strings.Split(clusterAddrs, ",")
		d = cluster.NewDispatcher(addrs, dopts)
		// Workers may still be starting; warn rather than fail, since
		// the dispatcher reconnects in the background.
		if err := d.WaitReady(5 * time.Second); err != nil {
			fmt.Fprintf(os.Stderr, "bpserve: %v (continuing; sessions 503 until a worker connects)\n", err)
		}
		if cfg.partitions > 1 {
			fmt.Printf("bpserve partitioning sessions across %d cluster workers (up to %d partitions each)\n", len(addrs), cfg.partitions)
		} else {
			fmt.Printf("bpserve placing sessions on %d cluster workers\n", len(addrs))
		}
	}
	var backend serve.Backend
	if d != nil {
		defer d.Close()
		backend = d
	}

	srv := serve.NewServer(reg, serve.Options{
		MaxInFlight:     queue,
		CollectTimeout:  collectTimeout,
		MaxSessions:     maxSessions,
		Backend:         backend,
		SessionDeadline: cfg.sessionDeadline,
	})
	hs := &http.Server{Addr: addr, Handler: srv.Handler()}

	errc := make(chan error, 1)
	go func() { errc <- hs.ListenAndServe() }()
	fmt.Printf("bpserve listening on %s (%d pipelines)\n", addr, len(reg.List()))
	if cfg.pprofAddr != "" {
		pln, err := net.Listen("tcp", cfg.pprofAddr)
		if err != nil {
			return err
		}
		go http.Serve(pln, serve.ProfileHandler())
		fmt.Printf("bpserve profiles on http://%s/debug/pprof/\n", pln.Addr())
	}

	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
	select {
	case err := <-errc:
		return err
	case sig := <-sigc:
		fmt.Printf("bpserve: %v: draining sessions...\n", sig)
	}

	ctx, cancel := context.WithTimeout(context.Background(), drainTimeout)
	defer cancel()
	// Stop accepting requests first, then drain every session's
	// in-flight frames before the process exits.
	if err := hs.Shutdown(ctx); err != nil {
		return err
	}
	return srv.Shutdown(ctx)
}

// stringList is a repeatable string flag.
type stringList []string

func (l *stringList) String() string { return strings.Join(*l, ",") }
func (l *stringList) Set(s string) error {
	*l = append(*l, s)
	return nil
}
