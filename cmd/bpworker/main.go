// Command bpworker executes streaming sessions on behalf of a bpserve
// frontend: it compiles pipelines into a local registry, listens for
// cluster connections, and runs each placed session on the in-process
// runtime, streaming results back over the wire protocol. Pipelines a
// frontend asks for that are not pre-compiled are compiled on demand
// (suite benchmarks by ID, JSON applications from the shipped
// descriptor). See docs/cluster.md.
//
// With -join, the worker registers itself with one or more frontends'
// registration listeners instead of waiting to be listed on their
// command line: it advertises its data-plane address and PE capacity
// (for admission control) and heartbeats to keep its membership lease.
// On SIGTERM it drains: Goaway on every data connection makes frontends
// live-migrate its sessions to survivors, and once it is empty it
// deregisters so placement drops it immediately.
//
// Usage:
//
//	bpworker -addr :9090 -apps all
//	bpworker -addr :9091 -apps none -name gpu-box
//	bpworker -addr :9090 -join fe1:7070,fe2:7070 -advertise 10.0.0.7:9090 -pes 8
//
// Pair with: bpserve -cluster host:9090,host:9091
// or, self-registered: bpserve -registry :7070
package main

import (
	"context"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	goruntime "runtime"
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
	addr := flag.String("addr", ":9090", "listen address for frontend connections")
	appIDs := flag.String("apps", "all", "comma-separated benchmark ids to compile at startup ("+strings.Join(apps.IDs(), ", ")+"), or \"all\", or \"none\"")
	var descFiles stringList
	flag.Var(&descFiles, "desc", "JSON application description to compile at startup (repeatable)")
	name := flag.String("name", "", "worker name reported to frontends (default worker-<pid>)")
	join := flag.String("join", "", "comma-separated frontend registration addresses to self-register with (bpserve -registry)")
	advertise := flag.String("advertise", "", "data-plane address advertised to frontends (default derived from -addr; required when -addr has no reachable host)")
	pes := flag.Int("pes", 0, "processing elements advertised for admission control; capacity = PEs x the machine PE clock (0 = NumCPU)")
	var drain time.Duration
	flag.DurationVar(&drain, "drain", 30*time.Second, "graceful-shutdown drain budget: in-flight sessions finish before exit")
	flag.DurationVar(&drain, "drain-timeout", 30*time.Second, "alias for -drain")
	pprofAddr := flag.String("pprof", "", "serve net/http/pprof on this separate listen address (empty = off)")
	flag.Parse()

	cfg := workerConfig{
		addr: *addr, appIDs: *appIDs, descFiles: descFiles, name: *name,
		join: *join, advertise: *advertise, pes: *pes, drain: drain,
		pprofAddr: *pprofAddr,
	}
	// A drain that abandons work exits nonzero so orchestration (and CI)
	// can tell a clean drain from frames thrown away.
	if err := run(cfg); err != nil {
		fmt.Fprintln(os.Stderr, "bpworker:", err)
		os.Exit(1)
	}
}

// workerConfig carries the parsed flags into run.
type workerConfig struct {
	addr      string
	appIDs    string
	descFiles []string
	name      string
	join      string
	advertise string
	pes       int
	drain     time.Duration
	pprofAddr string
}

func run(cfg workerConfig) error {
	m := machine.Embedded()
	reg := serve.NewRegistry(m)
	switch cfg.appIDs {
	case "none":
	case "all", "":
		if err := reg.AddSuite(); err != nil {
			return err
		}
	default:
		if err := reg.AddSuite(strings.Split(cfg.appIDs, ",")...); err != nil {
			return err
		}
	}
	for _, f := range cfg.descFiles {
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

	w := cluster.NewWorker(reg, cluster.WorkerOptions{Name: cfg.name})
	ln, err := net.Listen("tcp", cfg.addr)
	if err != nil {
		return err
	}
	errc := make(chan error, 1)
	go func() { errc <- w.Serve(ln) }()
	fmt.Printf("bpworker %s listening on %s (%d pipelines)\n", w.Name(), cfg.addr, len(reg.List()))
	if cfg.pprofAddr != "" {
		pln, err := net.Listen("tcp", cfg.pprofAddr)
		if err != nil {
			return err
		}
		go http.Serve(pln, serve.ProfileHandler())
		fmt.Printf("bpworker profiles on http://%s/debug/pprof/\n", pln.Addr())
	}

	// Self-registration: dial every frontend's registration listener,
	// advertise identity + capacity, heartbeat to keep the lease alive.
	var joiner *registry.Joiner
	if cfg.join != "" {
		advertise, err := advertiseAddr(cfg.advertise, ln.Addr())
		if err != nil {
			return err
		}
		pes := cfg.pes
		if pes <= 0 {
			pes = goruntime.NumCPU()
		}
		capacity := float64(pes) * float64(m.PE.CyclesPerSec)
		joiner, err = registry.Join(registry.JoinConfig{
			Frontends: strings.Split(cfg.join, ","),
			Self: registry.Member{
				Name:         w.Name(),
				Addr:         advertise,
				CyclesPerSec: capacity,
			},
			Logf: func(format string, args ...any) {
				fmt.Printf("bpworker: "+format+"\n", args...)
			},
		})
		if err != nil {
			return err
		}
		fmt.Printf("bpworker %s joining %s (advertising %s, %d PEs, %.3g cycles/s)\n",
			w.Name(), cfg.join, advertise, pes, capacity)
	}

	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
	select {
	case err := <-errc:
		if joiner != nil {
			joiner.Close()
		}
		return err
	case sig := <-sigc:
		fmt.Printf("bpworker: %v: draining sessions...\n", sig)
	}

	ctx, cancel := context.WithTimeout(context.Background(), cfg.drain)
	defer cancel()
	return cluster.DrainAndLeave(ctx, w, joiner)
}

// advertiseAddr resolves the data-plane address registered with
// frontends: the -advertise override verbatim, or the listener's
// address when it carries a reachable (non-wildcard) host.
func advertiseAddr(override string, lnAddr net.Addr) (string, error) {
	if override != "" {
		return override, nil
	}
	host, port, err := net.SplitHostPort(lnAddr.String())
	if err != nil {
		return "", fmt.Errorf("cannot derive -advertise from listener %q: %w", lnAddr, err)
	}
	ip := net.ParseIP(host)
	if host == "" || (ip != nil && ip.IsUnspecified()) {
		return "", fmt.Errorf("-join needs -advertise host:port when -addr binds the wildcard address (listening on %q)", lnAddr)
	}
	return net.JoinHostPort(host, port), nil
}

// stringList is a repeatable string flag.
type stringList []string

func (l *stringList) String() string { return strings.Join(*l, ",") }
func (l *stringList) Set(s string) error {
	*l = append(*l, s)
	return nil
}
