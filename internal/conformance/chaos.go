package conformance

import (
	"context"
	"errors"
	"fmt"
	"net"
	"strings"
	"time"

	"blockpar/internal/cluster"
	"blockpar/internal/fault"
	"blockpar/internal/frame"
	"blockpar/internal/machine"
	"blockpar/internal/runtime"
	"blockpar/internal/serve"
)

// ChaosModes lists the fault campaigns CheckChaos runs: a mid-stream
// worker kill (which must be invisible — failover replays the session
// on the survivor), a mid-stream kill of one partition of a session
// split across a 3-worker fleet (per-partition recovery must make that
// invisible too), a graceful drain of the session's worker (live
// migration, zero client-visible errors AND a clean worker exit),
// seeded wire-level corruption, frame drops, and delivery delays from
// internal/fault, plus two registration-plane campaigns on a
// self-registered fleet: "flap" (the session's worker crashes without
// deregistering and a replacement rejoins under the same name
// mid-stream) and "frontend-kill" (a sibling frontend dies while the
// stream runs on the other).
func ChaosModes() []string {
	return []string{"kill", "partition-kill", "drain", "corrupt", "drop", "delay", "flap", "frontend-kill"}
}

// chaosProfile maps a mode to its fault profile. The probabilities are
// small so streams usually make progress between faults; "kill" uses
// no injector at all (the fault is a whole-process death).
func chaosProfile(mode string) (fault.Profile, error) {
	switch mode {
	case "kill", "partition-kill", "drain":
		return fault.Profile{}, nil
	case "corrupt":
		return fault.Profile{Corrupt: 0.02}, nil
	case "drop":
		return fault.Profile{Drop: 0.02}, nil
	case "delay":
		return fault.Profile{Delay: 0.3, DelayMax: 2 * time.Millisecond}, nil
	case "partial":
		return fault.Profile{Partial: 0.01}, nil
	default:
		return fault.Profile{}, fmt.Errorf("chaos: unknown mode %q (have %v)", mode, ChaosModes())
	}
}

// chaosDispatcher tunes every chaos campaign's dispatchers: fast pings
// and redials, and a stall timeout well under the collect bound, so a
// silent stall fails over instead of hanging.
var chaosDispatcher = cluster.DispatcherOptions{
	PingInterval:    25 * time.Millisecond,
	PingTimeout:     2 * time.Second,
	ReconnectMin:    10 * time.Millisecond,
	ReconnectMax:    100 * time.Millisecond,
	OpenTimeout:     5 * time.Second,
	CloseTimeout:    5 * time.Second,
	FailoverTimeout: 10 * time.Second,
	StallTimeout:    2 * time.Second,
}

// typedChaosError reports whether a stream failure belongs to the
// documented error vocabulary — the outcomes a client can program
// against. Anything else (a hang, a raw I/O error, wrong bytes) is a
// chaos finding.
func typedChaosError(err error) bool {
	return errors.Is(err, serve.ErrSessionLost) ||
		errors.Is(err, serve.ErrUnavailable) ||
		errors.Is(err, runtime.ErrSessionClosed) ||
		strings.HasPrefix(err.Error(), "cluster:")
}

// CheckChaos streams a generated case through a two-worker cluster
// while injecting seeded faults, and asserts the robustness contract:
// the stream either completes byte-identical to the oracle golden or
// fails with a typed error — never a hang, never silently wrong
// samples — and every arena reference returns once the session and
// cluster shut down. Mode "kill" is held to the stronger bar: a
// surviving worker exists, so failover must make the kill invisible
// and the stream MUST complete byte-identical.
//
// The injector wraps both directions — the dispatcher's dials and the
// workers' accepted connections — so feeds, results, opens, closes,
// and pings are all fair game. Callers must not run CheckChaos
// concurrently with other arena users: the leak check compares
// frame.Stats().Live against the baseline captured at entry.
func CheckChaos(c *Case, seed uint64, mode string) error {
	if mode == "flap" || mode == "frontend-kill" {
		return checkChaosRegistered(c, seed, mode)
	}
	profile, err := chaosProfile(mode)
	if err != nil {
		return err
	}
	const frames = 6
	want, err := OracleFrames(c, frames)
	if err != nil {
		return err
	}

	baseline := frame.Stats().Live
	inj := fault.NewInjector(seed, profile)

	// Independent workers, each with its own registry holding the
	// identical compiled variant (compilation is deterministic), so a
	// failed-over session re-executes the same transformed graph.
	// "partition-kill" runs three and splits the session two ways, so a
	// spare survives the strike; the other modes run two whole-session
	// workers.
	nworkers := 2
	if mode == "partition-kill" {
		nworkers = 3
	}
	var (
		workers []*cluster.Worker
		addrs   []string
	)
	defer func() {
		for _, w := range workers {
			w.Close()
		}
	}()
	for i := 0; i < nworkers; i++ {
		compiled, err := compileVariant(c, Variant{Name: "embedded", Machine: machine.Embedded(), Striping: true})
		if err != nil {
			return err
		}
		reg := serve.NewRegistry(machine.Embedded())
		if _, err := reg.AddCompiled("case", "case", compiled, c.Sources); err != nil {
			return err
		}
		w := cluster.NewWorker(reg, cluster.WorkerOptions{Name: fmt.Sprintf("chaos-w%d", i)})
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return err
		}
		go w.Serve(inj.WrapListener(ln))
		workers = append(workers, w)
		addrs = append(addrs, ln.Addr().String())
	}

	compiled, err := compileVariant(c, Variant{Name: "embedded", Machine: machine.Embedded(), Striping: true})
	if err != nil {
		return err
	}
	frontend := serve.NewRegistry(machine.Embedded())
	p, err := frontend.AddCompiled("case", "case", compiled, c.Sources)
	if err != nil {
		return err
	}

	opts := chaosDispatcher
	opts.Dial = inj.WrapDial(func(addr string) (net.Conn, error) {
		return net.DialTimeout("tcp", addr, 5*time.Second)
	})
	if mode == "partition-kill" {
		opts.Partitions = 2
	}
	d := cluster.NewDispatcher(addrs, opts)
	defer d.Close()

	// Both workers connected before the open, so least-loaded placement
	// is deterministic: the fresh session lands on workers[0] — the one
	// "kill" mode murders mid-stream.
	if err := waitChaos(30*time.Second, func() bool {
		rows := d.BackendStats().(map[string]any)["workers"].([]cluster.WorkerStats)
		up := 0
		for _, r := range rows {
			if r.State == "connected" {
				up++
			}
		}
		return up == len(rows)
	}); err != nil {
		return fmt.Errorf("chaos: workers never connected: %w", err)
	}

	// The strike fires after frame 1 is fed, with that frame in flight.
	// "kill" murders the (deterministically least-loaded) first worker;
	// "partition-kill" and "drain" look the victim up in the session's
	// /metrics row, since placement order over 3 workers is theirs to
	// choose.
	sessionHost := func() (int, error) {
		rows := d.BackendStats().(map[string]any)["sessions"].([]cluster.SessionStats)
		if len(rows) == 0 || len(rows[0].Workers) == 0 {
			return 0, fmt.Errorf("chaos: no open session row to strike")
		}
		target := rows[0].Workers[0]
		for i, a := range addrs {
			if a == target {
				return i, nil
			}
		}
		return 0, fmt.Errorf("chaos: session host %q not in harness", target)
	}
	drainDone := make(chan error, 1)
	var strike func() error
	switch mode {
	case "kill":
		strike = func() error { workers[0].Close(); return nil }
	case "partition-kill":
		strike = func() error {
			i, err := sessionHost()
			if err != nil {
				return err
			}
			workers[i].Close()
			return nil
		}
	case "drain":
		strike = func() error {
			i, err := sessionHost()
			if err != nil {
				return err
			}
			w := workers[i]
			go func() {
				ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
				defer cancel()
				drainDone <- w.Shutdown(ctx)
			}()
			return nil
		}
	}

	outcome := runChaosStream(d, p, c, want, 1, strike, "")
	if outcome != nil {
		switch mode {
		case "kill", "partition-kill":
			return fmt.Errorf("chaos %s with a survivor must be invisible: %w", mode, outcome)
		case "drain":
			return fmt.Errorf("chaos drain must be invisible: %w", outcome)
		default:
			if !typedChaosError(outcome) {
				return fmt.Errorf("chaos: untyped failure: %w", outcome)
			}
		}
	}
	if mode == "drain" {
		// The migration emptied the worker, so its graceful shutdown must
		// also have completed cleanly — no frames abandoned.
		select {
		case err := <-drainDone:
			if err != nil {
				return fmt.Errorf("chaos: drained worker abandoned work: %w", err)
			}
		case <-time.After(time.Minute):
			return fmt.Errorf("chaos: worker drain never completed")
		}
	}

	// Tear the cluster down and require every arena reference back:
	// replay logs, in-flight encodes, buffered results, worker-side
	// frames — whatever the faults interrupted.
	d.Close()
	for _, w := range workers {
		w.Close()
	}
	if err := waitChaos(10*time.Second, func() bool {
		return frame.Stats().Live <= baseline
	}); err != nil {
		return fmt.Errorf("chaos: arena leak: %d live references, baseline %d (mode %s seed %d)",
			frame.Stats().Live, baseline, mode, seed)
	}
	return nil
}

// runChaosStream drives a session opened under key (empty: keyless):
// feed/collect all frames with bounded waits, comparing every delivered
// frame against the oracle, firing strike (if any) with frame `at`
// freshly fed and in flight. A typed failure is returned for the caller
// to judge; wrong bytes and hangs are returned as distinctive errors
// typedChaosError rejects.
func runChaosStream(d *cluster.Dispatcher, p *serve.Pipeline, c *Case,
	want []map[string][]frame.Window, at int, strike func() error, key string) error {

	deadline := time.Now().Add(90 * time.Second)
	h, err := d.Open(p, serve.OpenOptions{MaxInFlight: 2, Deadline: 2 * time.Minute, Key: key})
	if err != nil {
		return err
	}
	defer h.Close()

	outputs := c.Graph.Outputs()
	for f := 0; f < len(want); f++ {
		// Bounded feed: transient backpressure (failover in progress,
		// credits in flight) retries; deadline expiry is a hang.
		for {
			if _, err := h.TryFeed(nil); err == nil {
				break
			} else if !errors.Is(err, runtime.ErrQueueFull) {
				return err
			}
			if time.Now().After(deadline) {
				return fmt.Errorf("hang: feed %d stuck in backpressure past the chaos deadline", f)
			}
			time.Sleep(2 * time.Millisecond)
		}
		if strike != nil && f == at {
			// The frame just fed is in flight on the victim; the strike
			// must be invisible (recovery replays it on a survivor).
			if err := strike(); err != nil {
				return err
			}
		}
		res, err := h.Collect(30 * time.Second)
		if err != nil {
			if strings.Contains(err.Error(), "timed out") {
				return fmt.Errorf("hang: collect %d timed out without a terminal session error", f)
			}
			return err
		}
		cmpErr := func() error {
			if res.Seq != int64(f) {
				return fmt.Errorf("chaos delivered frame %d, want %d (at-most-once broken)", res.Seq, f)
			}
			for _, out := range outputs {
				name := out.Name()
				if err := compareWindows(res.Outputs[name], want[f][name]); err != nil {
					return fmt.Errorf("silent corruption: output %q frame %d: %w", name, f, err)
				}
			}
			return nil
		}()
		for _, ws := range res.Outputs {
			for _, w := range ws {
				w.Release()
			}
		}
		if cmpErr != nil {
			return cmpErr
		}
	}
	return h.Close()
}

// checkChaosRegistered runs the registration-plane campaigns on a
// self-registered fleet: two frontends, two workers that dialed in and
// registered themselves, the stream keyed so ring placement pins which
// worker hosts it. At a seeded frame the campaign strikes —
//
//   - "flap": the session's worker crashes without deregistering and a
//     replacement rejoins under the same name on a fresh address;
//   - "frontend-kill": the sibling frontend (registration listener,
//     dispatcher, and all) dies while the stream runs on the other —
//
// and in both campaigns a healthy path survives, so the bar is the
// strong one: the stream MUST complete byte-identical to the oracle,
// and every arena reference must return on shutdown.
func checkChaosRegistered(c *Case, seed uint64, mode string) error {
	const frames = 6
	want, err := OracleFrames(c, frames)
	if err != nil {
		return err
	}
	baseline := frame.Stats().Live

	mkWorker := func(name string) *cluster.Worker {
		compiled, err := compileVariant(c, Variant{Name: "embedded", Machine: machine.Embedded(), Striping: true})
		if err != nil {
			panic(err)
		}
		reg := serve.NewRegistry(machine.Embedded())
		if _, err := reg.AddCompiled("case", "case", compiled, c.Sources); err != nil {
			panic(err)
		}
		return cluster.NewWorker(reg, cluster.WorkerOptions{Name: name})
	}
	fleet, err := cluster.StartRegisteredCluster(2, 2, cluster.RegisteredClusterConfig{
		Lease:      500 * time.Millisecond,
		Dispatcher: chaosDispatcher,
		MakeWorker: func(i int) *cluster.Worker { return mkWorker(fmt.Sprintf("flap-w%d", i)) },
	})
	if err != nil {
		return err
	}
	defer fleet.Close()
	d := fleet.Dispatchers[0]

	compiled, err := compileVariant(c, Variant{Name: "embedded", Machine: machine.Embedded(), Striping: true})
	if err != nil {
		return err
	}
	frontend := serve.NewRegistry(machine.Embedded())
	p, err := frontend.AddCompiled("case", "case", compiled, c.Sources)
	if err != nil {
		return err
	}

	// A keyed open pins the session to the ring's first choice, so the
	// campaign knows exactly which worker to strike.
	const key = "chaos"
	host := d.PlacementFor(key)[0]
	strike := func() error {
		switch mode {
		case "flap":
			for _, rw := range fleet.Workers {
				if rw.Name == host {
					rw.Kill()
					// The replacement registers under the same name on a
					// fresh address: the flap the dispatcher must absorb
					// as a leave+join, not a stale redial.
					_, err := fleet.JoinWorker(mkWorker(host), 1e18)
					return err
				}
			}
			return fmt.Errorf("chaos: ring host %q not in harness", host)
		case "frontend-kill":
			fleet.Dispatchers[1].Close()
			fleet.Fleets[1].Close()
			return nil
		}
		return fmt.Errorf("chaos: unknown registered mode %q", mode)
	}

	if err := runChaosStream(d, p, c, want, fault.At(seed, frames), strike, key); err != nil {
		return fmt.Errorf("chaos %s with a healthy path must be invisible: %w", mode, err)
	}

	fleet.Close()
	if err := waitChaos(10*time.Second, func() bool {
		return frame.Stats().Live <= baseline
	}); err != nil {
		return fmt.Errorf("chaos: arena leak: %d live references, baseline %d (mode %s seed %d)",
			frame.Stats().Live, baseline, mode, seed)
	}
	return nil
}

// waitChaos polls cond until true or the timeout expires.
func waitChaos(timeout time.Duration, cond func() bool) error {
	deadline := time.Now().Add(timeout)
	for !cond() {
		if time.Now().After(deadline) {
			return fmt.Errorf("condition not reached within %v", timeout)
		}
		time.Sleep(5 * time.Millisecond)
	}
	return nil
}
