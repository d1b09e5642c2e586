package cluster

import (
	"context"
	"errors"
	"fmt"
	"net"
	"sync"
	"testing"
	"time"

	"blockpar/internal/apps"
	"blockpar/internal/core"
	"blockpar/internal/machine"
	"blockpar/internal/serve"
	"blockpar/internal/transform"
)

// startRegistered brings up a registered fleet over loopback with test
// patience intervals, registering cleanup.
func startRegistered(t *testing.T, frontends, workers int, cfg RegisteredClusterConfig) *RegisteredCluster {
	t.Helper()
	if cfg.Dispatcher.PingInterval == 0 {
		cfg.Dispatcher = fastOpts()
	}
	if cfg.MakeWorker == nil {
		cfg.MakeWorker = func(i int) *Worker {
			return NewWorker(suiteRegistry(t, "5"), WorkerOptions{Name: fmt.Sprintf("rw%d", i)})
		}
	}
	c, err := StartRegisteredCluster(frontends, workers, cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	return c
}

// TestRegisteredPlacementAgreement is the multi-frontend acceptance
// check: two frontends that never talk to each other must compute
// identical ring placement for every session key — and a keyed session
// opened on either frontend must land on the ring's first choice —
// whether membership comes from the workers' own registrations or from
// the same fixed address list.
func TestRegisteredPlacementAgreement(t *testing.T) {
	c := startRegistered(t, 2, 3, RegisteredClusterConfig{})
	// A worker address's ring member name: its registration name in the
	// fleet, the address itself on a fixed list.
	byName, byAddr := make(map[string]string), make(map[string]string)
	var addrs []string
	for _, rw := range c.Workers {
		byName[rw.Addr] = rw.Name
		byAddr[rw.Addr] = rw.Addr
		addrs = append(addrs, rw.Addr)
	}
	var static []*Dispatcher
	for i := 0; i < 2; i++ {
		d := NewDispatcher(addrs, fastOpts())
		t.Cleanup(func() { d.Close() })
		if err := d.waitPlaceable(len(addrs), 10*time.Second); err != nil {
			t.Fatal(err)
		}
		static = append(static, d)
	}

	app, err := apps.ByID("5")
	if err != nil {
		t.Fatal(err)
	}
	const frames = 4
	want := batchFrames(t, app, frames)
	for _, tc := range []struct {
		name   string
		ds     []*Dispatcher
		member map[string]string
	}{
		{"registered", c.Dispatchers, byName},
		{"static", static, byAddr},
	} {
		for i := 0; i < 64; i++ {
			key := fmt.Sprintf("session-%d", i)
			a := tc.ds[0].PlacementFor(key)
			b := tc.ds[1].PlacementFor(key)
			if len(a) != 3 || len(b) != 3 {
				t.Fatalf("%s key %q: placement lengths %d/%d, want 3", tc.name, key, len(a), len(b))
			}
			for j := range a {
				if a[j] != b[j] {
					t.Fatalf("%s key %q: frontends disagree on placement: %v vs %v", tc.name, key, a, b)
				}
			}
		}

		// A keyed open on each frontend independently lands on the ring's
		// first choice, and the stream is byte-identical to the batch golden.
		for fe, d := range tc.ds {
			frontend := suiteRegistry(t, "5")
			p, _ := frontend.Get("5")
			key := "agreement-key"
			h, err := d.Open(p, serve.OpenOptions{MaxInFlight: frames, Key: key})
			if err != nil {
				t.Fatalf("%s frontend %d: open: %v", tc.name, fe, err)
			}
			got := tc.member[hostAddr(d, h)]
			if first := d.PlacementFor(key)[0]; got != first {
				t.Fatalf("%s frontend %d: keyed session placed on %q, ring says %q", tc.name, fe, got, first)
			}
			if err := streamSession(h, frames, want); err != nil {
				t.Fatalf("%s frontend %d: %v", tc.name, fe, err)
			}
		}
	}
}

// TestRegisteredDrainCancelsReconnect is the regression test for the
// reconnect-loop bug: draining a worker (shutdown, then Deregister)
// must cancel the dispatcher's reconnect loop so the dead address is
// never redialed — and a later rejoin under the same name starts a
// fresh manager that places again.
func TestRegisteredDrainCancelsReconnect(t *testing.T) {
	var mu sync.Mutex
	dials := make(map[string]int)
	opts := fastOpts()
	opts.Dial = func(addr string) (net.Conn, error) {
		mu.Lock()
		dials[addr]++
		mu.Unlock()
		return net.DialTimeout("tcp", addr, 5*time.Second)
	}
	c := startRegistered(t, 1, 2, RegisteredClusterConfig{Dispatcher: opts})
	d := c.Dispatchers[0]

	victim := c.Workers[0]
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := victim.Drain(ctx); err != nil {
		t.Fatalf("drain: %v", err)
	}
	waitCondition(t, "drained worker removed from placement", func() bool {
		return d.PlaceableWorkers() == 1
	})

	// The reconnect loop must be gone: the dial count for the drained
	// address stays frozen across many reconnect intervals.
	settle := func() int {
		mu.Lock()
		defer mu.Unlock()
		return dials[victim.Addr]
	}
	// Let any in-flight dial finish first.
	time.Sleep(5 * opts.ReconnectMax)
	before := settle()
	time.Sleep(20 * opts.ReconnectMax)
	if after := settle(); after != before {
		t.Fatalf("drained worker redialed: %d dials grew to %d after deregistration", before, after)
	}

	// Rejoin under the same name on a fresh listener: the fleet emits a
	// join, the dispatcher starts a new manager, and sessions place on
	// it again.
	rejoined := NewWorker(suiteRegistry(t, "5"), WorkerOptions{Name: victim.Name})
	if _, err := c.JoinWorker(rejoined, 1e18); err != nil {
		t.Fatalf("rejoin: %v", err)
	}
	if err := c.WaitPlaceable(2, 10*time.Second); err != nil {
		t.Fatal(err)
	}

	app, err := apps.ByID("5")
	if err != nil {
		t.Fatal(err)
	}
	const frames = 4
	want := batchFrames(t, app, frames)
	frontend := suiteRegistry(t, "5")
	p, _ := frontend.Get("5")
	if err := streamCluster(d, p, frames, want); err != nil {
		t.Fatalf("stream after rejoin: %v", err)
	}
}

// TestRegisteredDrainMidStream runs the shipped drain sequence —
// DrainAndLeave, as bpworker does on SIGTERM — under a live keyed
// stream on a two-frontend fleet. The worker's Goaway alone migrates
// the session off the ring host with the stream byte-identical and no
// client error, the drain abandons nothing, and the Leave drops the
// member from both fleets and both dispatchers.
func TestRegisteredDrainMidStream(t *testing.T) {
	const frames = 8
	app, err := apps.ByID("5")
	if err != nil {
		t.Fatal(err)
	}
	want := batchFrames(t, app, frames)
	frontend := suiteRegistry(t, "5")
	p, _ := frontend.Get("5")

	c := startRegistered(t, 2, 3, RegisteredClusterConfig{})
	d := c.Dispatchers[0]
	const key = "drain-key"
	h, err := d.Open(p, serve.OpenOptions{MaxInFlight: 4, Key: key})
	if err != nil {
		t.Fatal(err)
	}
	host := d.PlacementFor(key)[0]
	var victim *RegisteredWorker
	for _, rw := range c.Workers {
		if rw.Name == host {
			victim = rw
		}
	}
	if victim == nil || hostAddr(d, h) != victim.Addr {
		t.Fatalf("keyed session not on ring host %q", host)
	}

	for f := 0; f < 2; f++ {
		feedRetry(t, h, nil)
		collectCompare(t, h, int64(f), want)
	}
	feedRetry(t, h, nil)
	drained := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		drained <- DrainAndLeave(ctx, victim.Worker, victim.Joiner)
	}()
	collectCompare(t, h, 2, want)
	for f := 3; f < frames; f++ {
		feedRetry(t, h, nil)
		collectCompare(t, h, int64(f), want)
	}
	if err := <-drained; err != nil {
		t.Fatalf("drain abandoned work: %v", err)
	}
	waitCondition(t, "migration counter to tick", func() bool {
		return dispatcherCounter(d, "sessions_migrated") >= 1
	})
	if n := dispatcherCounter(d, "sessions_migrated"); n != 1 {
		t.Errorf("sessions_migrated = %d, want 1", n)
	}
	if err := h.Close(); err != nil {
		t.Fatalf("close after drain: %v", err)
	}

	for i, f := range c.Fleets {
		f := f
		waitCondition(t, fmt.Sprintf("fleet %d drops the drained member", i), func() bool {
			for _, m := range f.Members() {
				if m.Name == host {
					return false
				}
			}
			return true
		})
	}
	for i, df := range c.Dispatchers {
		if n := df.PlaceableWorkers(); n != 2 {
			t.Errorf("frontend %d: %d placeable workers after the drain, want 2", i, n)
		}
	}
}

// TestRegisteredAdmissionControl verifies analysis-driven admission:
// once the fleet's declared cycles/sec are spoken for, Open returns
// serve.ErrOverloaded (the 429 contract) instead of oversubscribing —
// and closing a session returns its cycles to the pool. A fixed list
// declares no capacity: it accounts the same demand but never refuses.
func TestRegisteredAdmissionControl(t *testing.T) {
	frontend := suiteRegistry(t, "5")
	p, _ := frontend.Get("5")
	if p.CyclesPerSec <= 0 {
		t.Fatalf("pipeline 5 has no analysis demand (%v cycles/s); admission test needs one", p.CyclesPerSec)
	}

	// Capacity fits one session but not two.
	c := startRegistered(t, 1, 1, RegisteredClusterConfig{
		Capacity: func(int) float64 { return 1.5 * p.CyclesPerSec },
	})
	unpriced, stop, err := Loopback(NewWorker(suiteRegistry(t, "5"), WorkerOptions{}), fastOpts())
	if err != nil {
		t.Fatal(err)
	}
	defer stop()

	for _, tc := range []struct {
		name    string
		d       *Dispatcher
		fits    int  // sessions opened while capacity lasts
		refuses bool // the open after them is refused
	}{
		{"priced fleet", c.Dispatchers[0], 1, true},
		{"unpriced list", unpriced, 2, false},
	} {
		d := tc.d
		admitted := func(want float64) {
			t.Helper()
			if got := fleetGauge(d, "admitted_cycles_per_sec").(float64); got != want {
				t.Errorf("%s: admitted %v cycles/s, want %v", tc.name, got, want)
			}
		}
		var open []serve.SessionHandle
		for len(open) < tc.fits {
			h, err := openN(d, p, 2)
			if err != nil {
				t.Fatalf("%s: open %d within capacity: %v", tc.name, len(open), err)
			}
			open = append(open, h)
			admitted(float64(len(open)) * p.CyclesPerSec)
		}
		var rejects int64
		if tc.refuses {
			if _, err := openN(d, p, 2); !errors.Is(err, serve.ErrOverloaded) {
				t.Fatalf("%s: second open got %v, want serve.ErrOverloaded", tc.name, err)
			}
			rejects = 1
		}
		if n := fleetGauge(d, "admission_rejects").(int64); n != rejects {
			t.Fatalf("%s: admission_rejects = %d, want %d", tc.name, n, rejects)
		}

		// Closing the admitted sessions releases their cycles; the next
		// open succeeds.
		for len(open) > 0 {
			if err := open[0].Close(); err != nil {
				t.Fatalf("%s: close: %v", tc.name, err)
			}
			open = open[1:]
			admitted(float64(len(open)) * p.CyclesPerSec)
		}
		h, err := openN(d, p, 2)
		if err != nil {
			t.Fatalf("%s: open after release: %v", tc.name, err)
		}
		h.Close()
	}
}

// fleetGauge reads one value of the /metrics "fleet" block.
func fleetGauge(d *Dispatcher, key string) any {
	return d.BackendStats().(map[string]any)["fleet"].(map[string]any)[key]
}

// TestRegisteredAdmissionPricesSplitSessions: admission control prices
// every open, however many partitions it is split across — sessions
// opened with Partitions: 2 exhaust a registered fleet's capacity and
// the next one gets serve.ErrOverloaded — and the cycles a session
// holds return to the pool whichever way it ends: by close, by failure,
// and by a co-schedule that fails partway.
func TestRegisteredAdmissionPricesSplitSessions(t *testing.T) {
	frontend := suiteRegistry(t, "5")
	p, _ := frontend.Get("5")
	opts := fastOpts()
	opts.Partitions = 2
	opts.ReplayBudget = -1 // losing a worker fails the session instead of recovering it

	// Three workers at 0.8× the pipeline's demand: room for two sessions.
	c := startRegistered(t, 1, 3, RegisteredClusterConfig{
		Dispatcher: opts,
		Capacity:   func(int) float64 { return 0.8 * p.CyclesPerSec },
	})
	d := c.Dispatchers[0]
	var open []serve.SessionHandle
	for {
		h, err := openN(d, p, 2)
		if err != nil {
			if !errors.Is(err, serve.ErrOverloaded) {
				t.Fatalf("open %d: got %v, want serve.ErrOverloaded", len(open), err)
			}
			break
		}
		splitSession(t, d, h)
		if open = append(open, h); len(open) > 2 {
			t.Fatalf("admitted %d split sessions into a fleet with room for 2", len(open))
		}
	}
	if len(open) != 2 {
		t.Fatalf("admitted %d split sessions, want 2", len(open))
	}
	if n := fleetGauge(d, "admission_rejects").(int64); n != 1 {
		t.Errorf("admission_rejects = %d, want 1", n)
	}
	if got := fleetGauge(d, "admitted_cycles_per_sec").(float64); got != 2*p.CyclesPerSec {
		t.Errorf("admitted %v cycles/s with two sessions open, want %v", got, 2*p.CyclesPerSec)
	}

	// By close.
	if err := open[0].Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	if got := fleetGauge(d, "admitted_cycles_per_sec").(float64); got != p.CyclesPerSec {
		t.Errorf("admitted %v cycles/s after one close, want %v", got, p.CyclesPerSec)
	}
	// By failure: kill a worker under the survivor.
	victim := hostAddr(d, open[1])
	for _, rw := range c.Workers {
		if rw.Addr == victim {
			rw.Kill()
		}
	}
	if _, err := open[1].Collect(10 * time.Second); !errors.Is(err, serve.ErrSessionLost) {
		t.Fatalf("collect after worker kill: got %v, want serve.ErrSessionLost", err)
	}
	if got := fleetGauge(d, "admitted_cycles_per_sec").(float64); got != 0 {
		t.Errorf("admitted %v cycles/s after every session ended, want 0", got)
	}
	open[1].Close()
}

// TestRegisteredAdmissionFailedCoSchedule: a split open that places one
// partition and then runs out of willing workers tears the placed one
// down and returns its admission hold.
func TestRegisteredAdmissionFailedCoSchedule(t *testing.T) {
	app, err := apps.ByID("5")
	if err != nil {
		t.Fatal(err)
	}
	compile := func() *core.Compiled {
		c, err := core.Compile(app.Graph.Clone(), core.Config{
			Machine: machine.Embedded(), Align: transform.Trim, Parallelize: true, BufferStriping: true,
		})
		if err != nil {
			t.Fatal(err)
		}
		return c
	}
	// Only worker 0 has the pipeline, and nothing tells worker 1 how to
	// build it, so one of the two partitions is always refused.
	opts := fastOpts()
	opts.Partitions = 2
	c := startRegistered(t, 1, 2, RegisteredClusterConfig{
		Dispatcher: opts,
		MakeWorker: func(i int) *Worker {
			reg := serve.NewRegistry(machine.Embedded())
			if i == 0 {
				if _, err := reg.AddCompiled("only-w0", "only-w0", compile(), app.Sources); err != nil {
					t.Fatal(err)
				}
			}
			return NewWorker(reg, WorkerOptions{Name: fmt.Sprintf("rw%d", i)})
		},
	})
	d := c.Dispatchers[0]
	p, err := serve.NewRegistry(machine.Embedded()).AddCompiled("only-w0", "only-w0", compile(), app.Sources)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := openN(d, p, 2); !errors.Is(err, serve.ErrUnavailable) {
		t.Fatalf("open with one unwilling worker: got %v, want serve.ErrUnavailable", err)
	}
	if got := fleetGauge(d, "admitted_cycles_per_sec").(float64); got != 0 {
		t.Errorf("admitted %v cycles/s after a failed co-schedule, want 0", got)
	}
	for _, w := range d.snapshot() {
		if n := w.sessionCount(); n != 0 {
			t.Errorf("worker %s still tracks %d partitions of the abandoned session", w.addr, n)
		}
	}
	waitCondition(t, "worker 0 to drop the abandoned partition", func() bool {
		return c.Workers[0].Worker.openSessions() == 0
	})
}

// TestRegisteredFlapFailover kills a registered worker mid-stream: the
// session fails over to a survivor with the stream byte-identical to
// the batch golden, lease expiry drops the dead member from every
// frontend, and a flap-rejoin restores full placement.
func TestRegisteredFlapFailover(t *testing.T) {
	// Goldens are compiled before the fleet exists: the compile is
	// CPU-heavy enough to starve a sub-second lease's heartbeats under
	// the race detector.
	const frames = 8
	app, err := apps.ByID("5")
	if err != nil {
		t.Fatal(err)
	}
	want := batchFrames(t, app, frames)
	wantShort := batchFrames(t, app, 4)
	frontend := suiteRegistry(t, "5")
	p, _ := frontend.Get("5")

	c := startRegistered(t, 2, 2, RegisteredClusterConfig{Lease: 500 * time.Millisecond})
	d := c.Dispatchers[0]

	h, err := openN(d, p, 4)
	if err != nil {
		t.Fatal(err)
	}
	for f := 0; f < 4; f++ {
		feedRetry(t, h, nil)
	}
	for f := int64(0); f < 2; f++ {
		collectCompare(t, h, f, want)
	}

	// Crash the worker under the session: no Deregister, just death.
	addr := hostAddr(d, h)
	var victim *RegisteredWorker
	for _, rw := range c.Workers {
		if rw.Addr == addr {
			victim = rw
		}
	}
	if victim == nil {
		t.Fatalf("session worker %s not in harness", addr)
	}
	victim.Kill()

	// The stream continues on the survivor, byte-identical. Collect
	// rides along so the in-flight window stays open.
	for f := 4; f < frames; f++ {
		feedRetry(t, h, nil)
		collectCompare(t, h, int64(f-2), want)
	}
	for f := int64(frames - 2); f < frames; f++ {
		collectCompare(t, h, f, want)
	}
	if err := h.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}

	// Lease expiry evicts the dead member from every frontend — no
	// Deregister was ever sent.
	for fe, df := range c.Dispatchers {
		df := df
		waitCondition(t, fmt.Sprintf("frontend %d drops dead member", fe), func() bool {
			return len(df.PlacementFor("any")) == 1
		})
	}

	// Flap: rejoin under the same name, placement heals everywhere.
	rejoined := NewWorker(suiteRegistry(t, "5"), WorkerOptions{Name: victim.Name})
	if _, err := c.JoinWorker(rejoined, 1e18); err != nil {
		t.Fatalf("rejoin: %v", err)
	}
	if err := c.WaitPlaceable(2, 10*time.Second); err != nil {
		t.Fatal(err)
	}
	if err := streamCluster(d, p, 4, wantShort); err != nil {
		t.Fatalf("stream after flap: %v", err)
	}
}
