package cluster

import (
	"context"
	"errors"
	"fmt"
	"net"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"blockpar/internal/apps"
	"blockpar/internal/core"
	"blockpar/internal/frame"
	"blockpar/internal/machine"
	"blockpar/internal/registry"
	"blockpar/internal/runtime"
	"blockpar/internal/serve"
	"blockpar/internal/transform"
	"blockpar/internal/wire"
)

// fastOpts shrinks every interval so reconnection and health checks
// happen within test patience.
func fastOpts() DispatcherOptions {
	return DispatcherOptions{
		PingInterval: 25 * time.Millisecond,
		PingTimeout:  3 * time.Second,
		ReconnectMin: 10 * time.Millisecond,
		ReconnectMax: 50 * time.Millisecond,
		OpenTimeout:  30 * time.Second,
		CloseTimeout: 30 * time.Second,
	}
}

// openN opens a session with an n-frame in-flight window and no
// deadline — the shape almost every test wants.
func openN(d *Dispatcher, p *serve.Pipeline, n int) (serve.SessionHandle, error) {
	return d.Open(p, serve.OpenOptions{MaxInFlight: n})
}

// sessionOf finds the dispatcher-side session behind an open handle by
// identity, through the worker tables that hold its partitions; nil
// once no worker hosts it (ended, or between workers mid-recovery).
func sessionOf(d *Dispatcher, h serve.SessionHandle) *session {
	for _, w := range d.snapshot() {
		for _, half := range w.residents() {
			if serve.SessionHandle(half.ps) == h {
				return half.ps
			}
		}
	}
	return nil
}

// hostAddr reports the address of the worker hosting partition 0 of the
// session — the whole session, for a one-partition plan — as its
// /metrics row lists it, or "" while no worker hosts it.
func hostAddr(d *Dispatcher, h serve.SessionHandle) string {
	if ps := sessionOf(d, h); ps != nil {
		if ws := ps.row().Workers; len(ws) > 0 {
			return ws[0]
		}
	}
	return ""
}

// allNodes lists every node of the pipeline's compiled graph: the node
// set of the one-partition plan a whole session opens with.
func allNodes(p *serve.Pipeline) []string {
	var names []string
	for _, n := range p.Graph().Nodes() {
		names = append(names, n.Name())
	}
	return names
}

func suiteRegistry(t *testing.T, ids ...string) *serve.Registry {
	t.Helper()
	reg := serve.NewRegistry(machine.Embedded())
	if err := reg.AddSuite(ids...); err != nil {
		t.Fatal(err)
	}
	return reg
}

// batchFrames computes the batch-runtime golden for an app, compiled
// exactly like the registry compiles it.
func batchFrames(t *testing.T, app *apps.App, frames int) map[string][][]frame.Window {
	t.Helper()
	c, err := core.Compile(app.Graph.Clone(), core.Config{
		Machine:        machine.Embedded(),
		Align:          transform.Trim,
		Parallelize:    true,
		BufferStriping: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := runtime.Run(c.Graph, runtime.Options{Frames: frames, Sources: app.Sources})
	if err != nil {
		t.Fatal(err)
	}
	out := make(map[string][][]frame.Window)
	for _, o := range c.Graph.Outputs() {
		out[o.Name()] = res.FrameSlices(o.Name())
	}
	return out
}

// streamCluster runs `frames` worker-generated frames through a
// cluster session and compares each against the batch golden.
func streamCluster(d *Dispatcher, p *serve.Pipeline, frames int, want map[string][][]frame.Window) error {
	h, err := openN(d, p, frames)
	if err != nil {
		return fmt.Errorf("open: %w", err)
	}
	return streamSession(h, frames, want)
}

// streamSession drives an already-open handle and closes it.
func streamSession(h serve.SessionHandle, frames int, want map[string][][]frame.Window) error {
	for f := 0; f < frames; f++ {
		if _, err := h.TryFeed(nil); err != nil {
			h.Close()
			return fmt.Errorf("feed %d: %w", f, err)
		}
	}
	for f := 0; f < frames; f++ {
		res, err := h.Collect(30 * time.Second)
		if err != nil {
			h.Close()
			return fmt.Errorf("collect %d: %w", f, err)
		}
		if res.Seq != int64(f) {
			h.Close()
			return fmt.Errorf("collect %d: result tagged frame %d", f, res.Seq)
		}
		if len(res.Outputs) != len(want) {
			h.Close()
			return fmt.Errorf("frame %d: %d outputs, want %d", f, len(res.Outputs), len(want))
		}
		for name, perFrame := range want {
			got := res.Outputs[name]
			if len(got) != len(perFrame[f]) {
				h.Close()
				return fmt.Errorf("frame %d output %q: %d windows, want %d", f, name, len(got), len(perFrame[f]))
			}
			for i, w := range perFrame[f] {
				if !got[i].Equal(w) {
					h.Close()
					return fmt.Errorf("frame %d output %q window %d differs from batch golden", f, name, i)
				}
			}
		}
		for _, ws := range res.Outputs {
			for _, w := range ws {
				w.Release()
			}
		}
	}
	return h.Close()
}

// TestClusterSuiteGoldens is the acceptance bar: every Figure 13 app
// streamed through the full wire path — frontend dispatcher, TCP
// loopback, worker-side session — produces frames byte-identical to the
// batch runtime, with poisoning and the zero-copy plane on (see
// poison_test.go). The worker starts with an empty registry, so the
// test also covers EnsurePipeline's suite compilation.
func TestClusterSuiteGoldens(t *testing.T) {
	frontend := suiteRegistry(t)
	worker := NewWorker(serve.NewRegistry(machine.Embedded()), WorkerOptions{Name: "golden"})
	d, stop, err := Loopback(worker, fastOpts())
	if err != nil {
		t.Fatal(err)
	}
	defer stop()

	const frames = 2
	var wg sync.WaitGroup
	errs := make(chan error, len(apps.IDs()))
	for _, id := range apps.IDs() {
		app, err := apps.ByID(id)
		if err != nil {
			t.Fatal(err)
		}
		want := batchFrames(t, app, frames)
		p, ok := frontend.Get(id)
		if !ok {
			t.Fatalf("pipeline %q missing from frontend registry", id)
		}
		wg.Add(1)
		go func(id string) {
			defer wg.Done()
			if err := streamCluster(d, p, frames, want); err != nil {
				errs <- fmt.Errorf("pipeline %s: %w", id, err)
			}
		}(id)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}

	stats := d.BackendStats().(map[string]any)["workers"].([]WorkerStats)
	if len(stats) != 1 {
		t.Fatalf("got %d worker rows, want 1", len(stats))
	}
	s := stats[0]
	if s.State != "connected" {
		t.Errorf("worker row %+v, want connected", s)
	}
	if s.FramesRouted == 0 || s.ResultsReceived == 0 {
		t.Errorf("worker row %+v, want nonzero traffic counters", s)
	}
	if s.Name != "golden" {
		t.Errorf("worker name %q, want %q", s.Name, "golden")
	}
}

// TestClusterExplicitInputs feeds client-supplied windows (the wire
// codec's window path end to end) and checks against the batch golden
// with the same explicit inputs.
func TestClusterExplicitInputs(t *testing.T) {
	reg := suiteRegistry(t, "5")
	p, _ := reg.Get("5")
	worker := NewWorker(reg, WorkerOptions{})
	d, stop, err := Loopback(worker, fastOpts())
	if err != nil {
		t.Fatal(err)
	}
	defer stop()

	app, err := apps.ByID("5")
	if err != nil {
		t.Fatal(err)
	}
	// The explicit input replays what the app source would generate, so
	// the batch golden (which uses the sources) stays the reference.
	in := p.Graph().Inputs()[0]
	gen := app.Sources[in.Name()]
	if gen == nil {
		gen = frame.Gradient
	}
	want := batchFrames(t, app, 2)

	h, err := openN(d, p, 2)
	if err != nil {
		t.Fatal(err)
	}
	defer h.Close()
	for f := int64(0); f < 2; f++ {
		win := gen(f, in.FrameSize.W, in.FrameSize.H)
		if _, err := h.TryFeed(map[string]frame.Window{in.Name(): win}); err != nil {
			t.Fatalf("feed %d: %v", f, err)
		}
		res, err := h.Collect(30 * time.Second)
		if err != nil {
			t.Fatalf("collect %d: %v", f, err)
		}
		for name, perFrame := range want {
			for i, w := range perFrame[f] {
				if !res.Outputs[name][i].Equal(w) {
					t.Fatalf("frame %d output %q window %d differs", f, name, i)
				}
			}
		}
		for _, ws := range res.Outputs {
			for _, w := range ws {
				w.Release()
			}
		}
	}

	// Bad frames bounce locally with the runtime's error vocabulary.
	if _, err := h.TryFeed(map[string]frame.Window{"nope": frame.NewWindow(1, 1)}); !errors.Is(err, runtime.ErrBadFrame) {
		t.Errorf("unknown input: got %v, want ErrBadFrame", err)
	}
	if _, err := h.TryFeed(map[string]frame.Window{in.Name(): frame.NewWindow(1, 1)}); !errors.Is(err, runtime.ErrBadFrame) {
		t.Errorf("wrong dims: got %v, want ErrBadFrame", err)
	}
}

// TestClusterBackpressure checks the credit protocol surfaces exactly
// the local backpressure signal: maxInFlight uncollected frames block
// the next feed with ErrQueueFull, and collecting reopens the slot.
func TestClusterBackpressure(t *testing.T) {
	reg := suiteRegistry(t, "5")
	p, _ := reg.Get("5")
	worker := NewWorker(reg, WorkerOptions{})
	d, stop, err := Loopback(worker, fastOpts())
	if err != nil {
		t.Fatal(err)
	}
	defer stop()

	h, err := openN(d, p, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer h.Close()
	if _, err := h.TryFeed(nil); err != nil {
		t.Fatal(err)
	}
	if _, err := h.TryFeed(nil); !errors.Is(err, runtime.ErrQueueFull) {
		t.Fatalf("feed past maxInFlight=1: got %v, want ErrQueueFull", err)
	}
	res, err := h.Collect(30 * time.Second)
	if err != nil {
		t.Fatal(err)
	}
	for _, ws := range res.Outputs {
		for _, w := range ws {
			w.Release()
		}
	}
	// The credit may still be in flight right after collect; it must
	// arrive promptly.
	deadline := time.Now().Add(5 * time.Second)
	for {
		if _, err = h.TryFeed(nil); err == nil {
			break
		}
		if !errors.Is(err, runtime.ErrQueueFull) || time.Now().After(deadline) {
			t.Fatalf("feed after collect: %v", err)
		}
		time.Sleep(time.Millisecond)
	}
	if res, err := h.Collect(30 * time.Second); err != nil {
		t.Fatal(err)
	} else {
		for _, ws := range res.Outputs {
			for _, w := range ws {
				w.Release()
			}
		}
	}

	// With nothing in flight, a bounded collect times out with the
	// typed error the HTTP layer maps to 504, its text unchanged.
	if _, err := h.Collect(10 * time.Millisecond); !errors.Is(err, runtime.ErrCollectTimeout) || !strings.Contains(err.Error(), "session collect timed out after") {
		t.Fatalf("collect with nothing in flight: got %v, want timeout", err)
	}
}

// TestClusterCollectReopensWindow is the regression test for the credit
// race: the feed window is fed-minus-collected and nothing else, so a
// Collect must reopen a slot for the very next TryFeed — with no retry
// loop. Gating live feeds on the worker's Credit frame, which trails its
// Result on the wire, made the feed right after a collect fail with
// ErrQueueFull whenever it beat the credit; the tap holds every Credit
// back a few milliseconds so it always would.
func TestClusterCollectReopensWindow(t *testing.T) {
	reg := suiteRegistry(t, "5")
	p, _ := reg.Get("5")
	worker := NewWorker(reg, WorkerOptions{})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go worker.Serve(tapListener{Listener: ln, tap: func(typ wire.MsgType, _ uint64) bool {
		if typ == wire.TypeCredit {
			time.Sleep(3 * time.Millisecond)
		}
		return false
	}})
	defer worker.Close()
	d := NewDispatcher([]string{ln.Addr().String()}, fastOpts())
	defer d.Close()
	if err := d.WaitReady(5 * time.Second); err != nil {
		t.Fatal(err)
	}

	const window = 4
	h, err := openN(d, p, window)
	if err != nil {
		t.Fatal(err)
	}
	defer h.Close()
	for f := 0; f < window; f++ {
		if _, err := h.TryFeed(nil); err != nil {
			t.Fatalf("feed %d: %v", f, err)
		}
	}
	for i := 0; i < 200; i++ {
		res, err := h.Collect(30 * time.Second)
		if err != nil {
			t.Fatalf("collect %d: %v", i, err)
		}
		serveReleaseOutputs(res.Outputs)
		if _, err := h.TryFeed(nil); err != nil {
			t.Fatalf("feed right after collect %d: %v", i, err)
		}
	}
}

// waitCondition polls until ok or the deadline.
func waitCondition(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func workerRows(d *Dispatcher) map[string]WorkerStats {
	rows := d.BackendStats().(map[string]any)["workers"].([]WorkerStats)
	out := make(map[string]WorkerStats, len(rows))
	for _, r := range rows {
		out[r.Addr] = r
	}
	return out
}

// TestClusterWorkerFailureIsolated is the failure-semantics acceptance
// test with failover disabled (ReplayBudget < 0): with sessions spread
// over two workers, killing one mid-stream fails exactly its own
// sessions — with a typed serve.ErrSessionLost naming the worker — the
// frontend keeps serving and placing on the survivor, the dead worker's
// row reads down, and a worker rejoining at the same address is
// accepted and used again. (Failover-enabled recovery is covered in
// failover_test.go.)
func TestClusterWorkerFailureIsolated(t *testing.T) {
	reg1 := suiteRegistry(t, "5")
	reg2 := suiteRegistry(t, "5")
	w1 := NewWorker(reg1, WorkerOptions{Name: "w1"})
	w2 := NewWorker(reg2, WorkerOptions{Name: "w2"})
	ln1, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ln2, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr1, addr2 := ln1.Addr().String(), ln2.Addr().String()
	gate := newResultGate()
	go w1.Serve(tapListener{Listener: ln1, tap: gate.tap})
	go w2.Serve(tapListener{Listener: ln2, tap: gate.tap})
	defer w1.Close()
	defer w2.Close()

	opts := fastOpts()
	opts.ReplayBudget = -1 // isolated-failure semantics: no failover
	d := NewDispatcher([]string{addr1, addr2}, opts)
	defer d.Close()
	waitCondition(t, "both workers connected", func() bool {
		rows := workerRows(d)
		return rows[addr1].State == "connected" && rows[addr2].State == "connected"
	})

	frontend := suiteRegistry(t, "5")
	p, _ := frontend.Get("5")

	// Least-loaded placement spreads two sessions over the two workers.
	hA, err := openN(d, p, 2)
	if err != nil {
		t.Fatal(err)
	}
	hB, err := openN(d, p, 2)
	if err != nil {
		t.Fatal(err)
	}
	addrA, addrB := hostAddr(d, hA), hostAddr(d, hB)
	if addrA == addrB {
		t.Fatalf("both sessions placed on %s; want them spread", addrA)
	}

	feedCollect := func(h serve.SessionHandle) error {
		if _, err := h.TryFeed(nil); err != nil {
			return err
		}
		res, err := h.Collect(30 * time.Second)
		if err != nil {
			return err
		}
		for _, ws := range res.Outputs {
			for _, w := range ws {
				w.Release()
			}
		}
		return nil
	}
	if err := feedCollect(hA); err != nil {
		t.Fatalf("session A healthy stream: %v", err)
	}
	if err := feedCollect(hB); err != nil {
		t.Fatalf("session B healthy stream: %v", err)
	}

	// Kill session A's worker mid-stream.
	victim, victimName := w1, "w1"
	if addrA == addr2 {
		victim, victimName = w2, "w2"
	}
	// Its result stays on the worker until the worker is gone.
	gate.hold()
	if _, err := hA.TryFeed(nil); err != nil {
		t.Fatal(err)
	}
	victim.Close()
	gate.release()

	// A's stream fails with a typed ErrSessionLost naming its worker...
	_, err = hA.Collect(10 * time.Second)
	if err == nil {
		t.Fatal("collect on killed worker's session succeeded")
	}
	if !errors.Is(err, serve.ErrSessionLost) {
		t.Errorf("failure error %q, want serve.ErrSessionLost", err)
	}
	if !strings.Contains(err.Error(), addrA) && !strings.Contains(err.Error(), victimName) {
		t.Errorf("failure error %q does not name worker %s (%s)", err, victimName, addrA)
	}
	if _, err := hA.TryFeed(nil); err == nil || errors.Is(err, runtime.ErrQueueFull) {
		t.Errorf("feed on failed session: got %v, want terminal error", err)
	}
	hA.Close()

	// ...while B and new placements keep working.
	if err := feedCollect(hB); err != nil {
		t.Fatalf("survivor session after kill: %v", err)
	}
	hC, err := openN(d, p, 2)
	if err != nil {
		t.Fatalf("open after worker death: %v", err)
	}
	if got := hostAddr(d, hC); got != addrB {
		t.Errorf("new session placed on dead worker %s", got)
	}
	if err := feedCollect(hC); err != nil {
		t.Fatalf("new session after kill: %v", err)
	}
	hC.Close()

	// The dead worker reads down while its redials fail.
	waitCondition(t, "dead worker down", func() bool {
		return workerRows(d)[addrA].State == "down"
	})

	// Rejoin at the same address: the dispatcher reconnects and places
	// sessions there again.
	var reg3 *serve.Registry
	reg3 = suiteRegistry(t, "5")
	w3 := NewWorker(reg3, WorkerOptions{Name: victimName + "-rejoined"})
	var ln3 net.Listener
	waitCondition(t, "rebind worker address", func() bool {
		ln3, err = net.Listen("tcp", addrA)
		return err == nil
	})
	go w3.Serve(ln3)
	defer w3.Close()
	waitCondition(t, "rejoined worker connected", func() bool {
		return workerRows(d)[addrA].State == "connected"
	})
	if rows := workerRows(d); rows[addrA].Reconnects == 0 {
		t.Errorf("rejoined worker row %+v, want nonzero reconnects", rows[addrA])
	}

	// B still holds a session on the survivor, so the least-loaded
	// choice is the rejoined worker.
	hD, err := openN(d, p, 2)
	if err != nil {
		t.Fatalf("open after rejoin: %v", err)
	}
	if got := hostAddr(d, hD); got != addrA {
		t.Errorf("post-rejoin session placed on %s, want rejoined %s", got, addrA)
	}
	if err := feedCollect(hD); err != nil {
		t.Fatalf("stream on rejoined worker: %v", err)
	}
	hD.Close()
	if err := hB.Close(); err != nil {
		t.Errorf("survivor close: %v", err)
	}
}

// TestClusterWorkerDrain checks -drain semantics end to end: Shutdown
// lets every fed frame finish and flush its result before sessions
// close, and the frontend sees the drain notice, not a connection
// error.
func TestClusterWorkerDrain(t *testing.T) {
	reg := suiteRegistry(t, "5")
	p, _ := reg.Get("5")
	worker := NewWorker(reg, WorkerOptions{})
	d, stop, err := Loopback(worker, fastOpts())
	if err != nil {
		t.Fatal(err)
	}
	defer stop()

	h, err := openN(d, p, 3)
	if err != nil {
		t.Fatal(err)
	}
	for f := 0; f < 3; f++ {
		if _, err := h.TryFeed(nil); err != nil {
			t.Fatalf("feed %d: %v", f, err)
		}
	}

	shutdownErr := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		shutdownErr <- worker.Shutdown(ctx)
	}()

	// All three in-flight frames must still arrive.
	for f := int64(0); f < 3; f++ {
		res, err := h.Collect(30 * time.Second)
		if err != nil {
			t.Fatalf("collect %d during drain: %v", f, err)
		}
		if res.Seq != f {
			t.Fatalf("collect during drain: frame %d, want %d", res.Seq, f)
		}
		for _, ws := range res.Outputs {
			for _, w := range ws {
				w.Release()
			}
		}
	}
	if err := <-shutdownErr; err != nil {
		t.Fatalf("drain shutdown: %v", err)
	}

	// The session ends with the drain notice and refuses further feeds.
	waitCondition(t, "session to observe drain close", func() bool {
		_, err := h.TryFeed(nil)
		return err != nil && !errors.Is(err, runtime.ErrQueueFull)
	})
	if _, err := h.TryFeed(nil); err == nil || !strings.Contains(err.Error(), "draining") {
		t.Errorf("feed after drain: got %v, want draining notice", err)
	}
	h.Close()
}

// TestClusterConcurrentFeeders hammers one session from several
// goroutines, the access pattern serve's /frames handler produces. The
// session's send lock must keep Feed frames in Seq order on the wire —
// the worker tears the session down on any sequence gap — so every
// frame must complete in order with no session failure.
func TestClusterConcurrentFeeders(t *testing.T) {
	reg := suiteRegistry(t, "5")
	p, _ := reg.Get("5")
	worker := NewWorker(reg, WorkerOptions{})
	d, stop, err := Loopback(worker, fastOpts())
	if err != nil {
		t.Fatal(err)
	}
	defer stop()

	const frames, feeders = 128, 8
	h, err := openN(d, p, 16)
	if err != nil {
		t.Fatal(err)
	}
	var next atomic.Int64
	errc := make(chan error, feeders)
	var wg sync.WaitGroup
	for i := 0; i < feeders; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for next.Add(1) <= frames {
				for {
					if _, err := h.TryFeed(nil); err == nil {
						break
					} else if !errors.Is(err, runtime.ErrQueueFull) {
						errc <- err
						return
					}
					time.Sleep(time.Millisecond)
				}
			}
		}()
	}
	for f := int64(0); f < frames; f++ {
		res, err := h.Collect(30 * time.Second)
		if err != nil {
			t.Fatalf("collect %d: %v", f, err)
		}
		if res.Seq != f {
			t.Fatalf("collect %d returned frame %d", f, res.Seq)
		}
		for _, ws := range res.Outputs {
			for _, w := range ws {
				w.Release()
			}
		}
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Errorf("feeder: %v", err)
	}
	if err := h.Close(); err != nil {
		t.Errorf("close: %v", err)
	}
}

// TestClusterFeedReleasesPooledInputs checks the cluster handle honors
// the runtime Feed ownership contract: pooled input windows handed to a
// successful TryFeed belong to the transport, which releases them once
// their samples are encoded. Every arena reference the stream created
// must return after the session closes.
func TestClusterFeedReleasesPooledInputs(t *testing.T) {
	reg := suiteRegistry(t, "5")
	p, _ := reg.Get("5")
	worker := NewWorker(reg, WorkerOptions{})
	d, stop, err := Loopback(worker, fastOpts())
	if err != nil {
		t.Fatal(err)
	}
	defer stop()

	in := p.Graph().Inputs()[0]
	base := frame.Stats().Live
	h, err := openN(d, p, 2)
	if err != nil {
		t.Fatal(err)
	}
	for f := int64(0); f < 2; f++ {
		win := frame.Alloc(in.FrameSize.W, in.FrameSize.H)
		if !win.Pooled() {
			t.Skip("input shape outside the arena's bucket range")
		}
		if _, err := h.TryFeed(map[string]frame.Window{in.Name(): win}); err != nil {
			t.Fatalf("feed %d: %v", f, err)
		}
		res, err := h.Collect(30 * time.Second)
		if err != nil {
			t.Fatalf("collect %d: %v", f, err)
		}
		for _, ws := range res.Outputs {
			for _, w := range ws {
				w.Release()
			}
		}
	}
	if err := h.Close(); err != nil {
		t.Fatal(err)
	}
	waitCondition(t, "arena references to return to baseline", func() bool {
		return frame.Stats().Live <= base
	})
}

// fakeWorker serves the wire protocol with scripted per-message
// behavior, for failure modes the real Worker cannot produce on demand.
// Pings are always answered so health checks stay green.
func fakeWorker(t *testing.T, handle func(c *wire.Conn, m wire.Msg)) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	go func() {
		for {
			nc, err := ln.Accept()
			if err != nil {
				return
			}
			c := wire.NewConn(nc)
			if err := c.AcceptHandshake("fake", nil); err != nil {
				c.Close()
				continue
			}
			go func() {
				defer c.Close()
				for {
					m, err := c.Read()
					if err != nil {
						return
					}
					if p, ok := m.(*wire.Ping); ok {
						c.Write(&wire.Pong{Nonce: p.Nonce})
						continue
					}
					handle(c, m)
				}
			}()
		}
	}()
	return ln.Addr().String()
}

// TestClusterEnsureRetryAfterTimeout: a worker that never answers the
// first EnsurePipeline must not wedge later ensures of the same
// pipeline — the timed-out waiter leaves the list, so the next open
// sends a fresh request instead of waiting behind the dead one.
func TestClusterEnsureRetryAfterTimeout(t *testing.T) {
	reg := suiteRegistry(t, "5")
	p, _ := reg.Get("5")
	var ensures atomic.Int64
	addr := fakeWorker(t, func(c *wire.Conn, m wire.Msg) {
		switch m := m.(type) {
		case *wire.EnsurePipeline:
			if ensures.Add(1) == 1 {
				return // swallow the first request
			}
			c.Write(&wire.PipelineReady{ID: m.ID})
		case *wire.OpenPartition:
			c.Write(&wire.SessionOpened{SID: m.SID})
		case *wire.CloseSession:
			c.Write(&wire.SessionClosed{SID: m.SID})
		}
	})
	opts := fastOpts()
	opts.OpenTimeout = 200 * time.Millisecond
	d := NewDispatcher([]string{addr}, opts)
	defer d.Close()
	if err := d.WaitReady(5 * time.Second); err != nil {
		t.Fatal(err)
	}
	if _, err := openN(d, p, 1); err == nil || !strings.Contains(err.Error(), "timed out") {
		t.Fatalf("open with swallowed ensure: got %v, want ensure timeout", err)
	}
	h, err := openN(d, p, 1)
	if err != nil {
		t.Fatalf("open after ensure timeout: %v", err)
	}
	if n := ensures.Load(); n != 2 {
		t.Errorf("worker saw %d ensure requests, want 2", n)
	}
	if err := h.Close(); err != nil {
		t.Errorf("close: %v", err)
	}
}

// TestClusterUnsolicitedCloseDuringOpen: a SessionClosed racing right
// behind the SessionOpened reply must still reach the session — its
// half is registered before OpenPartition hits the wire — so the
// worker's failure surfaces immediately, from the open itself when the
// notice wins the race with the co-schedule and from Close otherwise,
// instead of burning the full CloseTimeout.
func TestClusterUnsolicitedCloseDuringOpen(t *testing.T) {
	reg := suiteRegistry(t, "5")
	p, _ := reg.Get("5")
	addr := fakeWorker(t, func(c *wire.Conn, m wire.Msg) {
		switch m := m.(type) {
		case *wire.EnsurePipeline:
			c.Write(&wire.PipelineReady{ID: m.ID})
		case *wire.OpenPartition:
			c.Write(&wire.SessionOpened{SID: m.SID})
			c.Write(&wire.SessionClosed{SID: m.SID, Err: "synthetic immediate failure"})
		}
	})
	d := NewDispatcher([]string{addr}, fastOpts())
	defer d.Close()
	if err := d.WaitReady(5 * time.Second); err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	h, err := openN(d, p, 1)
	if err == nil {
		err = h.Close()
	}
	if err == nil || !strings.Contains(err.Error(), "synthetic immediate failure") {
		t.Fatalf("close after unsolicited SessionClosed: got %v, want the worker's failure", err)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("close took %v; the unsolicited SessionClosed was dropped", elapsed)
	}
}

// TestDispatcherUnavailable checks placement failure maps to
// serve.ErrUnavailable (HTTP 503) and counts in shed_total whenever
// nothing can place: a listed worker that is unreachable, or a fleet
// nobody has joined.
func TestDispatcherUnavailable(t *testing.T) {
	reg := suiteRegistry(t, "5")
	p, _ := reg.Get("5")
	opts := fastOpts()
	opts.Dial = func(addr string) (net.Conn, error) {
		return nil, errors.New("synthetic dial failure")
	}
	fleet := registry.NewFleet(registry.FleetOptions{Frontend: "empty"})
	defer fleet.Close()
	for name, d := range map[string]*Dispatcher{
		"unreachable list": NewDispatcher([]string{"127.0.0.1:1"}, opts),
		"empty fleet":      NewRegisteredDispatcher(fleet, opts),
	} {
		defer d.Close()
		if _, err := openN(d, p, 1); !errors.Is(err, serve.ErrUnavailable) {
			t.Fatalf("%s: open got %v, want ErrUnavailable", name, err)
		}
		if n := d.BackendStats().(map[string]any)["shed_total"].(int64); n != 1 {
			t.Errorf("%s: shed_total = %d, want 1", name, n)
		}
		if r := d.Readiness(); r.Status != "unavailable" {
			t.Errorf("%s: readiness %+v, want unavailable", name, r)
		}
		if err := d.WaitReady(30 * time.Millisecond); err == nil {
			t.Fatalf("%s: WaitReady succeeded with nothing placeable", name)
		}
	}
}

// TestReplayBudgetChargesNativeWidth pins the replay log's accounting
// to what it retains: a window's samples at their native width. The
// same Bayer pipeline is streamed with explicit inputs as f64 (app 1)
// and as u8 (app 1u8) under a ReplayBudget of four f64 frames; the f64
// session must log exactly four frames before the budget trips, and the
// u8 session — an eighth of the bytes per frame — exactly thirty-two.
// Charging every sample at eight bytes spent a u8 session's budget
// eight times too fast.
func TestReplayBudgetChargesNativeWidth(t *testing.T) {
	logged := func(id string) int {
		reg := suiteRegistry(t, id)
		p, _ := reg.Get(id)
		in := p.Graph().Inputs()[0]
		opts := fastOpts()
		opts.ReplayBudget = 4 * int64(in.FrameSize.W) * int64(in.FrameSize.H) * 8
		d, stop, err := Loopback(NewWorker(reg, WorkerOptions{}), opts)
		if err != nil {
			t.Fatal(err)
		}
		defer stop()
		h, err := openN(d, p, 2)
		if err != nil {
			t.Fatal(err)
		}
		defer h.Close()
		ps := sessionOf(d, h)
		gen := p.Sources()[in.Name()]
		for f := 0; f < 64; f++ {
			win := gen(int64(f), in.FrameSize.W, in.FrameSize.H)
			if _, err := h.TryFeed(map[string]frame.Window{in.Name(): win}); err != nil {
				t.Fatalf("app %s feed %d: %v", id, f, err)
			}
			ps.mu.Lock()
			full := ps.logFull
			ps.mu.Unlock()
			if full {
				return f
			}
			res, err := h.Collect(30 * time.Second)
			if err != nil {
				t.Fatalf("app %s collect %d: %v", id, f, err)
			}
			for _, ws := range res.Outputs {
				for _, w := range ws {
					w.Release()
				}
			}
		}
		t.Fatalf("app %s: 64 frames never tripped the replay budget", id)
		return 0
	}
	if n := logged("1"); n != 4 {
		t.Errorf("f64 session logged %d frames under a 4-frame budget, want 4", n)
	}
	if n := logged("1u8"); n != 32 {
		t.Errorf("u8 session logged %d frames under a budget of 4 f64 frames, want 32", n)
	}
}
