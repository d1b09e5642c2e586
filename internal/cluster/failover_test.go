package cluster

import (
	"context"
	"errors"
	"fmt"
	"net"
	"strings"
	"testing"
	"time"

	"blockpar/internal/apps"
	"blockpar/internal/frame"
	"blockpar/internal/runtime"
	"blockpar/internal/serve"
	"blockpar/internal/wire"
)

// twoWorkers starts two independent workers (own registries, own
// listeners) and a dispatcher over both, returning the workers keyed by
// their address for targeted kills.
func twoWorkers(t *testing.T, opts DispatcherOptions) (*Dispatcher, map[string]*Worker) {
	t.Helper()
	byAddr := make(map[string]*Worker, 2)
	var addrs []string
	for i := 0; i < 2; i++ {
		w := NewWorker(suiteRegistry(t, "5"), WorkerOptions{Name: fmt.Sprintf("fo-w%d", i+1)})
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		go w.Serve(ln)
		t.Cleanup(func() { w.Close() })
		byAddr[ln.Addr().String()] = w
		addrs = append(addrs, ln.Addr().String())
	}
	d := NewDispatcher(addrs, opts)
	t.Cleanup(func() { d.Close() })
	waitCondition(t, "both workers connected", func() bool {
		rows := workerRows(d)
		for _, addr := range addrs {
			if rows[addr].State != "connected" {
				return false
			}
		}
		return true
	})
	return d, byAddr
}

// feedRetry feeds one frame, riding out the transient ErrQueueFull a
// failover-in-progress (or exhausted credits) presents.
func feedRetry(t *testing.T, h serve.SessionHandle, inputs map[string]frame.Window) {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for {
		_, err := h.TryFeed(inputs)
		if err == nil {
			return
		}
		if !errors.Is(err, runtime.ErrQueueFull) {
			t.Fatalf("feed: %v", err)
		}
		if time.Now().After(deadline) {
			t.Fatal("feed stuck in backpressure for 30s")
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// collectCompare collects frame f and checks it byte-identical to the
// batch golden, releasing the windows.
func collectCompare(t *testing.T, h serve.SessionHandle, f int64, want map[string][][]frame.Window) {
	t.Helper()
	res, err := h.Collect(30 * time.Second)
	if err != nil {
		t.Fatalf("collect %d: %v", f, err)
	}
	if res.Seq != f {
		t.Fatalf("collect %d: result tagged frame %d", f, res.Seq)
	}
	for name, perFrame := range want {
		got := res.Outputs[name]
		if len(got) != len(perFrame[f]) {
			t.Fatalf("frame %d output %q: %d windows, want %d", f, name, len(got), len(perFrame[f]))
		}
		for i, w := range perFrame[f] {
			if !got[i].Equal(w) {
				t.Fatalf("frame %d output %q window %d differs from batch golden after failover", f, name, i)
			}
		}
	}
	for _, ws := range res.Outputs {
		for _, w := range ws {
			w.Release()
		}
	}
}

func dispatcherCounter(d *Dispatcher, key string) int64 {
	return d.BackendStats().(map[string]any)[key].(int64)
}

// TestClusterSessionFailover is the PR's acceptance test: killing a
// session's worker mid-stream with a survivor up is invisible to the
// client. The dispatcher reopens the session elsewhere, replays the
// full feed history (generators are keyed by absolute frame index, so
// the re-run is bit-exact), dedups the replayed results, and the
// stream completes byte-identical to the batch golden with no
// client-visible error.
func TestClusterSessionFailover(t *testing.T) {
	d, byAddr := twoWorkers(t, fastOpts())

	const frames = 8
	app, err := apps.ByID("5")
	if err != nil {
		t.Fatal(err)
	}
	want := batchFrames(t, app, frames)
	frontend := suiteRegistry(t, "5")
	p, _ := frontend.Get("5")

	h, err := openN(d, p, 4)
	if err != nil {
		t.Fatal(err)
	}

	// Stream half the frames normally, collecting two so the dedup
	// watermark is ahead of zero when the replay re-delivers history.
	for f := 0; f < 4; f++ {
		feedRetry(t, h, nil)
	}
	for f := int64(0); f < 2; f++ {
		collectCompare(t, h, f, want)
	}

	// Kill the worker under the session, mid-stream.
	addr := hostAddr(d, h)
	victim := byAddr[addr]
	if victim == nil {
		t.Fatalf("session attached to unknown worker %q", addr)
	}
	victim.Close()

	// The stream continues as if nothing happened: remaining feeds see
	// at worst transient backpressure, and every frame — including the
	// in-flight ones the dead worker never finished — arrives
	// byte-identical. Collect rides along to keep the in-flight window
	// open (the session bounds fed-minus-collected at maxInFlight).
	for f := 4; f < frames; f++ {
		feedRetry(t, h, nil)
		collectCompare(t, h, int64(f-2), want)
	}
	for f := int64(frames - 2); f < frames; f++ {
		collectCompare(t, h, f, want)
	}
	// The session must have ended up on the survivor.
	if got := hostAddr(d, h); got == addr || got == "" {
		t.Errorf("session attached to %q after failover, want the survivor", got)
	}
	if err := h.Close(); err != nil {
		t.Fatalf("close after failover: %v", err)
	}

	if n := dispatcherCounter(d, "sessions_failed_over"); n < 1 {
		t.Errorf("sessions_failed_over = %d, want >= 1", n)
	}
	if n := dispatcherCounter(d, "frames_replayed"); n < 4 {
		t.Errorf("frames_replayed = %d, want >= 4 (history at kill time)", n)
	}
}

// TestClusterFailoverReplayOwnership kills a worker mid-frame while the
// session streams explicit pooled windows — the ones the replay log
// retains — and checks the arena gauge returns to baseline after the
// session closes: the log's references, the replayed encode references,
// and the duplicate results' windows all go back.
func TestClusterFailoverReplayOwnership(t *testing.T) {
	d, byAddr := twoWorkers(t, fastOpts())
	frontend := suiteRegistry(t, "5")
	p, _ := frontend.Get("5")
	in := p.Graph().Inputs()[0]

	base := frame.Stats().Live
	h, err := openN(d, p, 2)
	if err != nil {
		t.Fatal(err)
	}
	alloc := func() frame.Window {
		win := frame.Alloc(in.FrameSize.W, in.FrameSize.H)
		if !win.Pooled() {
			t.Skip("input shape outside the arena's bucket range")
		}
		return win
	}

	// One clean frame, then one fed right before the kill so the replay
	// has retained history to re-encode.
	feedRetry(t, h, map[string]frame.Window{in.Name(): alloc()})
	res, err := h.Collect(30 * time.Second)
	if err != nil {
		t.Fatal(err)
	}
	serveReleaseOutputs(res.Outputs)

	feedRetry(t, h, map[string]frame.Window{in.Name(): alloc()})
	byAddr[hostAddr(d, h)].Close()

	// The in-flight frame and one more fed across the failover still
	// complete.
	feedRetry(t, h, map[string]frame.Window{in.Name(): alloc()})
	for f := 0; f < 2; f++ {
		res, err := h.Collect(30 * time.Second)
		if err != nil {
			t.Fatalf("collect after kill: %v", err)
		}
		serveReleaseOutputs(res.Outputs)
	}
	if err := h.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	waitCondition(t, "arena references to return to baseline", func() bool {
		return frame.Stats().Live <= base
	})
}

// TestClusterFailoverShedsWithoutCapacity: with no surviving worker the
// failover window expires and the session sheds with the typed pair
// ErrSessionLost + ErrUnavailable (the HTTP layer's 503 + Retry-After),
// never a hang.
func TestClusterFailoverShedsWithoutCapacity(t *testing.T) {
	reg := suiteRegistry(t, "5")
	worker := NewWorker(suiteRegistry(t, "5"), WorkerOptions{Name: "lone"})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	gate := newResultGate()
	go worker.Serve(tapListener{Listener: ln, tap: gate.tap})
	defer worker.Close()

	opts := fastOpts()
	opts.FailoverTimeout = 300 * time.Millisecond
	d := NewDispatcher([]string{ln.Addr().String()}, opts)
	defer d.Close()
	if err := d.WaitReady(5 * time.Second); err != nil {
		t.Fatal(err)
	}
	p, _ := reg.Get("5")
	h, err := openN(d, p, 2)
	if err != nil {
		t.Fatal(err)
	}
	// The frame's result stays on the worker until the worker is gone.
	gate.hold()
	if _, err := h.TryFeed(nil); err != nil {
		t.Fatal(err)
	}
	shedBefore := dispatcherCounter(d, "shed_total")
	worker.Close()
	gate.release()

	_, err = h.Collect(10 * time.Second)
	if err == nil {
		t.Fatal("collect succeeded with no surviving worker")
	}
	if !errors.Is(err, serve.ErrSessionLost) || !errors.Is(err, serve.ErrUnavailable) {
		t.Errorf("shed error %q, want ErrSessionLost and ErrUnavailable", err)
	}
	h.Close()
	if n := dispatcherCounter(d, "shed_total"); n <= shedBefore {
		t.Errorf("shed_total = %d, want > %d", n, shedBefore)
	}
	if r := d.Readiness(); r.Status != "unavailable" {
		t.Errorf("readiness %+v, want unavailable with the only worker dead", r)
	}
}

// TestWorkerDrainTimeoutAbandoned exercises the drain timeout path
// bpworker -drain-timeout maps to a nonzero exit: a frontend that never
// closes its session makes Shutdown's context expire, and the error
// reports the abandoned work.
func TestWorkerDrainTimeoutAbandoned(t *testing.T) {
	w := NewWorker(suiteRegistry(t, "5"), WorkerOptions{Name: "drain-timeout"})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go w.Serve(ln)
	defer w.Close()

	nc, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer nc.Close()
	c := wire.NewConn(nc)
	if _, err := c.Handshake(); err != nil {
		t.Fatal(err)
	}
	p, _ := suiteRegistry(t, "5").Get("5")
	if err := c.Write(&wire.OpenPartition{SID: 1, Pipeline: "5", MaxInFlight: 2, Nodes: allNodes(p)}); err != nil {
		t.Fatal(err)
	}
	readUntil := func(match func(wire.Msg) bool) {
		t.Helper()
		for {
			m, err := c.Read()
			if err != nil {
				t.Fatalf("read: %v", err)
			}
			if r, ok := m.(*wire.Result); ok {
				releaseResult(r)
			}
			if match(m) {
				return
			}
		}
	}
	readUntil(func(m wire.Msg) bool {
		o, ok := m.(*wire.SessionOpened)
		if ok && o.Err != "" {
			t.Fatalf("open refused: %s", o.Err)
		}
		return ok
	})
	// Stream one frame to completion so the session is live but idle —
	// the timeout must be charged to the unclosed session, not to
	// in-flight work.
	if err := c.Write(&wire.Feed{SID: 1, Seq: 0}); err != nil {
		t.Fatal(err)
	}
	readUntil(func(m wire.Msg) bool { _, ok := m.(*wire.Result); return ok })

	ctx, cancel := context.WithTimeout(context.Background(), 150*time.Millisecond)
	defer cancel()
	err = w.Shutdown(ctx)
	if err == nil {
		t.Fatal("drain with an unclosed session succeeded")
	}
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Errorf("drain error %q, want context.DeadlineExceeded", err)
	}
	if !strings.Contains(err.Error(), "abandoned") || !strings.Contains(err.Error(), "1 sessions") {
		t.Errorf("drain error %q, want abandoned-work report", err)
	}
}
