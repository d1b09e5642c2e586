package cluster

import (
	"errors"
	"fmt"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"blockpar/internal/apps"
	"blockpar/internal/frame"
	"blockpar/internal/machine"
	"blockpar/internal/runtime"
	"blockpar/internal/serve"
)

// partitionedFleet starts n empty-registry workers and a dispatcher
// that splits every session n ways.
func partitionedFleet(t *testing.T, n int) (*Dispatcher, []*Worker, func()) {
	t.Helper()
	return partitionedFleetN(t, n, n, fastOpts())
}

// partitionedFleetN starts `workers` empty-registry workers and a
// dispatcher that splits every session `parts` ways — a fleet larger
// than the split leaves spare workers for recovery to land on.
func partitionedFleetN(t *testing.T, workers, parts int, opts DispatcherOptions) (*Dispatcher, []*Worker, func()) {
	t.Helper()
	opts.Partitions = parts
	d, ws, stop, err := LoopbackFleet(workers, opts, func(i int) *Worker {
		return NewWorker(serve.NewRegistry(machine.Embedded()), WorkerOptions{Name: fmt.Sprintf("w%d", i)})
	})
	if err != nil {
		t.Fatal(err)
	}
	return d, ws, stop
}

// splitSession returns the session behind h, requiring that placement
// genuinely split it.
func splitSession(t *testing.T, d *Dispatcher, h serve.SessionHandle) *session {
	t.Helper()
	ps := sessionOf(d, h)
	if ps == nil || len(ps.plan.Partitions) < 2 {
		t.Fatalf("placement did not split pipeline 5: %+v", d.BackendStats().(map[string]any)["sessions"])
	}
	return ps
}

// partitionWorker maps one partition half to the in-process Worker
// hosting it, via the name the worker reported in its Welcome.
func partitionWorker(t *testing.T, workers []*Worker, h *partitionHalf) *Worker {
	t.Helper()
	h.w.mu.Lock()
	name := h.w.name
	h.w.mu.Unlock()
	for _, w := range workers {
		if w.Name() == name {
			return w
		}
	}
	t.Fatalf("no in-process worker named %q hosts partition %d", name, h.idx)
	return nil
}

// TestPartitionedSuiteGoldens is the tentpole acceptance bar: every
// Figure 13 app streamed through a partitioned session — the graph
// split across 2 and then 3 workers, cut edges relayed through the
// dispatcher — produces frames byte-identical to the batch runtime,
// with poisoning and the zero-copy plane on (see poison_test.go).
// Pipelines whose placement collapses run as one partition; at least one app must
// genuinely partition or the test is vacuous.
func TestPartitionedSuiteGoldens(t *testing.T) {
	for _, workers := range []int{2, 3} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			frontend := suiteRegistry(t)
			d, _, stop := partitionedFleet(t, workers)
			defer stop()

			const frames = 2
			split := 0
			var wg sync.WaitGroup
			errs := make(chan error, len(apps.IDs()))
			for _, id := range apps.IDs() {
				app, err := apps.ByID(id)
				if err != nil {
					t.Fatal(err)
				}
				want := batchFrames(t, app, frames)
				p, _ := frontend.Get(id)
				if plan, err := d.plan(p, workers); err != nil {
					t.Fatalf("plan %s: %v", id, err)
				} else if len(plan.Partitions) >= 2 {
					split++
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
			if split == 0 {
				t.Error("every placement collapsed to one partition; the cut-edge path went unexercised")
			}
		})
	}
}

// TestPartitionedExplicitInputs routes client-supplied windows to the
// partition owning each input node and checks the stream against the
// batch golden, plus the local validation error vocabulary.
func TestPartitionedExplicitInputs(t *testing.T) {
	frontend := suiteRegistry(t, "5")
	p, _ := frontend.Get("5")
	d, _, stop := partitionedFleet(t, 2)
	defer stop()

	app, err := apps.ByID("5")
	if err != nil {
		t.Fatal(err)
	}
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
	if _, err := h.TryFeed(map[string]frame.Window{"nope": frame.NewWindow(1, 1)}); !errors.Is(err, runtime.ErrBadFrame) {
		t.Errorf("unknown input: got %v, want ErrBadFrame", err)
	}
}

// TestPartitionedBackpressure checks the global feed window: with one
// frame in flight and maxInFlight=1, the next feed sheds ErrQueueFull
// until the merged result is collected.
func TestPartitionedBackpressure(t *testing.T) {
	frontend := suiteRegistry(t, "5")
	p, _ := frontend.Get("5")
	d, _, stop := partitionedFleet(t, 2)
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
	if _, err := h.TryFeed(nil); err != nil {
		t.Fatalf("feed after collect: %v", err)
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
}

// TestPartitionedSessionStats checks the /metrics sessions table: one
// deduplicated row per open partitioned session listing every hosting
// worker, the partition count, and zero replay bytes (nothing has been
// fed yet, so the failover log is empty).
func TestPartitionedSessionStats(t *testing.T) {
	frontend := suiteRegistry(t, "5")
	p, _ := frontend.Get("5")
	d, _, stop := partitionedFleet(t, 2)
	defer stop()

	h, err := openN(d, p, 2)
	if err != nil {
		t.Fatal(err)
	}
	defer h.Close()
	ps := splitSession(t, d, h)
	rows := d.BackendStats().(map[string]any)["sessions"].([]SessionStats)
	if len(rows) != 1 {
		t.Fatalf("got %d session rows, want 1 (deduplicated): %+v", len(rows), rows)
	}
	r := rows[0]
	if r.Pipeline != "5" || r.Partitions != len(ps.halves) || r.ReplayBytes != 0 {
		t.Errorf("session row %+v, want pipeline 5 with %d partitions and no replay bytes", r, len(ps.halves))
	}
	if len(r.Workers) != len(ps.halves) {
		t.Errorf("session row lists workers %v, want %d distinct", r.Workers, len(ps.halves))
	}
	seen := make(map[string]bool)
	for _, addr := range r.Workers {
		if seen[addr] {
			t.Errorf("worker %s hosts two partitions of one session", addr)
		}
		seen[addr] = true
	}
}

// TestPartitionedInsufficientWorkers: a 2-way split over a fleet with
// one placeable worker degrades to the one-partition plan on that
// worker instead of co-locating partitions, refusing service, or
// hanging.
func TestPartitionedInsufficientWorkers(t *testing.T) {
	frontend := suiteRegistry(t, "5")
	p, _ := frontend.Get("5")
	app, err := apps.ByID("5")
	if err != nil {
		t.Fatal(err)
	}
	opts := fastOpts()
	opts.Partitions = 2
	worker := NewWorker(suiteRegistry(t, "5"), WorkerOptions{})
	d, stop, err := Loopback(worker, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer stop()
	h, err := openN(d, p, 2)
	if err != nil {
		t.Fatalf("2-way split on 1 worker: got %v, want whole-session fallback", err)
	}
	defer h.Close()
	if rows := d.BackendStats().(map[string]any)["sessions"].([]SessionStats); len(rows) != 1 || rows[0].Partitions != 1 {
		t.Fatalf("2-way split on 1 worker placed %+v, want one partition", rows)
	}
	const frames = 2
	if err := streamSession(h, frames, batchFrames(t, app, frames)); err != nil {
		t.Fatalf("degraded whole session: %v", err)
	}
}

// TestPartitionedChaosKill is the recovery acceptance bar: killing the
// worker under any single partition mid-stream is invisible to the
// client. The dead partition is re-planned onto a survivor, reopened
// with its resume watermarks, and replayed from the dispatcher's log;
// every frame collected after the kill stays byte-identical to the
// batch golden, no Collect returns an error, Close is clean, and the
// arena drains to baseline. Both re-plan shapes run: onto a spare
// worker (3-worker fleet, 2-way split) and co-located onto the lone
// survivor (2-worker fleet).
func TestPartitionedChaosKill(t *testing.T) {
	app, err := apps.ByID("5")
	if err != nil {
		t.Fatal(err)
	}
	const frames = 6
	want := batchFrames(t, app, frames)
	for _, fleet := range []struct {
		name    string
		workers int
	}{
		{"spare", 3},
		{"colocate", 2},
	} {
		for victim := 0; victim < 2; victim++ {
			t.Run(fmt.Sprintf("%s/victim=%d", fleet.name, victim), func(t *testing.T) {
				frontend := suiteRegistry(t, "5")
				p, _ := frontend.Get("5")
				d, workers, stop := partitionedFleetN(t, fleet.workers, 2, fastOpts())
				defer stop()

				base := frame.Stats().Live
				h, err := openN(d, p, 4)
				if err != nil {
					t.Fatal(err)
				}
				ps := splitSession(t, d, h)
				ps.mu.Lock()
				halves := append([]*partitionHalf(nil), ps.halves...)
				ps.mu.Unlock()
				if len(halves) != 2 {
					t.Fatalf("placement produced %d partitions, want 2", len(halves))
				}
				victimWorker := partitionWorker(t, workers, halves[victim])

				// Stream a couple of frames to prove health, then kill with
				// a frame in flight.
				for f := 0; f < 2; f++ {
					feedRetry(t, h, nil)
					collectCompare(t, h, int64(f), want)
				}
				feedRetry(t, h, nil)
				victimWorker.Close()

				// The in-flight frame and everything after it must arrive
				// byte-identical, with no client-visible error.
				collectCompare(t, h, 2, want)
				for f := 3; f < frames; f++ {
					feedRetry(t, h, nil)
					collectCompare(t, h, int64(f), want)
				}
				waitCondition(t, "failover counter to tick", func() bool {
					return dispatcherCounter(d, "partitions_failed_over") >= 1
				})
				if err := h.Close(); err != nil {
					t.Fatalf("close after recovery: %v", err)
				}
				waitCondition(t, "arena references to return to baseline", func() bool {
					return frame.Stats().Live <= base
				})
			})
		}
	}
}

// TestPartitionedReplayBudgetExceeded pins the degraded mode: a
// partitioned session past its ReplayBudget keeps streaming, but a
// partition kill then ends it with exactly one typed
// serve.ErrSessionLost naming the budget — never a hang — and every
// arena reference (including the released replay log's) returns to
// baseline.
func TestPartitionedReplayBudgetExceeded(t *testing.T) {
	frontend := suiteRegistry(t, "5")
	p, _ := frontend.Get("5")
	opts := fastOpts()
	opts.ReplayBudget = 1 // first logged window overflows
	d, workers, stop := partitionedFleetN(t, 2, 2, opts)
	defer stop()

	base := frame.Stats().Live
	h, err := openN(d, p, 4)
	if err != nil {
		t.Fatal(err)
	}
	ps := splitSession(t, d, h)
	app, err := apps.ByID("5")
	if err != nil {
		t.Fatal(err)
	}
	want := batchFrames(t, app, 2)
	// Live streaming survives the budget overflow...
	for f := 0; f < 2; f++ {
		feedRetry(t, h, nil)
		collectCompare(t, h, int64(f), want)
	}
	ps.mu.Lock()
	logFull, logBytes := ps.logFull, ps.logBytes
	halves := append([]*partitionHalf(nil), ps.halves...)
	ps.mu.Unlock()
	if !logFull {
		t.Fatal("streamed past a 1-byte ReplayBudget without tripping logFull")
	}
	if logBytes != 0 {
		t.Fatalf("tripped log retains %d bytes, want 0 (released at overflow)", logBytes)
	}
	// ...but a partition kill is now unrecoverable: one typed error.
	feedRetry(t, h, nil)
	partitionWorker(t, workers, halves[0]).Close()

	deadline := time.Now().Add(20 * time.Second)
	var cerr error
	for {
		var res *runtime.StreamResult
		res, cerr = h.Collect(20 * time.Second)
		if res != nil {
			for _, ws := range res.Outputs {
				for _, w := range ws {
					w.Release()
				}
			}
			continue
		}
		if cerr != nil && !strings.Contains(cerr.Error(), "timed out") {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("collect after worker kill hung")
		}
	}
	if !errors.Is(cerr, serve.ErrSessionLost) {
		t.Errorf("collect after kill: got %v, want serve.ErrSessionLost", cerr)
	}
	if !strings.Contains(cerr.Error(), "replay budget") {
		t.Errorf("error %q does not name the replay budget", cerr)
	}
	if _, err := h.TryFeed(nil); err == nil || errors.Is(err, runtime.ErrQueueFull) {
		t.Errorf("feed on failed session: got %v, want terminal error", err)
	}
	h.Close()
	waitCondition(t, "arena references to return to baseline", func() bool {
		return frame.Stats().Live <= base
	})
}

// TestPartitionedDrainMigration live-migrates one partition off a
// draining worker mid-stream: DrainWorker moves it to the spare with
// zero client-visible errors, every frame stays byte-identical, the
// sessions_migrated counter ticks, and the drained worker ends up
// empty so its process can exit.
func TestPartitionedDrainMigration(t *testing.T) {
	app, err := apps.ByID("5")
	if err != nil {
		t.Fatal(err)
	}
	const frames = 6
	want := batchFrames(t, app, frames)
	frontend := suiteRegistry(t, "5")
	p, _ := frontend.Get("5")
	d, _, stop := partitionedFleetN(t, 3, 2, fastOpts())
	defer stop()

	base := frame.Stats().Live
	h, err := openN(d, p, 4)
	if err != nil {
		t.Fatal(err)
	}
	ps := splitSession(t, d, h)
	ps.mu.Lock()
	halves := append([]*partitionHalf(nil), ps.halves...)
	ps.mu.Unlock()
	victim := halves[0].w

	for f := 0; f < 2; f++ {
		feedRetry(t, h, nil)
		collectCompare(t, h, int64(f), want)
	}
	feedRetry(t, h, nil)
	if err := d.DrainWorker(victim.member); err != nil {
		t.Fatalf("drain %s: %v", victim.member, err)
	}
	collectCompare(t, h, 2, want)
	for f := 3; f < frames; f++ {
		feedRetry(t, h, nil)
		collectCompare(t, h, int64(f), want)
	}
	waitCondition(t, "migration counter to tick", func() bool {
		return dispatcherCounter(d, "sessions_migrated") >= 1
	})
	if n := victim.sessionCount(); n != 0 {
		t.Errorf("drained worker still hosts %d sessions", n)
	}
	if err := h.Close(); err != nil {
		t.Fatalf("close after migration: %v", err)
	}
	waitCondition(t, "arena references to return to baseline", func() bool {
		return frame.Stats().Live <= base
	})
	if err := d.DrainWorker("no-such-worker"); err == nil {
		t.Error("draining an unknown worker reported success")
	}
}

// TestPartitionedRollingDrainColocated drains a worker hosting BOTH
// partitions of one session — the co-located shape a shrunken fleet
// leaves behind after an earlier failover. Recoveries are serialized
// per session, so the drain must roll: the first migration's
// completion kicks the second half off the draining worker instead of
// leaving it for the worker's drain deadline to force-abort. The
// client stays byte-identical throughout and the drained worker ends
// up hosting nothing, so its process's Shutdown completes without
// abandoning work.
func TestPartitionedRollingDrainColocated(t *testing.T) {
	app, err := apps.ByID("5")
	if err != nil {
		t.Fatal(err)
	}
	const frames = 8
	want := batchFrames(t, app, frames)
	frontend := suiteRegistry(t, "5")
	p, _ := frontend.Get("5")
	d, workers, stop := partitionedFleetN(t, 2, 2, fastOpts())
	defer stop()

	base := frame.Stats().Live
	h, err := openN(d, p, 4)
	if err != nil {
		t.Fatal(err)
	}
	ps := splitSession(t, d, h)
	ps.mu.Lock()
	halves := append([]*partitionHalf(nil), ps.halves...)
	ps.mu.Unlock()

	for f := 0; f < 2; f++ {
		feedRetry(t, h, nil)
		collectCompare(t, h, int64(f), want)
	}
	// Kill one half's worker: the lone survivor co-locates both
	// partitions.
	partitionWorker(t, workers, halves[1]).Close()
	for f := 2; f < 4; f++ {
		feedRetry(t, h, nil)
		collectCompare(t, h, int64(f), want)
	}
	waitCondition(t, "failover counter to tick", func() bool {
		return dispatcherCounter(d, "partitions_failed_over") >= 1
	})
	ps.mu.Lock()
	host := ps.halves[0].w
	colocated := ps.halves[1].w == host
	hostHalf := ps.halves[0]
	ps.mu.Unlock()
	if !colocated {
		t.Fatal("partitions did not co-locate on the lone survivor")
	}
	hostWorker := partitionWorker(t, workers, hostHalf)

	// Bring a fresh worker into the fleet, then drain the co-located
	// host mid-stream: both partitions must roll onto the newcomer.
	w2 := NewWorker(serve.NewRegistry(machine.Embedded()), WorkerOptions{Name: "w2"})
	defer w2.Close()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go w2.Serve(ln)
	d.AddWorker(ln.Addr().String(), ln.Addr().String(), 0)
	waitCondition(t, "newcomer to become placeable", func() bool {
		for _, w := range d.snapshot() {
			if w.addr == ln.Addr().String() && w.placeable() {
				return true
			}
		}
		return false
	})

	feedRetry(t, h, nil)
	if err := d.DrainWorker(host.member); err != nil {
		t.Fatalf("drain %s: %v", host.member, err)
	}
	collectCompare(t, h, 4, want)
	for f := 5; f < frames; f++ {
		feedRetry(t, h, nil)
		collectCompare(t, h, int64(f), want)
	}
	waitCondition(t, "both partitions to migrate", func() bool {
		return dispatcherCounter(d, "sessions_migrated") >= 2
	})
	if n := host.sessionCount(); n != 0 {
		t.Errorf("drained worker ref still tracks %d sessions", n)
	}
	waitCondition(t, "drained worker process to empty", func() bool {
		return hostWorker.openSessions() == 0
	})
	if err := h.Close(); err != nil {
		t.Fatalf("close after rolling drain: %v", err)
	}
	waitCondition(t, "arena references to return to baseline", func() bool {
		return frame.Stats().Live <= base
	})
}

// TestPartitionedClose checks a clean close drains every partition:
// all fed frames complete, EOS crosses the cut edges, and Close
// returns nil with the arena back at baseline.
func TestPartitionedClose(t *testing.T) {
	frontend := suiteRegistry(t, "5")
	p, _ := frontend.Get("5")
	d, _, stop := partitionedFleet(t, 2)
	defer stop()

	base := frame.Stats().Live
	h, err := openN(d, p, 3)
	if err != nil {
		t.Fatal(err)
	}
	for f := 0; f < 3; f++ {
		if _, err := h.TryFeed(nil); err != nil {
			t.Fatalf("feed %d: %v", f, err)
		}
	}
	for f := int64(0); f < 3; f++ {
		res, err := h.Collect(30 * time.Second)
		if err != nil {
			t.Fatalf("collect %d: %v", f, err)
		}
		if res.Seq != f {
			t.Fatalf("collected frame %d, want %d", res.Seq, f)
		}
		for _, ws := range res.Outputs {
			for _, w := range ws {
				w.Release()
			}
		}
	}
	if err := h.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	waitCondition(t, "arena references to return to baseline", func() bool {
		return frame.Stats().Live <= base
	})
}
