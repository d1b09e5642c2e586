package runtime

import (
	"errors"
	goruntime "runtime"
	"strings"
	"testing"
	"time"

	"blockpar/internal/apps"
	"blockpar/internal/core"
)

// The tests in this file keep the names they had when they pinned the
// retired worker-pool executor against the goroutine engine. Each now
// checks the same property on the one engine, from an angle the rest of
// the package does not cover: results that do not depend on how many
// OS threads run the kernel goroutines, sessions with several frames in
// flight, and loop state, panics and kernel errors on the streaming
// path.

// runApp compiles a fresh copy of the suite app and runs it. Each call
// compiles anew because behaviors carry per-run state.
func runApp(t *testing.T, id string, frames int) *Result {
	t.Helper()
	app, err := apps.ByID(id)
	if err != nil {
		t.Fatal(err)
	}
	c, err := core.Compile(app.Graph, core.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(c.Graph, Options{Frames: frames, Sources: app.Sources})
	if err != nil {
		t.Fatalf("run %q: %v", id, err)
	}
	return res
}

// TestWorkersMatchGoroutines runs a spread of suite apps with their
// kernel goroutines on one OS thread, two, and GOMAXPROCS: every output
// item and every firing count must match a reference run exactly. The
// schedule may change with the thread count; the results may not.
func TestWorkersMatchGoroutines(t *testing.T) {
	const frames = 3
	for _, id := range []string{"1", "2", "3", "4", "5"} {
		want := runApp(t, id, frames)
		for _, procs := range []int{1, 2, 0} { // 0 = GOMAXPROCS default
			t.Run(id, func(t *testing.T) {
				defer goruntime.GOMAXPROCS(goruntime.GOMAXPROCS(procs))
				got := runApp(t, id, frames)

				for name, outs := range want.Outputs {
					g, ok := got.Outputs[name]
					if !ok {
						t.Fatalf("procs=%d: output %q missing", procs, name)
					}
					if len(g) != len(outs) {
						t.Fatalf("procs=%d: output %q has %d items, want %d",
							procs, name, len(g), len(outs))
					}
					for i := range outs {
						if g[i].IsToken != outs[i].IsToken {
							t.Fatalf("procs=%d: output %q item %d token mismatch",
								procs, name, i)
						}
						if !g[i].IsToken && !g[i].Win.Equal(outs[i].Win) {
							t.Fatalf("procs=%d: output %q item %d differs",
								procs, name, i)
						}
					}
				}
				for node, methods := range want.Firings {
					for m, n := range methods {
						if got.Firings[node][m] != n {
							t.Fatalf("procs=%d: firings[%s][%s] = %d, want %d",
								procs, node, m, got.Firings[node][m], n)
						}
					}
				}
			})
		}
	}
}

// TestWorkersSessionMatchesBatch feeds every frame into a session before
// collecting any, so all of them are in flight at once, and checks each
// collected frame against the batch run.
func TestWorkersSessionMatchesBatch(t *testing.T) {
	const frames = 3
	for _, id := range []string{"1", "5"} {
		t.Run(id, func(t *testing.T) {
			batch := runApp(t, id, frames)

			app, err := apps.ByID(id)
			if err != nil {
				t.Fatal(err)
			}
			c, err := core.Compile(app.Graph, core.DefaultConfig())
			if err != nil {
				t.Fatal(err)
			}
			sess, err := NewSession(c.Graph, SessionOptions{
				Sources: app.Sources, MaxInFlight: frames,
			})
			if err != nil {
				t.Fatal(err)
			}
			defer sess.Close()

			for f := 0; f < frames; f++ {
				if _, err := sess.Feed(nil); err != nil {
					t.Fatalf("feed frame %d: %v", f, err)
				}
			}
			for f := 0; f < frames; f++ {
				res, err := sess.Collect(10 * time.Second)
				if err != nil {
					t.Fatalf("collect frame %d: %v", f, err)
				}
				if res.Seq != int64(f) {
					t.Fatalf("collected seq %d, want %d", res.Seq, f)
				}
				for _, out := range c.Graph.Outputs() {
					want := batch.FrameSlices(out.Name())[f]
					got := res.Outputs[out.Name()]
					if len(got) != len(want) {
						t.Fatalf("output %q frame %d: %d windows, want %d",
							out.Name(), f, len(got), len(want))
					}
					for i := range want {
						if !got[i].Equal(want[i]) {
							t.Fatalf("output %q frame %d window %d differs",
								out.Name(), f, i)
						}
					}
				}
			}
		})
	}
}

// TestWorkersFeedback streams the feedback accumulator through a session
// one frame at a time: the loop state must carry across the frame
// boundary exactly as it does in the batch run.
func TestWorkersFeedback(t *testing.T) {
	sess, err := NewSession(feedbackGraph(6, 1), SessionOptions{Sources: countingSources})
	if err != nil {
		t.Fatal(err)
	}
	// Close waits for end-of-stream to drain every node, and no token
	// travels around a loop, so the cycle never drains: tear down with
	// Abort instead.
	defer func() {
		sess.Abort(nil)
		sess.Close()
	}()
	for f, want := range [][]float64{
		{1, 3, 6, 10, 15, 21},
		{22, 24, 27, 31, 36, 42},
	} {
		if _, err := sess.Feed(nil); err != nil {
			t.Fatalf("feed frame %d: %v", f, err)
		}
		res, err := sess.Collect(10 * time.Second)
		if err != nil {
			t.Fatalf("collect frame %d: %v", f, err)
		}
		compareScan(t, scalars(t, res.Outputs["Output"]), want, "streamed feedback accumulator")
	}
}

// closeWithin closes sess, failing the test if Close has not returned
// after d.
func closeWithin(t *testing.T, sess *Session, d time.Duration) error {
	t.Helper()
	done := make(chan error, 1)
	go func() { done <- sess.Close() }()
	select {
	case err := <-done:
		return err
	case <-time.After(d):
		t.Fatalf("Close still waiting after %v", d)
		return nil
	}
}

// TestWorkersSessionPanicRecovery feeds a panicking kernel several
// frames ahead. The panic must fail the whole session: Feed, Collect and
// Close all report it, and Close does not wait on frames that will never
// finish.
func TestWorkersSessionPanicRecovery(t *testing.T) {
	sess, err := NewSession(panicGraph(), SessionOptions{MaxInFlight: 4})
	if err != nil {
		t.Fatal(err)
	}
	for f := 0; f < 4; f++ {
		if _, err := sess.Feed(nil); err != nil {
			if !strings.Contains(err.Error(), "panicked") {
				t.Fatalf("feed %d err = %v, want kernel panic error", f, err)
			}
			break
		}
	}
	if _, err := sess.Collect(10 * time.Second); err == nil || !strings.Contains(err.Error(), "panicked") {
		t.Fatalf("collect err = %v, want kernel panic error", err)
	}
	if err := closeWithin(t, sess, 10*time.Second); err == nil || !strings.Contains(err.Error(), "panicked") {
		t.Fatalf("close err = %v, want kernel panic error", err)
	}
}

// TestWorkersSurfaceBehaviorErrors streams the mid-stream buffer error
// through a session: Collect must return the kernel's error, not time
// out waiting for a frame that cannot complete, and Close must report
// it too.
func TestWorkersSurfaceBehaviorErrors(t *testing.T) {
	sess, err := NewSession(badBufferGraph(), SessionOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sess.Feed(nil); err != nil {
		t.Fatalf("feed: %v", err)
	}
	_, err = sess.Collect(10 * time.Second)
	if err == nil {
		t.Fatal("buffer overflow not reported")
	}
	if errors.Is(err, ErrCollectTimeout) {
		t.Fatalf("collect err = %v, want the buffer's error", err)
	}
	if cerr := closeWithin(t, sess, 10*time.Second); cerr == nil {
		t.Fatal("close did not report the buffer's error")
	}
}
