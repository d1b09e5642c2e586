package runtime

import (
	"errors"
	"strings"
	"testing"
	"time"

	"blockpar/internal/apps"
	"blockpar/internal/core"
	"blockpar/internal/frame"
	"blockpar/internal/geom"
	"blockpar/internal/graph"
	"blockpar/internal/kernel"
)

// TestSessionMatchesBatch is the tentpole correctness bar: frames
// streamed one at a time through a session must produce byte-identical
// per-frame outputs to the batch Run of the same compiled application.
func TestSessionMatchesBatch(t *testing.T) {
	const frames = 3
	for _, id := range []string{"1", "2", "5"} {
		id := id
		t.Run(id, func(t *testing.T) {
			batchApp, err := apps.ByID(id)
			if err != nil {
				t.Fatal(err)
			}
			cb, err := core.Compile(batchApp.Graph, core.DefaultConfig())
			if err != nil {
				t.Fatal(err)
			}
			batch, err := Run(cb.Graph, Options{Frames: frames, Sources: batchApp.Sources})
			if err != nil {
				t.Fatal(err)
			}

			streamApp, err := apps.ByID(id)
			if err != nil {
				t.Fatal(err)
			}
			cs, err := core.Compile(streamApp.Graph, core.DefaultConfig())
			if err != nil {
				t.Fatal(err)
			}
			sess, err := NewSession(cs.Graph, SessionOptions{Sources: streamApp.Sources})
			if err != nil {
				t.Fatal(err)
			}
			defer sess.Close()

			for f := 0; f < frames; f++ {
				// Feed the main input's window explicitly; coefficient
				// and bin inputs fall back to the session sources.
				var ins map[string]frame.Window
				if gen := streamApp.Sources["Input"]; gen != nil {
					n := cs.Graph.Node("Input")
					ins = map[string]frame.Window{
						"Input": gen(int64(f), n.FrameSize.W, n.FrameSize.H),
					}
				}
				if _, err := sess.Feed(ins); err != nil {
					t.Fatalf("feed frame %d: %v", f, err)
				}
				res, err := sess.Collect(10 * time.Second)
				if err != nil {
					t.Fatalf("collect frame %d: %v", f, err)
				}
				if res.Seq != int64(f) {
					t.Fatalf("frame seq = %d, want %d", res.Seq, f)
				}
				for _, out := range cs.Graph.Outputs() {
					want := batch.FrameSlices(out.Name())[f]
					got := res.Outputs[out.Name()]
					if len(got) != len(want) {
						t.Fatalf("output %q frame %d: %d windows, want %d",
							out.Name(), f, len(got), len(want))
					}
					for i := range want {
						if !got[i].Equal(want[i]) {
							t.Fatalf("output %q frame %d window %d differs from batch",
								out.Name(), f, i)
						}
					}
				}
			}
		})
	}
}

// TestSessionFeedAhead pipelines several frames before collecting any,
// checking results still arrive complete and in order.
func TestSessionFeedAhead(t *testing.T) {
	app, err := apps.ByID("2")
	if err != nil {
		t.Fatal(err)
	}
	c, err := core.Compile(app.Graph, core.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	sess, err := NewSession(c.Graph, SessionOptions{Sources: app.Sources, MaxInFlight: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	for f := 0; f < 4; f++ {
		if _, err := sess.Feed(nil); err != nil {
			t.Fatalf("feed %d: %v", f, err)
		}
	}
	for f := 0; f < 4; f++ {
		res, err := sess.Collect(10 * time.Second)
		if err != nil {
			t.Fatalf("collect %d: %v", f, err)
		}
		if res.Seq != int64(f) {
			t.Fatalf("collected seq %d, want %d", res.Seq, f)
		}
		want := app.Golden(int64(f))["result"]
		got := res.Outputs["result"]
		if len(got) != len(want) {
			t.Fatalf("frame %d: %d windows, want %d", f, len(got), len(want))
		}
		for i := range want {
			if !got[i].Equal(want[i]) {
				t.Fatalf("frame %d window %d differs from golden", f, i)
			}
		}
	}
}

// gainGraph builds a trivial uncompiled pipeline for session plumbing
// tests.
func gainGraph() *graph.Graph {
	g := graph.New("gain")
	in := g.AddInput("Input", geom.Sz(8, 6), geom.Sz(1, 1), geom.FInt(50))
	k := g.Add(kernel.Gain("Gain", 2))
	out := g.AddOutput("Output", geom.Sz(1, 1))
	g.Connect(in, "out", k, "in")
	g.Connect(k, "out", out, "in")
	return g
}

func TestSessionBackpressure(t *testing.T) {
	sess, err := NewSession(gainGraph(), SessionOptions{MaxInFlight: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	if _, err := sess.TryFeed(nil); err != nil {
		t.Fatalf("first feed: %v", err)
	}
	// The first frame stays uncollected, so the queue is saturated
	// regardless of how fast the pipeline computes it.
	if _, err := sess.TryFeed(nil); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("second feed err = %v, want ErrQueueFull", err)
	}
	if _, err := sess.Collect(10 * time.Second); err != nil {
		t.Fatalf("collect: %v", err)
	}
	if _, err := sess.TryFeed(nil); err != nil {
		t.Fatalf("feed after collect: %v", err)
	}
}

// TestSessionCloseDrains feeds frames, never collects, and checks Close
// still processes every accepted frame before tearing down.
func TestSessionCloseDrains(t *testing.T) {
	sess, err := NewSession(gainGraph(), SessionOptions{MaxInFlight: 2})
	if err != nil {
		t.Fatal(err)
	}
	for f := 0; f < 2; f++ {
		if _, err := sess.Feed(nil); err != nil {
			t.Fatalf("feed %d: %v", f, err)
		}
	}
	if err := sess.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	if got := sess.Completed(); got != 2 {
		t.Fatalf("completed = %d frames after close, want 2", got)
	}
	if _, err := sess.Feed(nil); !errors.Is(err, ErrSessionClosed) {
		t.Fatalf("feed after close err = %v, want ErrSessionClosed", err)
	}
	if _, err := sess.Collect(time.Second); !errors.Is(err, ErrSessionClosed) {
		t.Fatalf("collect after close err = %v, want ErrSessionClosed", err)
	}
}

// panicBehavior blows up on its first invocation, standing in for a
// buggy custom kernel.
type panicBehavior struct{}

func (panicBehavior) Clone() graph.Behavior { return panicBehavior{} }
func (panicBehavior) Invoke(method string, ctx graph.ExecContext) error {
	panic("kernel bug")
}

// panicGraph feeds every pixel to a kernel running panicBehavior.
func panicGraph() *graph.Graph {
	g := graph.New("boom")
	g.AddInput("Input", geom.Sz(4, 2), geom.Sz(1, 1), geom.FInt(50))
	n := graph.NewNode("Boom", graph.KindKernel)
	n.CreateInput("in", geom.Sz(1, 1), geom.St(1, 1), geom.Off(0, 0))
	n.CreateOutput("out", geom.Sz(1, 1), geom.St(1, 1))
	n.RegisterMethod("run", 1, 0)
	n.RegisterMethodInput("run", "in")
	n.RegisterMethodOutput("run", "out")
	n.Behavior = panicBehavior{}
	g.Add(n)
	out := g.AddOutput("Output", geom.Sz(1, 1))
	g.Connect(g.Node("Input"), "out", n, "in")
	g.Connect(n, "out", out, "in")
	return g
}

// TestSessionPanicRecovery checks a panicking kernel surfaces as a
// session error instead of crashing the process.
func TestSessionPanicRecovery(t *testing.T) {
	sess, err := NewSession(panicGraph(), SessionOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	if _, err := sess.Feed(nil); err != nil {
		t.Fatalf("feed: %v", err)
	}
	_, err = sess.Collect(10 * time.Second)
	if err == nil || !strings.Contains(err.Error(), "panicked") {
		t.Fatalf("collect err = %v, want kernel panic error", err)
	}
}

// TestSessionRecyclesOutputLists pins the window-list half of the
// ownership protocol on a streaming session: a consumer that ends each
// frame with frame.ReleaseList gets the same few lists back, holding
// the next frames' windows and nothing stale, while a frame that is
// kept is never overwritten.
func TestSessionRecyclesOutputLists(t *testing.T) {
	app, err := apps.ByID("4") // 720 1×1 windows per frame on one output
	if err != nil {
		t.Fatal(err)
	}
	c, err := core.Compile(app.Graph, core.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	const frames = 24
	batch, err := Run(c.Graph, Options{Frames: frames, Sources: app.Sources})
	if err != nil {
		t.Fatal(err)
	}
	sess, err := NewSession(c.Graph, SessionOptions{Sources: app.Sources})
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	out := c.Graph.Outputs()[0].Name()
	check := func(f int, got []frame.Window) {
		t.Helper()
		want := batch.FrameSlices(out)[f]
		if len(got) != len(want) {
			t.Fatalf("frame %d: %d windows, want %d", f, len(got), len(want))
		}
		for i := range want {
			if !got[i].Equal(want[i]) {
				t.Fatalf("frame %d window %d differs from the batch run", f, i)
			}
		}
	}
	var kept []frame.Window
	lists := map[*frame.Window]int{}
	for f := 0; f < frames; f++ {
		if _, err := sess.Feed(nil); err != nil {
			t.Fatal(err)
		}
		res, err := sess.Collect(10 * time.Second)
		if err != nil {
			t.Fatal(err)
		}
		ws := res.Outputs[out]
		check(f, ws)
		if f == 1 {
			kept = ws // never released: must stay frame 1 to the end
			continue
		}
		lists[&ws[:1][0]]++
		frame.ReleaseList(ws)
	}
	check(1, kept)
	// sync.Pool may drop a list now and then (always, some, under the
	// race detector), but 23 released frames do not need 23 lists.
	if len(lists) >= frames-1 {
		t.Errorf("%d frames used %d distinct lists: released lists are not reused", frames-1, len(lists))
	}
}
