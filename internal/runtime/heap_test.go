package runtime

import (
	"flag"
	goruntime "runtime"
	"testing"
	"time"

	"blockpar/internal/apps"
	"blockpar/internal/core"
)

// soakFrames lengthens TestSessionHeapFlat for the nightly job: the
// ROADMAP acceptance line is a flat heap over 10⁵ frames.
var soakFrames = flag.Int("runtime.soak", 1000, "frames streamed by TestSessionHeapFlat (the nightly job passes 100000)")

// TestSessionHeapFlat streams app 5 — the benchmark's local_compute
// pipeline, whose Subtract kernel always has an item pending on one
// input — through a session and requires the heap in use at the last
// frame to sit within 8 MB of the heap at frame 200. The rings are
// allocated once and clear every slot they hand on, so a session's
// footprint is a constant; the queues they replaced kept their consumed
// prefix and grew ~0.4 MB per frame here. Every ring must also have
// stayed inside the capacity the plan gave it.
func TestSessionHeapFlat(t *testing.T) {
	const warm, slack = 200, 8 << 20
	frames := *soakFrames
	if raceEnabled && frames > warm+100 {
		frames = warm + 100
	}
	if frames <= warm {
		t.Fatalf("-runtime.soak=%d: need more than %d frames", frames, warm)
	}
	app, err := apps.ByID("5")
	if err != nil {
		t.Fatal(err)
	}
	c, err := core.Compile(app.Graph, core.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	heapInUse := func() uint64 {
		goruntime.GC()
		var ms goruntime.MemStats
		goruntime.ReadMemStats(&ms)
		return ms.HeapInuse
	}
	// The subtest is named for the engine: one goroutine per node.
	t.Run("goroutines", func(t *testing.T) {
		sess, err := NewSession(c.Graph.Clone(), SessionOptions{
			Sources: app.Sources, MaxInFlight: 8,
		})
		if err != nil {
			t.Fatal(err)
		}
		defer sess.Close()
		var base uint64
		for f := 0; f < frames; f++ {
			// Keep the window full, as the serving path does: feed ahead
			// until the session pushes back, then collect one.
			for {
				if _, err := sess.TryFeed(nil); err == ErrQueueFull {
					break
				} else if err != nil {
					t.Fatal(err)
				}
			}
			if _, err := sess.Collect(30 * time.Second); err != nil {
				t.Fatalf("frame %d: %v", f, err)
			}
			if f == warm {
				base = heapInUse()
			}
		}
		if end := heapInUse(); end > base+slack {
			t.Errorf("heap in use grew from %d KB at frame %d to %d KB at frame %d",
				base>>10, warm, end>>10, frames)
		}
		for _, st := range sess.Stats() {
			for _, r := range st.Rings {
				if r.HighWater > r.Capacity {
					t.Errorf("%s.%s held %d items, planned capacity %d", st.Node, r.Input, r.HighWater, r.Capacity)
				}
			}
		}
	})
}
