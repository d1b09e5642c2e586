package runtime

import (
	"testing"

	"blockpar/internal/conn"
	"blockpar/internal/frame"
	"blockpar/internal/geom"
	"blockpar/internal/graph"
	"blockpar/internal/kernel"
)

// planNodeOf returns the plan record of the named node. The alloc
// gates build an executor and never start it: with no node goroutine
// running, the input rings capture exactly what the send path delivered, and the
// code under test is the only code that could touch the heap.
func planNodeOf(t *testing.T, ex *executor, name string) *planNode {
	t.Helper()
	for i := range ex.plan.nodes {
		if ex.plan.nodes[i].node.Name() == name {
			return &ex.plan.nodes[i]
		}
	}
	t.Fatalf("no node %q in plan", name)
	return nil
}

// TestBroadcastSendAllocFree is the zero-copy gate on broadcast
// fan-out: delivering one data item to every consumer of a declared
// broadcast connection must add pool references, not copies — zero
// heap allocations per send, and every consumer must observe the same
// backing storage.
func TestBroadcastSendAllocFree(t *testing.T) {
	g := graph.New("bcast-alloc")
	in := g.AddInput("Input", geom.Sz(8, 4), geom.Sz(1, 1), geom.FInt(10))
	tos := make([]*graph.Port, 3)
	for b := 0; b < 3; b++ {
		gain := g.Add(kernel.Gain("Gain"+string(rune('A'+b)), float64(b+1)))
		g.Connect(in, "out", gain, "in")
		tos[b] = gain.Input("in")
		out := g.AddOutput("out"+string(rune('A'+b)), geom.Sz(1, 1))
		g.Connect(gain, "out", out, "in")
	}
	g.AddConn("bcast", conn.Broadcast, in.Output("out"), tos)

	ex, err := newExecutor(g, Options{}, 0)
	if err != nil {
		t.Fatal(err)
	}
	src := planNodeOf(t, ex, "Input")
	var rings [3]*ring
	for b := range rings {
		rings[b] = &ex.boxes[planNodeOf(t, ex, "Gain"+string(rune('A'+b))).id].rings[0]
	}

	fire := func() {
		w := frame.PooledScalar(42)
		ex.send(src, 0, graph.DataItem(w))
		base := &w.Pix[0]
		for i, r := range rings {
			if r.Len() != 1 {
				t.Fatalf("consumer %d holds %d items, want 1", i, r.Len())
			}
			if &r.Peek().Win.Pix[0] != base {
				t.Fatalf("consumer %d received a copy, not a shared reference", i)
			}
			r.Peek().Win.Release()
			r.Drop()
		}
	}
	fire() // warm-up: populate the pool bucket
	if avg := testing.AllocsPerRun(100, fire); avg != 0 {
		t.Errorf("broadcast send: %.1f allocs per fan-out, want 0", avg)
	}
}
