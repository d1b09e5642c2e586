package runtime

import (
	"fmt"
	"testing"

	"blockpar/internal/frame"
	"blockpar/internal/geom"
	"blockpar/internal/graph"
	"blockpar/internal/token"
)

// spanPass forwards its input unchanged, batches included: a one-trigger
// batch-aware kernel with no arithmetic, so the firing path around it is
// all there is to measure.
type spanPass struct{}

func (spanPass) Clone() graph.Behavior       { return spanPass{} }
func (spanPass) AcceptsBatch(in string) bool { return in == "in" }
func (spanPass) Invoke(_ string, ctx graph.ExecContext) error {
	if bc, ok := ctx.(graph.BatchContext); ok {
		if b := bc.Batch("in"); b.IsBatch() {
			bc.EmitBatch("out", ctx.Input("in"), b)
			return nil
		}
	}
	ctx.Emit("out", ctx.Input("in"))
	return nil
}

// firstOf emits its first input and ignores the second: a two-trigger
// batch-aware method, so it fires on the common prefix of its heads.
type firstOf struct{}

func (firstOf) Clone() graph.Behavior       { return firstOf{} }
func (firstOf) AcceptsBatch(in string) bool { return true }
func (firstOf) Invoke(_ string, ctx graph.ExecContext) error {
	bc := ctx.(graph.BatchContext)
	if a, b := bc.Batch("in0"), bc.Batch("in1"); max(a.N, 1) != max(b.N, 1) {
		return fmt.Errorf("fired on spans of %d and %d windows", a.N, b.N)
	}
	_ = ctx.Input("in1")
	bc.EmitBatch("out", ctx.Input("in0"), bc.Batch("in0"))
	return nil
}

// quiesce fires d until nothing is ready, exactly as executor.drive
// would.
func quiesce(t *testing.T, d *driver) {
	for {
		d.ib.mu.Lock()
		ok, err := d.next()
		d.ib.mu.Unlock()
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			return
		}
		if err := d.run(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestFiringPathAllocFree is the steady-state gate on the executor:
// deliver → ready check → fire → emit makes zero heap allocations
// (testing.AllocsPerRun == 0) on a one-trigger and a two-trigger
// method, for plain data items, row batches, a prefix firing (one
// 8-wide span against spans of 3 and 5: two firings, the first on the
// span's first 3 windows) and a forwarded end-of-line token. The executor is built and never started, so the
// rings capture every delivery and the code under test is the only
// code that could touch the heap.
func TestFiringPathAllocFree(t *testing.T) {
	const width = 8
	g := graph.New("firing-alloc")
	a := g.AddInput("A", geom.Sz(width, 2), geom.Sz(1, 1), geom.FInt(10))
	b := g.AddInput("B", geom.Sz(width, 2), geom.Sz(1, 1), geom.FInt(10))
	one := graph.NewNode("One", graph.KindKernel)
	one.CreateInput("in", geom.Sz(1, 1), geom.St(1, 1), geom.Off(0, 0))
	one.CreateOutput("out", geom.Sz(1, 1), geom.St(1, 1))
	one.RegisterMethod("pass", 1, 0)
	one.RegisterMethodInput("pass", "in")
	one.RegisterMethodOutput("pass", "out")
	one.Behavior = spanPass{}
	g.Add(one)
	two := graph.NewNode("Two", graph.KindKernel)
	two.CreateInput("in0", geom.Sz(1, 1), geom.St(1, 1), geom.Off(0, 0))
	two.CreateInput("in1", geom.Sz(1, 1), geom.St(1, 1), geom.Off(0, 0))
	two.CreateOutput("out", geom.Sz(1, 1), geom.St(1, 1))
	two.RegisterMethod("first", 1, 0)
	two.RegisterMethodInput("first", "in0")
	two.RegisterMethodInput("first", "in1")
	two.RegisterMethodOutput("first", "out")
	two.Behavior = firstOf{}
	g.Add(two)
	out := g.AddOutput("Out", geom.Sz(1, 1))
	g.Connect(a, "out", one, "in")
	g.Connect(one, "out", two, "in0")
	g.Connect(b, "out", two, "in1")
	g.Connect(two, "out", out, "in")

	ex, err := newExecutor(g, Options{}, 0)
	if err != nil {
		t.Fatal(err)
	}
	srcA, srcB := planNodeOf(t, ex, "A"), planNodeOf(t, ex, "B")
	dOne := newDriver(ex, planNodeOf(t, ex, "One"))
	dTwo := newDriver(ex, planNodeOf(t, ex, "Two"))
	sink := &ex.boxes[planNodeOf(t, ex, "Out").id].rings[0]

	// drain empties the output ring, returning the logical data and token
	// counts.
	drain := func() (data, tokens int) {
		for sink.Len() > 0 {
			if it := sink.Peek(); it.IsToken {
				tokens++
			} else {
				data += it.BatchN()
				it.Win.Release()
			}
			sink.Drop()
		}
		return data, tokens
	}
	run := func(wantData, wantTokens int, feed func()) func() {
		return func() {
			feed()
			quiesce(t, dOne)
			quiesce(t, dTwo)
			if data, tokens := drain(); data != wantData || tokens != wantTokens {
				t.Fatalf("output saw %d data, %d tokens; want %d, %d", data, tokens, wantData, wantTokens)
			}
		}
	}
	batch := graph.Batch{N: width, Sx: 1, Bw: 1}
	cases := []struct {
		name string
		fire func()
	}{
		{"data", run(1, 0, func() {
			ex.send(srcA, 0, graph.DataItem(frame.PooledScalar(1)))
			ex.send(srcB, 0, graph.DataItem(frame.PooledScalar(2)))
		})},
		{"batch", run(width, 0, func() {
			ex.send(srcA, 0, graph.BatchItem(frame.Alloc(width, 1), batch))
			ex.send(srcB, 0, graph.BatchItem(frame.Alloc(width, 1), batch))
		})},
		{"prefix", run(width, 0, func() {
			ex.send(srcA, 0, graph.BatchItem(frame.Alloc(width, 1), batch))
			ex.send(srcB, 0, graph.BatchItem(frame.Alloc(3, 1), graph.Batch{N: 3, Sx: 1, Bw: 1}))
			ex.send(srcB, 0, graph.BatchItem(frame.Alloc(width-3, 1), graph.Batch{N: width - 3, Sx: 1, Bw: 1}))
		})},
		{"forwarded EOL", run(0, 1, func() {
			ex.send(srcA, 0, graph.TokenItem(token.EOL(7)))
			ex.send(srcB, 0, graph.TokenItem(token.EOL(7)))
		})},
	}
	for _, c := range cases {
		c.fire() // warm-up: populate the pool buckets and scratch buffers
		avg := testing.AllocsPerRun(100, c.fire)
		if raceEnabled {
			// sync.Pool drops a quarter of its Puts under the race
			// detector, so the arena itself allocates there.
			continue
		}
		if avg != 0 {
			t.Errorf("%s: %.1f allocs per delivery-to-emit pass, want 0", c.name, avg)
		}
	}
	// Each case ran 102 times (our warm-up, AllocsPerRun's own, and its
	// 100 measured runs); the counter block must have seen every logical
	// firing of the data, batch and prefix cases.
	if fired := ex.boxes[dTwo.pn.id].fired[0].Load(); fired != 102*(1+2*width) {
		t.Errorf("two-trigger method counted %d firings, want %d", fired, 102*(1+2*width))
	}
}
