package kernel

import (
	"testing"

	"blockpar/internal/frame"
	"blockpar/internal/geom"
	"blockpar/internal/graph"
	"blockpar/internal/token"
)

// allocCtx is an ExecContext+BatchContext that recycles every emitted
// window straight back to the arena. Driving a batch-aware kernel
// through it isolates the dense row loop: after one warm-up firing
// (which sizes the behavior's scratch buffers and fills the pool
// bucket), steady-state firings must not touch the heap at all. This
// is the bench-smoke gate behind the suite benchmarks for apps 1 and 4
// — if the conv or bayer inner loops start allocating, this fails long
// before a benchmark regression is noticed.
type allocCtx struct {
	in    map[string]frame.Window
	batch map[string]graph.Batch
}

func (c *allocCtx) Input(name string) frame.Window { return c.in[name] }
func (c *allocCtx) Token(string) token.Token       { return token.Token{} }
func (c *allocCtx) Emit(_ string, w frame.Window)  { w.Release() }
func (c *allocCtx) EmitToken(string, token.Token)  {}

func (c *allocCtx) Batch(input string) graph.Batch { return c.batch[input] }
func (c *allocCtx) EmitBatch(_ string, w frame.Window, _ graph.Batch) {
	w.Release()
}

// span builds an arena-free input window of the given kind filled with
// a deterministic ramp — plain storage, so the firing loop's only pool
// traffic is its own outputs.
func span(k frame.Kind, w, h int) frame.Window { return rampOff(k, w, h, 0) }

// rampOff is span's ramp shifted by off, for a kernel's second input.
func rampOff(k frame.Kind, w, h, off int) frame.Window {
	win := frame.NewWindowKind(k, w, h)
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			win.Set(x, y, float64((x*7+y*13+off)%256))
		}
	}
	return win
}

func assertAllocFree(t *testing.T, what string, fire func()) {
	t.Helper()
	fire() // warm-up: size scratch, populate the pool bucket
	avg := testing.AllocsPerRun(100, fire)
	if raceEnabled {
		return
	}
	if avg != 0 {
		t.Errorf("%s: %.1f allocs per batched firing, want 0", what, avg)
	}
}

// TestDenseLoopsAllocFree pins the batched kernel loops — the app-1/app-4
// hot paths (bayer demosaic and k×k convolution row loops) and every
// per-sample kernel's span loop — at zero steady-state heap allocations
// per batched firing.
func TestDenseLoopsAllocFree(t *testing.T) {
	const k, n = 3, 61 // 61 overlapping 3×3 windows in one row span

	convFire := func(kind frame.Kind) func() {
		node := Convolution("conv", k)
		inv := node.Behavior.(graph.Invoker)
		coeff := span(frame.F64, k, k)
		in := span(kind, n+k-1, k)
		loadCtx := &allocCtx{in: map[string]frame.Window{"coeff": coeff}}
		if err := inv.Invoke("loadCoeff", loadCtx); err != nil {
			t.Fatalf("loadCoeff: %v", err)
		}
		ctx := &allocCtx{
			in:    map[string]frame.Window{"in": in},
			batch: map[string]graph.Batch{"in": {N: n, Sx: 1, Bw: int32(k)}},
		}
		return func() {
			if err := inv.Invoke("runConvolve", ctx); err != nil {
				t.Fatalf("runConvolve: %v", err)
			}
		}
	}

	bayerFire := func(kind frame.Kind) func() {
		node := BayerDemosaic("bayer")
		inv := node.Behavior.(graph.Invoker)
		in := span(kind, (n-1)*2+4, 4) // n overlapping 4×4 windows, stride 2
		ctx := &allocCtx{
			in:    map[string]frame.Window{"in": in},
			batch: map[string]graph.Batch{"in": {N: n, Sx: 2, Bw: 4}},
		}
		return func() {
			if err := inv.Invoke("demosaic", ctx); err != nil {
				t.Fatalf("demosaic: %v", err)
			}
		}
	}

	t.Run("conv-f64", func(t *testing.T) { assertAllocFree(t, "conv f64 row loop", convFire(frame.F64)) })
	t.Run("conv-f32", func(t *testing.T) { assertAllocFree(t, "conv f32 row loop", convFire(frame.F32)) })
	t.Run("bayer-u8", func(t *testing.T) { assertAllocFree(t, "bayer u8 span loop", bayerFire(frame.U8)) })
	t.Run("bayer-f64", func(t *testing.T) { assertAllocFree(t, "bayer f64 span loop", bayerFire(frame.F64)) })

	for _, c := range pointwiseCases() {
		t.Run(c.name, func(t *testing.T) {
			inv := c.node().Behavior.(graph.Invoker)
			ctx := &allocCtx{in: map[string]frame.Window{}, batch: map[string]graph.Batch{}}
			for _, s := range c.setup {
				ctx.in[s.input] = s.win
				if err := inv.Invoke(s.method, ctx); err != nil {
					t.Fatalf("%s: %v", s.method, err)
				}
			}
			b := graph.Batch{N: n, Sx: int32(c.sx), Bw: int32(c.bw)}
			for i, in := range c.ins {
				ctx.in[in] = rampOff(frame.F64, b.SpanW(), c.bh, 11*i)
				ctx.batch[in] = b
			}
			assertAllocFree(t, c.name+" span loop", func() {
				if err := inv.Invoke(c.method, ctx); err != nil {
					t.Fatalf("%s: %v", c.method, err)
				}
			})
		})
	}
}

// TestFSMStepsAllocFree pins the compiler FSM steps at zero steady-state
// heap allocations per step, value phase included: an inset row arriving
// as two spans that each keep a run, a column split and a column join of
// a row span, and a warm buffer completing a row of windows from the
// arena. Each pass replays one frame's script through the step harness.
func TestFSMStepsAllocFree(t *testing.T) {
	const w = 12
	row := span(frame.F64, w, 1)
	half := func(x0 int) graph.Item { return rowSpan(row.View(x0, 0, w/2, 1)) }
	eol, eof := graph.TokenItem(token.EOL(0)), graph.TokenItem(token.EOF(0))
	replay := func(n *graph.Node, script map[string][]graph.Item) func() {
		h := newStepHarness(t, n)
		h.discard = true
		ins := make([][]graph.Item, len(h.in))
		for name, items := range script {
			ins[h.port(n.Inputs(), name)] = items
		}
		return func() {
			copy(h.in, ins)
			if err := h.run(); err != nil {
				t.Fatal(err)
			}
			for k := range h.in {
				if len(h.in[k]) != 0 {
					t.Fatalf("%s left %d items on input %d", n.Name(), len(h.in[k]), k)
				}
			}
		}
	}
	frameOf := func(r ...graph.Item) []graph.Item {
		var items []graph.Item
		for y := 0; y < 3; y++ {
			items = append(append(items, r...), eol)
		}
		return append(items, eof)
	}

	inset := Inset("I", InsetPlan{InW: w, InH: 3, L: 2, R: 3, T: 1, B: 1}, geom.Sz(1, 1))
	assertAllocFree(t, "inset spans", replay(inset, map[string][]graph.Item{"in": frameOf(half(0), half(w/2))}))

	stripes := ColumnStripes(w, 3, 1, 2)
	split := SplitColumns("S", stripes, w)
	assertAllocFree(t, "column split", replay(split, map[string][]graph.Item{"in": frameOf(rowSpan(row))}))

	a, b := stripes[0].InWidth(), stripes[1].InWidth()
	join := JoinColumns("J", []int{a, b}, geom.Sz(1, 1))
	assertAllocFree(t, "column join", replay(join, map[string][]graph.Item{
		"in0": frameOf(rowSpan(row.View(0, 0, a, 1))),
		"in1": frameOf(rowSpan(row.View(0, 0, b, 1))),
	}))

	buf := Buffer("B", BufferPlan{DataW: w, DataH: 3, WinW: 3, WinH: 3, StepX: 1, StepY: 1})
	assertAllocFree(t, "buffer row", replay(buf, map[string][]graph.Item{"in": frameOf(rowSpan(row))}))
}
