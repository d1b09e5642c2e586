package kernel

import (
	"fmt"
	"testing"

	"blockpar/internal/frame"
	"blockpar/internal/graph"
	"blockpar/internal/token"
)

// scalarCtx is an ExecContext without batches — what the sequential
// oracle offers — recording every emitted window by output.
type scalarCtx struct {
	in  map[string]frame.Window
	out map[string][]frame.Window
}

func (c *scalarCtx) Input(name string) frame.Window { return c.in[name] }
func (c *scalarCtx) Token(string) token.Token       { return token.Token{} }
func (c *scalarCtx) EmitToken(string, token.Token)  {}
func (c *scalarCtx) Emit(o string, w frame.Window) {
	c.out[o] = append(c.out[o], w.Clone())
	w.Release()
}

// batchCtx adds the runtime's batch extension to scalarCtx, recording a
// batched emission as its logical windows.
type batchCtx struct {
	scalarCtx
	batch map[string]graph.Batch
}

func (c *batchCtx) Batch(input string) graph.Batch { return c.batch[input] }
func (c *batchCtx) EmitBatch(o string, w frame.Window, b graph.Batch) {
	for j := 0; j < int(b.N); j++ {
		c.out[o] = append(c.out[o], b.Window(w, j).Clone())
	}
	w.Release()
}

// setupCall is a configuration firing: method on one window of input.
type setupCall struct {
	method, input string
	win           frame.Window
}

// pointwiseCase is one batch-aware kernel with one result per window
// (the per-sample kernels and the medians): its configuration firings,
// its data method over inputs ins of bw×bh windows (sx columns apart on
// its natural stream), and the method, if any, that emits what the data
// firings accumulated.
type pointwiseCase struct {
	name       string
	node       func() *graph.Node
	setup      []setupCall
	method     string
	ins        []string
	bw, bh, sx int
	finish     string
}

func pointwiseCases() []pointwiseCase {
	taps := frame.FromRows([][]float64{{0.25, 0.5, 0.125, 2}})
	bins := frame.NewWindow(8, 1)
	for i, e := range frame.UniformBins(8, 0, 256) {
		bins.Pix[i] = e
	}
	return []pointwiseCase{
		{name: "gain", node: func() *graph.Node { return Gain("g", 1.5) }, method: "runGain", ins: []string{"in"}, bw: 1, bh: 1, sx: 1},
		{name: "threshold", node: func() *graph.Node { return Threshold("t", 20, -1, 7) }, method: "runThreshold", ins: []string{"in"}, bw: 1, bh: 1, sx: 1},
		{name: "subtract", node: func() *graph.Node { return Subtract("s") }, method: "subtract", ins: []string{"in0", "in1"}, bw: 1, bh: 1, sx: 1},
		{name: "magnitude", node: func() *graph.Node { return Magnitude("m") }, method: "magnitude", ins: []string{"gx", "gy"}, bw: 1, bh: 1, sx: 1},
		{name: "downsample", node: func() *graph.Node { return Downsample("d", 2) }, method: "runDownsample", ins: []string{"in"}, bw: 2, bh: 2, sx: 2},
		{name: "upsample", node: func() *graph.Node { return Upsample("u", 3) }, method: "runUpsample", ins: []string{"in"}, bw: 1, bh: 1, sx: 1},
		{name: "fir", node: func() *graph.Node { return FIR("f", taps.W) }, setup: []setupCall{{"loadTaps", "taps", taps}},
			method: "runFIR", ins: []string{"in"}, bw: taps.W, bh: 1, sx: 1},
		{name: "histogram", node: func() *graph.Node { return Histogram("h", bins.W) }, setup: []setupCall{{"configureBins", "bins", bins}},
			method: "count", ins: []string{"in"}, bw: 1, bh: 1, sx: 1, finish: "finishCount"},
		{name: "median3", node: func() *graph.Node { return Median("m3", 3) }, method: "runMedian", ins: []string{"in"}, bw: 3, bh: 3, sx: 1},
		{name: "median5", node: func() *graph.Node { return Median("m5", 5) }, method: "runMedian", ins: []string{"in"}, bw: 5, bh: 5, sx: 1},
	}
}

// TestPointwiseBatchMatchesScalar pins the one-loop contract of the
// per-sample kernels: one firing on a span of n windows emits exactly
// what n scalar firings on its windows emit through a context without
// batches, for every element kind and for windows one and two columns
// apart.
func TestPointwiseBatchMatchesScalar(t *testing.T) {
	const n = 5
	for _, c := range pointwiseCases() {
		for _, kind := range []frame.Kind{frame.U8, frame.F32, frame.F64} {
			for _, sx := range []int{1, 2} {
				t.Run(fmt.Sprintf("%s-%v-sx%d", c.name, kind, sx), func(t *testing.T) {
					b := graph.Batch{N: n, Sx: int32(sx), Bw: int32(c.bw)}
					spans := map[string]frame.Window{}
					for i, in := range c.ins {
						spans[in] = rampOff(kind, b.SpanW(), c.bh, 11*i)
					}
					fire := func(ctx graph.ExecContext, set func(in string, w frame.Window), calls int) {
						inv := c.node().Behavior.(graph.Invoker)
						for _, s := range c.setup {
							set(s.input, s.win)
							if err := inv.Invoke(s.method, ctx); err != nil {
								t.Fatalf("%s: %v", s.method, err)
							}
						}
						for j := 0; j < calls; j++ {
							for _, in := range c.ins {
								w := spans[in]
								if calls > 1 {
									w = b.Window(w, j)
								}
								set(in, w)
							}
							if err := inv.Invoke(c.method, ctx); err != nil {
								t.Fatalf("%s: %v", c.method, err)
							}
						}
						if c.finish != "" {
							if err := inv.Invoke(c.finish, ctx); err != nil {
								t.Fatalf("%s: %v", c.finish, err)
							}
						}
					}
					sc := &scalarCtx{in: map[string]frame.Window{}, out: map[string][]frame.Window{}}
					fire(sc, func(in string, w frame.Window) { sc.in[in] = w }, n)
					bc := &batchCtx{scalarCtx{in: map[string]frame.Window{}, out: map[string][]frame.Window{}}, map[string]graph.Batch{}}
					fire(bc, func(in string, w frame.Window) {
						bc.in[in] = w
						if _, data := spans[in]; data {
							bc.batch[in] = b
						}
					}, 1)
					if len(sc.out) == 0 {
						t.Fatal("scalar firings emitted nothing")
					}
					for o, want := range sc.out {
						got := bc.out[o]
						if len(got) != len(want) {
							t.Fatalf("output %q: batched firing emitted %d windows, scalar firings %d", o, len(got), len(want))
						}
						for i := range want {
							if !got[i].Equal(want[i]) {
								t.Errorf("output %q window %d: batched %v, scalar %v", o, i, got[i], want[i])
							}
						}
					}
				})
			}
		}
	}
}
