package kernel

import (
	"fmt"
	"math"

	"blockpar/internal/frame"
	"blockpar/internal/geom"
	"blockpar/internal/graph"
)

// FIR builds a 1-D finite-impulse-response filter: a taps-wide window
// sliding along each row (the paper's parameterization covers
// one-dimensional signal handling with h=1 windows, §II-A). Taps load
// on a replicated input like convolution coefficients. The data input
// accepts row spans of overlapping windows, like convolution's.
func FIR(name string, taps int) *graph.Node {
	if taps < 1 {
		panic(fmt.Sprintf("kernel: FIR needs at least one tap, got %d", taps))
	}
	n := graph.NewNode(name, graph.KindKernel)
	half := int64(taps / 2)
	n.CreateInput("in", geom.Sz(taps, 1), geom.St(1, 1), geom.OffF(geom.FInt(half), geom.FInt(0)))
	tp := n.CreateInput("taps", geom.Sz(taps, 1), geom.St(taps, 1), geom.Off(half, 0))
	tp.Replicated = true
	n.CreateOutput("out", geom.Sz(1, 1), geom.St(1, 1))

	n.RegisterMethod("runFIR", int64(methodOverhead+2*taps), int64(2*taps))
	n.RegisterMethodInput("runFIR", "in")
	n.RegisterMethodOutput("runFIR", "out")

	n.RegisterMethod("loadTaps", int64(methodOverhead+taps), int64(taps))
	n.RegisterMethodInput("loadTaps", "taps")

	n.Attrs["ktype"] = "fir"
	n.Attrs["kparams"] = fmt.Sprintf("%d", taps)
	n.Behavior = &firBehavior{taps: taps}
	return n
}

type firBehavior struct {
	elemToF64
	taps  int
	coefs frame.Window
}

func (b *firBehavior) Clone() graph.Behavior { return &firBehavior{taps: b.taps} }

// AcceptsBatch implements graph.BatchAware: windows arrive in row spans.
func (b *firBehavior) AcceptsBatch(input string) bool { return input == "in" }

func (b *firBehavior) Invoke(method string, ctx graph.ExecContext) error {
	switch method {
	case "loadTaps":
		b.coefs = ctx.Input("taps").Clone()
		return nil
	case "runFIR":
		if b.coefs.W != b.taps {
			return fmt.Errorf("kernel: FIR fired before loadTaps")
		}
		in, coefs := rowOf(ctx.Input("in")), rowOf(b.coefs)
		n, sx := spanIn(ctx, "in", 1)
		out := frame.AllocUninit(frame.F64, n, 1)
		for j := range out.Pix {
			var acc float64
			for i := 0; i < b.taps; i++ {
				acc += in.at(j*sx+i) * coefs.at(b.taps-i-1)
			}
			out.Pix[j] = acc
		}
		emitSpan(ctx, "out", out, n, 1)
		return nil
	default:
		return fmt.Errorf("kernel: FIR has no method %q", method)
	}
}

// Upsample builds a k×k nearest-neighbor upsampler: each input sample
// produces a k×k block, demonstrating outputs larger than inputs (the
// item grid stays the input's; the region grows k-fold). A row span of
// n samples leaves as one (n·k)×k span of blocks.
func Upsample(name string, k int) *graph.Node {
	if k < 1 {
		panic("kernel: upsample factor must be positive")
	}
	n := graph.NewNode(name, graph.KindKernel)
	n.CreateInput("in", geom.Sz(1, 1), geom.St(1, 1), geom.Off(0, 0))
	n.CreateOutput("out", geom.Sz(k, k), geom.St(k, k))
	n.RegisterMethod("runUpsample", int64(gainCycles+k*k), int64(k*k))
	n.RegisterMethodInput("runUpsample", "in")
	n.RegisterMethodOutput("runUpsample", "out")
	n.Attrs["ktype"] = "upsample"
	n.Attrs["kparams"] = fmt.Sprintf("%d", k)
	n.Behavior = upsampleBehavior{k: k}
	return n
}

type upsampleBehavior struct {
	elemToF64
	k int
}

func (b upsampleBehavior) Clone() graph.Behavior { return b }

// AcceptsBatch implements graph.BatchAware: samples arrive in row spans.
func (upsampleBehavior) AcceptsBatch(input string) bool { return input == "in" }

func (b upsampleBehavior) Invoke(method string, ctx graph.ExecContext) error {
	if method != "runUpsample" {
		return fmt.Errorf("kernel: upsample has no method %q", method)
	}
	in := rowOf(ctx.Input("in"))
	n, sx := spanIn(ctx, "in", 1)
	out := frame.AllocUninit(frame.F64, n*b.k, b.k)
	for j := 0; j < n; j++ {
		v := in.at(j * sx)
		for y := 0; y < b.k; y++ {
			block := out.Pix[y*n*b.k+j*b.k:][:b.k]
			for i := range block {
				block[i] = v
			}
		}
	}
	emitSpan(ctx, "out", out, n, b.k)
	return nil
}

// Magnitude builds the two-input gradient-magnitude kernel
// out = sqrt(gx² + gy²), a second multi-input example beyond Subtract.
// Like Subtract, both inputs accept row spans.
func Magnitude(name string) *graph.Node {
	n := graph.NewNode(name, graph.KindKernel)
	n.CreateInput("gx", geom.Sz(1, 1), geom.St(1, 1), geom.Off(0, 0))
	n.CreateInput("gy", geom.Sz(1, 1), geom.St(1, 1), geom.Off(0, 0))
	n.CreateOutput("out", geom.Sz(1, 1), geom.St(1, 1))
	n.RegisterMethod("magnitude", 24, 2)
	n.RegisterMethodInput("magnitude", "gx")
	n.RegisterMethodInput("magnitude", "gy")
	n.RegisterMethodOutput("magnitude", "out")
	n.Attrs["ktype"] = "magnitude"
	n.Behavior = magnitudeBehavior{}
	return n
}

type magnitudeBehavior struct{ elemToF64 }

func (magnitudeBehavior) Clone() graph.Behavior { return magnitudeBehavior{} }

// AcceptsBatch implements graph.BatchAware: samples arrive in row spans.
func (magnitudeBehavior) AcceptsBatch(input string) bool { return input == "gx" || input == "gy" }

func (magnitudeBehavior) Invoke(method string, ctx graph.ExecContext) error {
	if method != "magnitude" {
		return fmt.Errorf("kernel: magnitude has no method %q", method)
	}
	return zipSpan(ctx, "gx", "gy", math.Hypot)
}

// Threshold builds a 1×1 binarization kernel: out = high if in >= t,
// else low. Its input accepts row spans.
func Threshold(name string, t, low, high float64) *graph.Node {
	n := graph.NewNode(name, graph.KindKernel)
	n.CreateInput("in", geom.Sz(1, 1), geom.St(1, 1), geom.Off(0, 0))
	n.CreateOutput("out", geom.Sz(1, 1), geom.St(1, 1))
	n.RegisterMethod("runThreshold", 6, 1)
	n.RegisterMethodInput("runThreshold", "in")
	n.RegisterMethodOutput("runThreshold", "out")
	n.Attrs["ktype"] = "threshold"
	n.Attrs["kparams"] = fmt.Sprintf("%g,%g,%g", t, low, high)
	n.Behavior = thresholdBehavior{t: t, low: low, high: high}
	return n
}

type thresholdBehavior struct {
	elemToF64
	t, low, high float64
}

func (b thresholdBehavior) Clone() graph.Behavior { return b }

// AcceptsBatch implements graph.BatchAware: samples arrive in row spans.
func (thresholdBehavior) AcceptsBatch(input string) bool { return input == "in" }

func (b thresholdBehavior) Invoke(method string, ctx graph.ExecContext) error {
	if method != "runThreshold" {
		return fmt.Errorf("kernel: threshold has no method %q", method)
	}
	mapSpan(ctx, "in", func(v float64) float64 {
		if v >= b.t {
			return b.high
		}
		return b.low
	})
	return nil
}
