package kernel

import (
	"cmp"
	"fmt"

	"blockpar/internal/frame"
	"blockpar/internal/geom"
	"blockpar/internal/graph"
)

// MorphOp selects the order statistic a morphology kernel computes.
type MorphOp int

const (
	// Erode takes the window minimum.
	Erode MorphOp = iota
	// Dilate takes the window maximum.
	Dilate
)

func (op MorphOp) String() string {
	if op == Erode {
		return "erode"
	}
	return "dilate"
}

// Morphology builds a k×k grayscale erosion or dilation kernel — the
// other classic windowed non-linear filters beside the median, rounding
// out the image-processing kernel library. The input accepts row
// batches: each window in a span is folded with a dense min/max sweep
// over its typed rows, exact for every element kind.
func Morphology(name string, k int, op MorphOp) *graph.Node {
	if k < 1 || k%2 == 0 {
		panic(fmt.Sprintf("kernel: morphology size %d must be odd and positive", k))
	}
	n := graph.NewNode(name, graph.KindKernel)
	half := int64(k / 2)
	n.CreateInput("in", geom.Sz(k, k), geom.St(1, 1), geom.Off(half, half))
	n.CreateOutput("out", geom.Sz(1, 1), geom.St(1, 1))
	n.RegisterMethod("runMorph", int64(methodOverhead+2*k*k), int64(k*k))
	n.RegisterMethodInput("runMorph", "in")
	n.RegisterMethodOutput("runMorph", "out")
	n.Attrs["ktype"] = "morphology"
	n.Attrs["kparams"] = fmt.Sprintf("%d,%d", k, int(op))
	n.Behavior = morphBehavior{op: op}
	return n
}

type morphBehavior struct{ op MorphOp }

func (b morphBehavior) Clone() graph.Behavior { return b }

// AcceptsBatch implements graph.BatchAware: windows arrive in row spans.
func (morphBehavior) AcceptsBatch(input string) bool { return input == "in" }

func (b morphBehavior) Invoke(method string, ctx graph.ExecContext) error {
	if method != "runMorph" {
		return fmt.Errorf("kernel: morphology has no method %q", method)
	}
	in := ctx.Input("in")
	n, sx := spanIn(ctx, "in", 1)
	bw := in.W - (n-1)*sx
	var out frame.Window
	switch in.Kind {
	case frame.U8:
		out = morphSpan[uint8](b.op, in, n, sx, bw)
	case frame.F32:
		out = morphSpan[float32](b.op, in, n, sx, bw)
	default:
		out = morphSpan[float64](b.op, in, n, sx, bw)
	}
	emitSpan(ctx, "out", out, n, 1)
	return nil
}

// morphSpan folds each bw×H window in the span (window j starting at
// column j*sx) to its min or max and packs the results densely.
func morphSpan[T cmp.Ordered](op MorphOp, in frame.Window, n, sx, bw int) frame.Window {
	out := frame.AllocKind(in.Kind, n, 1)
	dst := typedRow[T](out, 0)
	for j := 0; j < n; j++ {
		x := j * sx
		best := typedRow[T](in, 0)[x]
		for y := 0; y < in.H; y++ {
			for _, v := range typedRow[T](in, y)[x : x+bw] {
				if (op == Erode && v < best) || (op == Dilate && v > best) {
					best = v
				}
			}
		}
		dst[j] = best
	}
	return out
}
