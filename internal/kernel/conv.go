package kernel

import (
	"fmt"

	"blockpar/internal/frame"
	"blockpar/internal/geom"
	"blockpar/internal/graph"
)

// Cost model constants shared by the kernel library. Cycle counts
// follow the shapes the paper registers in its examples (Figures 6, 7):
// a fixed method overhead plus a per-element term.
const (
	methodOverhead = 10
	convPerElem    = 3
	medianPerElem  = 6
	subtractCycles = 8
	gainCycles     = 4
	bayerCycles    = 60
	fsmPerItem     = 2
)

// Convolution builds a k×k convolution kernel following the paper's
// Figure 6: a windowed data input "in", a replicated coefficient input
// "coeff" with its own loadCoeff method, and a 1×1 output "out". The
// two methods share the kernel-private coefficient state.
//
// The data input accepts row batches: a span item carrying a whole row
// of overlapping windows is convolved in one firing with dense
// per-coefficient row loops (one multiply-accumulate sweep per tap over
// a contiguous typed span), and the 1×1 results leave as one batched
// row. Per-output accumulation order matches the scalar path exactly,
// so scalar and batched runs are byte-identical.
func Convolution(name string, k int) *graph.Node {
	if k < 1 || k%2 == 0 {
		panic(fmt.Sprintf("kernel: convolution size %d must be odd and positive", k))
	}
	n := graph.NewNode(name, graph.KindKernel)
	half := int64(k / 2)
	n.CreateInput("in", geom.Sz(k, k), geom.St(1, 1), geom.Off(half, half))
	coeff := n.CreateInput("coeff", geom.Sz(k, k), geom.St(k, k), geom.Off(half, half))
	coeff.Replicated = true
	n.CreateOutput("out", geom.Sz(1, 1), geom.St(1, 1))

	n.RegisterMethod("runConvolve", int64(methodOverhead+convPerElem*k*k), int64(2*k*k))
	n.RegisterMethodInput("runConvolve", "in")
	n.RegisterMethodOutput("runConvolve", "out")

	n.RegisterMethod("loadCoeff", int64(methodOverhead+2*k*k), int64(k*k))
	n.RegisterMethodInput("loadCoeff", "coeff")

	n.Attrs["ktype"] = "convolution"
	n.Attrs["kparams"] = fmt.Sprintf("%d", k)
	n.Behavior = &convBehavior{k: k}
	return n
}

type convBehavior struct {
	k int
	// flat holds the coefficients pre-flipped into tap order:
	// flat[ky*k+kx] multiplies input sample (kx,ky), matching the
	// convolution's coordinate flip. flat32 is its float32 twin for the
	// f32 data path.
	flat   []float64
	flat32 []float32
}

func (b *convBehavior) Clone() graph.Behavior { return &convBehavior{k: b.k} }

// AcceptsBatch implements graph.BatchAware: windows arrive in row spans.
func (b *convBehavior) AcceptsBatch(input string) bool { return input == "in" }

// ElemAccepts implements graph.ElemTyped: the multiply-accumulate runs
// natively on float rows only, so integer streams get a widening
// conversion inserted by the compiler. The replicated coefficient input
// loads through promotion and accepts any kind.
func (b *convBehavior) ElemAccepts(input string, k frame.Kind) bool {
	if input != "in" {
		return true
	}
	return k == frame.F64 || k == frame.F32
}

// ElemOut implements graph.ElemTyped: f32 windows produce f32 sums,
// everything else float64.
func (b *convBehavior) ElemOut(output string, in frame.Kind) frame.Kind {
	if in == frame.F32 {
		return frame.F32
	}
	return frame.F64
}

func (b *convBehavior) Invoke(method string, ctx graph.ExecContext) error {
	switch method {
	case "loadCoeff":
		c := ctx.Input("coeff")
		k := b.k
		if len(b.flat) != k*k {
			b.flat = make([]float64, k*k)
			b.flat32 = make([]float32, k*k)
		}
		for ky := 0; ky < k; ky++ {
			for kx := 0; kx < k; kx++ {
				v := c.At(k-kx-1, k-ky-1)
				b.flat[ky*k+kx] = v
				b.flat32[ky*k+kx] = float32(v)
			}
		}
		return nil
	case "runConvolve":
		if b.flat == nil {
			// Coefficients not loaded yet; the runtime's configuration
			// barrier prevents this, so reaching here is a bug.
			return fmt.Errorf("kernel: %dx%d convolution fired before loadCoeff", b.k, b.k)
		}
		in := ctx.Input("in")
		n, sx := spanIn(ctx, "in", 1)
		var out frame.Window
		switch in.Kind {
		case frame.F32:
			out = b.convolveF32(in, n, sx)
		default:
			out = b.convolveF64(in, n, sx)
		}
		emitSpan(ctx, "out", out, n, 1)
		return nil
	default:
		return fmt.Errorf("kernel: convolution has no method %q", method)
	}
}

// convolveF64 convolves the n overlapping k×k windows packed in the
// span (window j starts at column j*sx) and returns their results as a
// dense n×1 window, accumulating straight into its zeroed row.
// Accumulation visits taps in (ky,kx) order for every output, the same
// order as the original scalar loop, so results are byte-identical
// regardless of batching.
func (b *convBehavior) convolveF64(in frame.Window, n, sx int) frame.Window {
	k := b.k
	out := frame.AllocKind(frame.F64, n, 1)
	acc := out.Row(0)[:n]
	if in.Kind == frame.F64 {
		for ky := 0; ky < k; ky++ {
			row := in.Row(ky)
			for kx := 0; kx < k; kx++ {
				c := b.flat[ky*k+kx]
				if sx == 1 {
					row2 := row[kx : kx+n]
					for j, v := range row2 {
						acc[j] += v * c
					}
				} else {
					for j := range acc {
						acc[j] += row[j*sx+kx] * c
					}
				}
			}
		}
	} else {
		// Generic strided fallback for element kinds without a dense f64
		// row (u8 spans reaching a conv without a widening conversion).
		for ky := 0; ky < k; ky++ {
			for kx := 0; kx < k; kx++ {
				c := b.flat[ky*k+kx]
				for j := range acc {
					acc[j] += in.At(j*sx+kx, ky) * c
				}
			}
		}
	}
	return out
}

// convolveF32 is the float32 twin of convolveF64: f32 taps, f32
// accumulators, f32 results.
func (b *convBehavior) convolveF32(in frame.Window, n, sx int) frame.Window {
	k := b.k
	out := frame.AllocKind(frame.F32, n, 1)
	acc := out.RowF32(0)[:n]
	for ky := 0; ky < k; ky++ {
		row := in.RowF32(ky)
		for kx := 0; kx < k; kx++ {
			c := b.flat32[ky*k+kx]
			if sx == 1 {
				row2 := row[kx : kx+n]
				for j, v := range row2 {
					acc[j] += v * c
				}
			} else {
				for j := range acc {
					acc[j] += row[j*sx+kx] * c
				}
			}
		}
	}
	return out
}
