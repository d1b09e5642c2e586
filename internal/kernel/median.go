package kernel

import (
	"cmp"
	"fmt"
	"sort"

	"blockpar/internal/frame"
	"blockpar/internal/geom"
	"blockpar/internal/graph"
)

// Median builds a k×k median filter kernel: windowed input "in",
// 1×1 output "out".
//
// The input accepts row batches. For the common 3×3 case each window in
// the span is reduced with a branch-free 19-exchange median-of-9
// sorting network over its typed rows (exact for every element kind —
// the median of integer samples is an integer sample); other sizes fall
// back to a per-window gather-and-sort, still batched to amortize the
// channel traffic.
func Median(name string, k int) *graph.Node {
	if k < 1 || k%2 == 0 {
		panic(fmt.Sprintf("kernel: median size %d must be odd and positive", k))
	}
	n := graph.NewNode(name, graph.KindKernel)
	half := int64(k / 2)
	n.CreateInput("in", geom.Sz(k, k), geom.St(1, 1), geom.Off(half, half))
	n.CreateOutput("out", geom.Sz(1, 1), geom.St(1, 1))
	n.RegisterMethod("runMedian", int64(methodOverhead+medianPerElem*k*k), int64(k*k))
	n.RegisterMethodInput("runMedian", "in")
	n.RegisterMethodOutput("runMedian", "out")
	n.Attrs["ktype"] = "median"
	n.Attrs["kparams"] = fmt.Sprintf("%d", k)
	n.Behavior = &medianBehavior{k: k}
	return n
}

type medianBehavior struct {
	k   int
	buf []float64
}

func (b *medianBehavior) Clone() graph.Behavior { return &medianBehavior{k: b.k} }

// AcceptsBatch implements graph.BatchAware: windows arrive in row spans.
func (b *medianBehavior) AcceptsBatch(input string) bool { return input == "in" }

func (b *medianBehavior) Invoke(method string, ctx graph.ExecContext) error {
	if method != "runMedian" {
		return fmt.Errorf("kernel: median has no method %q", method)
	}
	in := ctx.Input("in")
	n, sx := spanIn(ctx, "in", 1)
	var out frame.Window
	if b.k == 3 {
		switch in.Kind {
		case frame.U8:
			out = medianSpan3(frame.U8, in.RowU8(0), in.RowU8(1), in.RowU8(2), n, sx)
		case frame.F32:
			out = medianSpan3(frame.F32, in.RowF32(0), in.RowF32(1), in.RowF32(2), n, sx)
		default:
			out = medianSpan3(frame.F64, in.Row(0), in.Row(1), in.Row(2), n, sx)
		}
	} else {
		out = b.medianSpanSort(in, n, sx)
	}
	emitSpan(ctx, "out", out, n, 1)
	return nil
}

// medianSpanSort reduces each of the n k×k windows in the span by
// gathering its samples and sorting — the generic path for k != 3.
func (b *medianBehavior) medianSpanSort(in frame.Window, n, sx int) frame.Window {
	out := frame.AllocKind(in.Kind, n, 1)
	for j := 0; j < n; j++ {
		b.buf = b.buf[:0]
		for y := 0; y < b.k; y++ {
			for x := 0; x < b.k; x++ {
				b.buf = append(b.buf, in.At(j*sx+x, y))
			}
		}
		sort.Float64s(b.buf)
		out.Set(j, 0, b.buf[len(b.buf)/2])
	}
	return out
}

// medianSpan3 runs the median-of-9 network over each 3×3 window in a
// span of n windows starting sx columns apart, given the span's three
// typed rows, and packs the medians into a dense n×1 window.
func medianSpan3[T cmp.Ordered](k frame.Kind, r0, r1, r2 []T, n, sx int) frame.Window {
	out := frame.AllocKind(k, n, 1)
	var dst []T
	switch k {
	case frame.U8:
		dst = any(out.RowU8(0)).([]T)
	case frame.F32:
		dst = any(out.RowF32(0)).([]T)
	default:
		dst = any(out.Row(0)).([]T)
	}
	if sx == 1 && len(r0) >= n+2 && len(r1) >= n+2 && len(r2) >= n+2 {
		r0, r1, r2 = r0[:n+2], r1[:n+2], r2[:n+2]
		for j := 0; j < n; j++ {
			dst[j] = med9(r0[j], r0[j+1], r0[j+2], r1[j], r1[j+1], r1[j+2], r2[j], r2[j+1], r2[j+2])
		}
	} else {
		for j := 0; j < n; j++ {
			x := j * sx
			dst[j] = med9(r0[x], r0[x+1], r0[x+2], r1[x], r1[x+1], r1[x+2], r2[x], r2[x+1], r2[x+2])
		}
	}
	return out
}

func s2[T cmp.Ordered](a, b T) (T, T) {
	if b < a {
		return b, a
	}
	return a, b
}

// med9 is the classic 19-exchange median-of-9 sorting network
// (Smith 1996): exact, branch-predictable, and allocation-free.
func med9[T cmp.Ordered](p0, p1, p2, p3, p4, p5, p6, p7, p8 T) T {
	p1, p2 = s2(p1, p2)
	p4, p5 = s2(p4, p5)
	p7, p8 = s2(p7, p8)
	p0, p1 = s2(p0, p1)
	p3, p4 = s2(p3, p4)
	p6, p7 = s2(p6, p7)
	p1, p2 = s2(p1, p2)
	p4, p5 = s2(p4, p5)
	p7, p8 = s2(p7, p8)
	p0, p3 = s2(p0, p3)
	p5, p8 = s2(p5, p8)
	p4, p7 = s2(p4, p7)
	p3, p6 = s2(p3, p6)
	p1, p4 = s2(p1, p4)
	p2, p5 = s2(p2, p5)
	p4, p7 = s2(p4, p7)
	p4, p2 = s2(p4, p2)
	p6, p4 = s2(p6, p4)
	p4, p2 = s2(p4, p2)
	return p4
}

// Subtract builds the per-pixel difference kernel of Figure 1: two 1×1
// inputs "in0", "in1" triggering one method, and output out = in0-in1.
// Both inputs accept row spans: a firing subtracts the common prefix of
// the two heads in one loop and emits the differences as one row.
func Subtract(name string) *graph.Node {
	n := graph.NewNode(name, graph.KindKernel)
	n.CreateInput("in0", geom.Sz(1, 1), geom.St(1, 1), geom.Off(0, 0))
	n.CreateInput("in1", geom.Sz(1, 1), geom.St(1, 1), geom.Off(0, 0))
	n.CreateOutput("out", geom.Sz(1, 1), geom.St(1, 1))
	n.RegisterMethod("subtract", subtractCycles, 1)
	n.RegisterMethodInput("subtract", "in0")
	n.RegisterMethodInput("subtract", "in1")
	n.RegisterMethodOutput("subtract", "out")
	n.Attrs["ktype"] = "subtract"
	n.Behavior = subtractBehavior{}
	return n
}

type subtractBehavior struct{ elemToF64 }

func (subtractBehavior) Clone() graph.Behavior { return subtractBehavior{} }

// AcceptsBatch implements graph.BatchAware: samples arrive in row spans.
func (subtractBehavior) AcceptsBatch(input string) bool { return input == "in0" || input == "in1" }

func (subtractBehavior) Invoke(method string, ctx graph.ExecContext) error {
	if method != "subtract" {
		return fmt.Errorf("kernel: subtract has no method %q", method)
	}
	return zipSpan(ctx, "in0", "in1", func(a, b float64) float64 { return a - b })
}

// Gain builds a 1×1 scale-by-constant kernel, the simplest possible
// data-parallel kernel; used by tests and the quickstart example. Its
// input accepts row spans.
func Gain(name string, factor float64) *graph.Node {
	n := graph.NewNode(name, graph.KindKernel)
	n.CreateInput("in", geom.Sz(1, 1), geom.St(1, 1), geom.Off(0, 0))
	n.CreateOutput("out", geom.Sz(1, 1), geom.St(1, 1))
	n.RegisterMethod("runGain", gainCycles, 1)
	n.RegisterMethodInput("runGain", "in")
	n.RegisterMethodOutput("runGain", "out")
	n.Attrs["ktype"] = "gain"
	n.Attrs["kparams"] = fmt.Sprintf("%g", factor)
	n.Behavior = gainBehavior{factor: factor}
	return n
}

type gainBehavior struct {
	elemToF64
	factor float64
}

func (b gainBehavior) Clone() graph.Behavior { return b }

// AcceptsBatch implements graph.BatchAware: samples arrive in row spans.
func (gainBehavior) AcceptsBatch(input string) bool { return input == "in" }

func (b gainBehavior) Invoke(method string, ctx graph.ExecContext) error {
	if method != "runGain" {
		return fmt.Errorf("kernel: gain has no method %q", method)
	}
	mapSpan(ctx, "in", func(v float64) float64 { return v * b.factor })
	return nil
}

// Downsample builds a k×k decimation kernel keeping the top-left sample
// of each block. Its offset is fractional for even k, exercising the
// paper's fractional-offset parameterization (§II-A footnote 2). Its
// input accepts row spans of blocks, k columns apart.
func Downsample(name string, k int) *graph.Node {
	if k < 1 {
		panic("kernel: downsample factor must be positive")
	}
	n := graph.NewNode(name, graph.KindKernel)
	off := geom.OffF(geom.F(int64(k-1), 2), geom.F(int64(k-1), 2))
	n.CreateInput("in", geom.Sz(k, k), geom.St(k, k), off)
	n.CreateOutput("out", geom.Sz(1, 1), geom.St(1, 1))
	n.RegisterMethod("runDownsample", gainCycles, int64(k*k))
	n.RegisterMethodInput("runDownsample", "in")
	n.RegisterMethodOutput("runDownsample", "out")
	n.Attrs["ktype"] = "downsample"
	n.Attrs["kparams"] = fmt.Sprintf("%d", k)
	n.Behavior = downsampleBehavior{}
	return n
}

type downsampleBehavior struct{ elemToF64 }

func (downsampleBehavior) Clone() graph.Behavior { return downsampleBehavior{} }

// AcceptsBatch implements graph.BatchAware: blocks arrive in row spans.
func (downsampleBehavior) AcceptsBatch(input string) bool { return input == "in" }

func (downsampleBehavior) Invoke(method string, ctx graph.ExecContext) error {
	if method != "runDownsample" {
		return fmt.Errorf("kernel: downsample has no method %q", method)
	}
	mapSpan(ctx, "in", func(v float64) float64 { return v })
	return nil
}
