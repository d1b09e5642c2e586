package kernel

import (
	"fmt"
	"sort"
	"unsafe"

	"blockpar/internal/frame"
	"blockpar/internal/geom"
	"blockpar/internal/graph"
)

// Median builds a k×k median filter kernel: windowed input "in",
// 1×1 output "out".
//
// The input accepts row batches. For the common 3×3 case the span's
// columns are each sorted once and every window combines its three
// sorted columns (medianSpan3) — exact for every element kind, since
// the median of integer samples is an integer sample; other sizes fall
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
	// k32 (u8 and f32 samples) and k64 (f64 samples) hold a 3×3 span's
	// sorted columns as sort keys, sized on first use.
	k32 []int32
	k64 []int64
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
	switch {
	case b.k != 3:
		out = b.medianSpanSort(in, n, sx)
	case in.Kind == frame.U8:
		out = medianSpan3[uint8](in, &b.k32, n, sx)
	case in.Kind == frame.F32:
		out = medianSpan3[int32](in, &b.k32, n, sx)
	default:
		out = medianSpan3[int64](in, &b.k64, n, sx)
	}
	emitSpan(ctx, "out", out, n, 1)
	return nil
}

// medianSpanSort reduces each of the n k×k windows in the span by
// gathering its samples and sorting — the generic path for k != 3.
func (b *medianBehavior) medianSpanSort(in frame.Window, n, sx int) frame.Window {
	out := frame.AllocUninit(in.Kind, n, 1)
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

// medianSpan3 reduces each of the n 3×3 windows in a span, starting sx
// columns apart, and packs the medians into a dense n×1 window. It
// sorts each of the span's (n-1)·sx+3 columns once into cols (lowest,
// middle, highest), so overlapping windows share their columns' sorts.
// A window's median is then the median of three values taken from its
// three sorted columns: the highest of the lows, the median of the
// middles and the lowest of the highs.
//
// Samples are compared as integer sort keys of type K, read from the
// samples' bit patterns E: a u8 sample widens to an int32, and a float's
// bits become a key that orders as the float does (a negative float has
// its magnitude bits flipped, which maps the key back again). Every step
// is then a builtin min or max on integers, which Go compiles to a
// compare and a conditional move — a byte or float min/max would be a
// conditional jump or a NaN-and-signed-zero-exact sequence several
// times as long. So no branch depends on the samples, and a window costs
// the same on noise as on a ramp. The result equals a sort's median for
// every element kind (-0 and +0 may trade places, which == cannot see);
// with a NaN in the window it is unspecified.
func medianSpan3[E sampleBits, K sortKey](in frame.Window, cols *[]K, n, sx int) frame.Window {
	out := frame.AllocUninit(in.Kind, n, 1)
	dst := rowBits[E](out, 0)[:n]
	m := (n-1)*sx + 3
	if cap(*cols) < 3*m {
		*cols = make([]K, 3*m)
	}
	c := (*cols)[:3*m]
	var k K
	sign := 8*unsafe.Sizeof(k) - 1
	flip := ^(^K(0) << sign) // every bit but the sign
	r0, r1, r2 := rowBits[E](in, 0)[:m], rowBits[E](in, 1)[:m], rowBits[E](in, 2)[:m]
	for x := range r0 {
		a, b, d := K(r0[x]), K(r1[x]), K(r2[x])
		a, b, d = a^(a>>sign&flip), b^(b>>sign&flip), d^(d>>sign&flip)
		lo, hi := min(a, b), max(a, b)
		s := c[3*x : 3*x+3]
		s[0], s[1], s[2] = min(lo, d), max(lo, min(hi, d)), max(hi, d)
	}
	for j := range dst {
		w := c[3*j*sx : 3*j*sx+9]
		v := med3(max(w[0], w[3], w[6]), med3(w[1], w[4], w[7]), min(w[2], w[5], w[8]))
		dst[j] = E(v ^ (v >> sign & flip))
	}
	return out
}

// sampleBits are the bit patterns of the element kinds: u8 samples, and
// f32 and f64 samples read as int32 and int64.
type sampleBits interface{ ~uint8 | ~int32 | ~int64 }

// sortKey is the integer type a median compares samples in.
type sortKey interface{ ~int32 | ~int64 }

// rowBits views row y of w as its samples' bit patterns.
func rowBits[E sampleBits](w frame.Window, y int) []E {
	b := w.RowBytes(y)
	var e E
	return unsafe.Slice((*E)(unsafe.Pointer(unsafe.SliceData(b))), len(b)/int(unsafe.Sizeof(e)))
}

// med3 is the median of three samples.
func med3[T sortKey](a, b, c T) T {
	return max(min(a, b), min(max(a, b), c))
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
