package kernel

import (
	"cmp"
	"fmt"

	"blockpar/internal/frame"
	"blockpar/internal/graph"
)

// elemToF64 is embedded by behaviors whose arithmetic runs in float64
// and allocates float64 results regardless of the arriving element kind
// (scalar reductions, histogram counts, motion vectors): they accept
// any input kind — samples promote exactly through Window.At/Value —
// and their outputs carry f64.
type elemToF64 struct{}

// ElemAccepts implements graph.ElemTyped.
func (elemToF64) ElemAccepts(input string, k frame.Kind) bool { return true }

// ElemOut implements graph.ElemTyped.
func (elemToF64) ElemOut(output string, in frame.Kind) frame.Kind { return frame.F64 }

// typedRow returns window row y as its native element slice. The type
// parameter must match the window's kind; callers dispatch on w.Kind
// and instantiate accordingly.
func typedRow[T cmp.Ordered](w frame.Window, y int) []T {
	switch w.Kind {
	case frame.U8:
		return any(w.RowU8(y)).([]T)
	case frame.F32:
		return any(w.RowF32(y)).([]T)
	default:
		return any(w.Row(y)).([]T)
	}
}

// spanIn returns how many logical windows the item consumed from input
// carries and the column step between them: the batch's N and Sx, or 1
// and step for a plain item and for contexts that carry no batches (the
// sequential oracle). Batch-aware kernels run one loop over the n
// windows, so n == 1 is the scalar firing.
func spanIn(ctx graph.ExecContext, input string, step int) (n, sx int) {
	if bc, ok := ctx.(graph.BatchContext); ok {
		if bt := bc.Batch(input); bt.IsBatch() {
			return int(bt.N), int(bt.Sx)
		}
	}
	return 1, step
}

// emitSpan emits out, the results of n logical firings packed w columns
// apart, as one batched item — a plain item when n is 1.
func emitSpan(ctx graph.ExecContext, output string, out frame.Window, n, w int) {
	if n > 1 {
		ctx.(graph.BatchContext).EmitBatch(output, out, graph.Batch{N: int32(n), Sx: int32(w), Bw: int32(w)})
		return
	}
	ctx.Emit(output, out)
}

// mapSpan fires a per-sample kernel on the item consumed from input: f
// maps the top-left sample of each of its n windows to one f64 result,
// and the n results leave on "out" as one row.
func mapSpan(ctx graph.ExecContext, input string, f func(float64) float64) {
	in := rowOf(ctx.Input(input))
	n, sx := spanIn(ctx, input, 1)
	out := frame.AllocUninit(frame.F64, n, 1)
	for j := range out.Pix {
		out.Pix[j] = f(in.at(j * sx))
	}
	emitSpan(ctx, "out", out, n, 1)
}

// zipSpan is mapSpan over the sample pairs of two inputs. The driver
// hands a two-input method spans of equal length (the common prefix of
// its heads), so a mismatch is an executor bug.
func zipSpan(ctx graph.ExecContext, in0, in1 string, f func(a, b float64) float64) error {
	a, b := rowOf(ctx.Input(in0)), rowOf(ctx.Input(in1))
	n, sa := spanIn(ctx, in0, 1)
	nb, sb := spanIn(ctx, in1, 1)
	if nb != n {
		return fmt.Errorf("kernel: %s and %s fired on spans of %d and %d windows", in0, in1, n, nb)
	}
	out := frame.AllocUninit(frame.F64, n, 1)
	for j := range out.Pix {
		out.Pix[j] = f(a.at(j*sa), b.at(j*sb))
	}
	emitSpan(ctx, "out", out, n, 1)
	return nil
}

// sampleRow is row 0 of a window, read as float64 samples. The span
// loops index it rather than call Window.At, which copies the 88-byte
// window header on every call.
type sampleRow struct {
	f64 []float64
	f32 []float32
	u8  []byte
}

func rowOf(w frame.Window) sampleRow {
	switch w.Kind {
	case frame.U8:
		return sampleRow{u8: w.RowU8(0)}
	case frame.F32:
		return sampleRow{f32: w.RowF32(0)}
	}
	return sampleRow{f64: w.Row(0)}
}

func (r *sampleRow) at(x int) float64 {
	switch {
	case r.f64 != nil:
		return r.f64[x]
	case r.f32 != nil:
		return float64(r.f32[x])
	}
	return float64(r.u8[x])
}
