package conformance

import (
	"fmt"
	"math"

	"blockpar/internal/analysis"
	"blockpar/internal/frame"
	"blockpar/internal/graph"
	"blockpar/internal/runtime"
)

// eps32 is the float32 unit roundoff: every single-precision operation
// may perturb its result by at most this relative amount.
const eps32 = 1.0 / (1 << 24)

// TypedTolerances derives, for every graph output of a typed case, the
// absolute divergence the typed execution is allowed from the f64
// oracle. It is a per-kernel forward error bound: walking the graph in
// topological order it carries a magnitude bound and an accumulated
// rounding bound per stream, and each kernel's rule updates both.
// Only single-precision arithmetic contributes error — a convolution
// running its f32 multiply-accumulate adds taps*eps32 relative
// rounding and scales any incoming error by the sum of its |taps|;
// u8 and f64 stages are bit-identical to the oracle by construction,
// so a stream that never passes through f32 compute ends with
// tolerance 0 and the gate demands byte equality (after quantization,
// for u8 outputs).
func TypedTolerances(c *Case) (map[string]float64, error) {
	ek, err := analysis.ElemKinds(c.Graph)
	if err != nil {
		return nil, err
	}
	order, err := c.Graph.Topological()
	if err != nil {
		return nil, err
	}
	type bound struct{ scale, err float64 }
	out := make(map[*graph.Port]bound)
	tol := make(map[string]float64)
	for _, n := range order {
		// Join the data inputs: widest magnitude, worst error.
		in := bound{}
		for _, p := range n.Inputs() {
			if p.Replicated {
				continue
			}
			e := c.Graph.EdgeTo(p)
			if e == nil {
				continue
			}
			b := out[e.From]
			in.scale = math.Max(in.scale, b.scale)
			in.err = math.Max(in.err, b.err)
		}
		switch {
		case n.Kind == graph.KindInput:
			in = bound{scale: sourcePeak(c, n), err: 0}
		case n.Kind == graph.KindOutput:
			tol[n.Name()] = in.err
			continue
		case n.Attrs["ktype"] == "convolution":
			gain, taps, err := coeffGain(c, n)
			if err != nil {
				return nil, err
			}
			in.scale *= gain
			in.err *= gain
			if kindOf(ek, n) == frame.F32 {
				// Each of the taps multiply-accumulates rounds once, and
				// the taps themselves were rounded to f32 when loaded.
				in.err += float64(taps+1) * eps32 * in.scale
			}
		case n.Attrs["ktype"] == "convert":
			if kindOf(ek, n) == frame.F32 {
				in.err += eps32 * in.scale
			}
		}
		for _, o := range n.Outputs() {
			out[o] = in
		}
	}
	// Headroom: the bound assumes worst-case rounding alignment; ×4
	// keeps the gate meaningful while never flaking on benign orderings.
	for name := range tol {
		tol[name] *= 4
	}
	return tol, nil
}

// kindOf returns the element kind of a node's first output.
func kindOf(ek *analysis.ElemResult, n *graph.Node) frame.Kind {
	for _, o := range n.Outputs() {
		return ek.Out[o]
	}
	return frame.F64
}

// sourcePeak bounds the magnitude a case source emits, sampled over
// the first frames.
func sourcePeak(c *Case, n *graph.Node) float64 {
	gen := c.Sources[n.Name()]
	if gen == nil {
		gen = frame.Gradient
	}
	peak := 0.0
	for seq := int64(0); seq < 2; seq++ {
		w := gen(seq, n.FrameSize.W, n.FrameSize.H)
		for y := 0; y < w.H; y++ {
			for x := 0; x < w.W; x++ {
				peak = math.Max(peak, math.Abs(w.At(x, y)))
			}
		}
	}
	return peak
}

// coeffGain evaluates a convolution's coefficient source and returns
// the stream gain (sum of |taps|) and the tap count.
func coeffGain(c *Case, n *graph.Node) (gain float64, taps int, err error) {
	e := c.Graph.EdgeTo(n.Input("coeff"))
	if e == nil {
		return 0, 0, fmt.Errorf("conformance: convolution %q has no coeff edge", n.Name())
	}
	src := e.From.Node()
	if src.Kind != graph.KindInput {
		return 0, 0, fmt.Errorf("conformance: convolution %q coeff is not fed by an input", n.Name())
	}
	gen := c.Sources[src.Name()]
	if gen == nil {
		gen = frame.Gradient
	}
	w := gen(0, src.FrameSize.W, src.FrameSize.H)
	for y := 0; y < w.H; y++ {
		for x := 0; x < w.W; x++ {
			gain += math.Abs(w.At(x, y))
		}
	}
	return gain, w.W * w.H, nil
}

// CheckTyped is the typed-plane conformance gate: it runs the typed
// case through every compilation variant on the batch runtime and
// diffs each output against the f64 oracle of the reference twin —
// the same graph and the same (pre-quantized) input values with every
// stream left at double precision. Outputs whose path never passes
// through f32 compute must match byte-for-byte (u8 outputs after
// quantizing the oracle through the same Window.Set rounding); f32
// outputs must agree within the per-kernel forward error bound from
// TypedTolerances.
func CheckTyped(typed, ref *Case, frames int) error {
	if frames <= 0 {
		frames = 2
	}
	want, err := OracleFrames(ref, frames)
	if err != nil {
		return fmt.Errorf("f64 oracle: %w", err)
	}
	tol, err := TypedTolerances(typed)
	if err != nil {
		return err
	}
	for _, v := range Variants() {
		compiled, err := compileVariant(typed, v)
		if err != nil {
			return err
		}
		g := compiled.Graph.Clone()
		res, err := runtime.Run(g, runtime.Options{
			Frames: frames, Sources: typed.Sources, Timeout: execTimeout,
		})
		if err != nil {
			return fmt.Errorf("%s: %w", v.Name, err)
		}
		for _, out := range g.Outputs() {
			name := out.Name()
			slices := res.FrameSlices(name)
			if len(slices) != frames {
				return fmt.Errorf("%s: output %q completed %d frames, want %d",
					v.Name, name, len(slices), frames)
			}
			for f, got := range slices {
				if err := compareTolerant(got, want[f][name], tol[name]); err != nil {
					return fmt.Errorf("%s: output %q frame %d: %w", v.Name, name, f, err)
				}
			}
		}
	}
	return nil
}

// compareTolerant applies the tolerance gate to one output frame.
// tol == 0 demands byte equality after converting the oracle window
// to the typed kind (exercising the same quantization the kernels
// use); tol > 0 compares element-wise after promotion to f64.
func compareTolerant(got, want []frame.Window, tol float64) error {
	if len(got) != len(want) {
		return fmt.Errorf("%d windows, want %d", len(got), len(want))
	}
	for i := range got {
		if tol == 0 {
			if !got[i].Equal(want[i].Convert(got[i].Kind)) {
				return fmt.Errorf("window %d differs from quantized oracle: got %v want %v", i, got[i], want[i])
			}
		} else if !got[i].AlmostEqual(want[i], tol) {
			return fmt.Errorf("window %d diverges from f64 oracle beyond tolerance %g: got %v want %v",
				i, tol, got[i], want[i])
		}
	}
	return nil
}
