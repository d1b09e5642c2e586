package kernel

import (
	"fmt"

	"blockpar/internal/frame"
	"blockpar/internal/geom"
	"blockpar/internal/graph"
)

// BayerDemosaic builds a bilinear demosaicing kernel for RGGB mosaics
// (Figure 13 benchmarks 1 and 1F). To stay data-parallel the kernel
// consumes a 4×4 window advanced by (2,2) and reconstructs the interior
// 2×2 quad, which contains exactly one pixel of each Bayer parity class
// regardless of the window's absolute position; it demonstrates the
// model's multiple outputs with separate R, G, and B planes.
//
// The input accepts row batches: a span of N overlapping windows is
// demosaiced in one firing and each color plane leaves as one 2N×2
// batched row. Interpolation always runs in float64 (u8 samples promote
// exactly) and narrows back through the shared quantization rule when
// the stream's element kind is u8, so scalar and batched firings are
// byte-identical.
func BayerDemosaic(name string) *graph.Node {
	n := graph.NewNode(name, graph.KindKernel)
	n.CreateInput("in", geom.Sz(4, 4), geom.St(2, 2), geom.Off(1, 1))
	n.CreateOutput("r", geom.Sz(2, 2), geom.St(2, 2))
	n.CreateOutput("g", geom.Sz(2, 2), geom.St(2, 2))
	n.CreateOutput("b", geom.Sz(2, 2), geom.St(2, 2))
	n.RegisterMethod("demosaic", bayerCycles, 16)
	n.RegisterMethodInput("demosaic", "in")
	n.RegisterMethodOutput("demosaic", "r")
	n.RegisterMethodOutput("demosaic", "g")
	n.RegisterMethodOutput("demosaic", "b")
	n.Attrs["ktype"] = "bayer"
	n.Behavior = &bayerBehavior{}
	return n
}

type bayerBehavior struct {
	// scratch holds the batch span promoted to dense float64 rows, so
	// the interpolation runs with direct flat indexing instead of
	// per-pixel strided At calls. Behaviors are single-threaded per
	// node instance, so the buffer is reused across firings.
	scratch []float64
}

func (*bayerBehavior) Clone() graph.Behavior { return &bayerBehavior{} }

// AcceptsBatch implements graph.BatchAware: windows arrive in row spans.
func (*bayerBehavior) AcceptsBatch(input string) bool { return input == "in" }

func (bb *bayerBehavior) Invoke(method string, ctx graph.ExecContext) error {
	if method != "demosaic" {
		return fmt.Errorf("kernel: bayer has no method %q", method)
	}
	in := ctx.Input("in")
	n, sx := spanIn(ctx, "in", 2)
	// The window's top-left is at even absolute coordinates (step 2,2
	// from an even origin), so within-window position (1,1) has odd-odd
	// absolute parity, (2,2) even-even, matching RGGB via quadParity.
	r := frame.AllocKind(in.Kind, 2*n, 2)
	g := frame.AllocKind(in.Kind, 2*n, 2)
	b := frame.AllocKind(in.Kind, 2*n, 2)
	if sx%2 == 0 {
		bb.demosaicSpan(in, n, sx, r, g, b)
	} else {
		for j := 0; j < n; j++ {
			for qy := 0; qy < 2; qy++ {
				for qx := 0; qx < 2; qx++ {
					rv, gv, bv := demosaicQuad(in, j*sx+1+qx, 1+qy)
					r.Set(j*2+qx, qy, rv)
					g.Set(j*2+qx, qy, gv)
					b.Set(j*2+qx, qy, bv)
				}
			}
		}
	}
	emitSpan(ctx, "r", r, n, 2)
	emitSpan(ctx, "g", g, n, 2)
	emitSpan(ctx, "b", b, n, 2)
	return nil
}

// demosaicSpan is the dense row loop: the whole batch span is promoted
// once into a flat float64 scratch, and every quad interpolates with
// direct indexing — no strided At calls, no per-pixel closures. The
// even batch stride keeps the parity class of each quad position fixed,
// so the four sites unroll statically. Sums are accumulated in the same
// order as demosaicQuad and outputs narrow through the same Set rule,
// making the two paths bit-identical.
func (bb *bayerBehavior) demosaicSpan(in frame.Window, n, sx int, r, g, b frame.Window) {
	w := in.W
	need := w * 4
	if cap(bb.scratch) < need {
		bb.scratch = make([]float64, need)
	}
	s := bb.scratch[:need]
	for y := 0; y < 4; y++ {
		dst := s[y*w : (y+1)*w]
		switch in.Kind {
		case frame.U8:
			for x, v := range in.RowU8(y) {
				dst[x] = float64(v)
			}
		case frame.F32:
			for x, v := range in.RowF32(y) {
				dst[x] = float64(v)
			}
		default:
			copy(dst, in.Row(y))
		}
	}
	for j := 0; j < n; j++ {
		// (base+1, 1): odd-odd — blue site.
		p := w + j*sx + 1
		b.Set(j*2, 0, s[p])
		g.Set(j*2, 0, (s[p-1]+s[p+1]+s[p-w]+s[p+w])/4)
		r.Set(j*2, 0, (s[p-w-1]+s[p-w+1]+s[p+w-1]+s[p+w+1])/4)
		// (base+2, 1): even-odd — green on the blue row.
		p++
		g.Set(j*2+1, 0, s[p])
		r.Set(j*2+1, 0, (s[p-w]+s[p+w])/2)
		b.Set(j*2+1, 0, (s[p-1]+s[p+1])/2)
		// (base+1, 2): odd-even — green on the red row.
		p += w - 1
		g.Set(j*2, 1, s[p])
		r.Set(j*2, 1, (s[p-1]+s[p+1])/2)
		b.Set(j*2, 1, (s[p-w]+s[p+w])/2)
		// (base+2, 2): even-even — red site.
		p++
		r.Set(j*2+1, 1, s[p])
		g.Set(j*2+1, 1, (s[p-1]+s[p+1]+s[p-w]+s[p+w])/4)
		b.Set(j*2+1, 1, (s[p-w-1]+s[p-w+1]+s[p+w-1]+s[p+w+1])/4)
	}
}

// demosaicQuad reconstructs RGB at window position (cx, cy); the window
// is anchored at even absolute coordinates so absolute parity equals
// (cx%2, cy%2).
func demosaicQuad(w frame.Window, cx, cy int) (r, g, b float64) {
	avg4 := func(dx1, dy1, dx2, dy2, dx3, dy3, dx4, dy4 int) float64 {
		return (w.At(cx+dx1, cy+dy1) + w.At(cx+dx2, cy+dy2) +
			w.At(cx+dx3, cy+dy3) + w.At(cx+dx4, cy+dy4)) / 4
	}
	avg2 := func(dx1, dy1, dx2, dy2 int) float64 {
		return (w.At(cx+dx1, cy+dy1) + w.At(cx+dx2, cy+dy2)) / 2
	}
	switch {
	case cy%2 == 0 && cx%2 == 0: // red site
		r = w.At(cx, cy)
		g = avg4(-1, 0, 1, 0, 0, -1, 0, 1)
		b = avg4(-1, -1, 1, -1, -1, 1, 1, 1)
	case cy%2 == 0 && cx%2 == 1: // green on red row
		g = w.At(cx, cy)
		r = avg2(-1, 0, 1, 0)
		b = avg2(0, -1, 0, 1)
	case cy%2 == 1 && cx%2 == 0: // green on blue row
		g = w.At(cx, cy)
		r = avg2(0, -1, 0, 1)
		b = avg2(-1, 0, 1, 0)
	default: // blue site
		b = w.At(cx, cy)
		g = avg4(-1, 0, 1, 0, 0, -1, 0, 1)
		r = avg4(-1, -1, 1, -1, -1, 1, 1, 1)
	}
	return r, g, b
}
