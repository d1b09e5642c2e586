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
	// per-pixel strided At calls; planes holds the six output rows (R,
	// G and B, two rows each) in float64 until they are narrowed.
	// Behaviors are single-threaded per node instance, so both buffers
	// are reused across firings.
	scratch, planes []float64
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
	// Windows step by (2,2), so a span's stride is even and every quad
	// of it has the same Bayer parity layout.
	if sx%2 != 0 {
		return fmt.Errorf("kernel: bayer span stride %d is odd; its windows step by 2", sx)
	}
	r := frame.AllocUninit(in.Kind, 2*n, 2)
	g := frame.AllocUninit(in.Kind, 2*n, 2)
	b := frame.AllocUninit(in.Kind, 2*n, 2)
	bb.demosaicSpan(in, n, sx, r, g, b)
	emitSpan(ctx, "r", r, n, 2)
	emitSpan(ctx, "g", g, n, 2)
	emitSpan(ctx, "b", b, n, 2)
	return nil
}

// demosaicSpan is the dense row loop: the whole batch span is promoted
// once into a flat float64 scratch, and every quad interpolates with
// direct indexing — no strided At calls, no per-pixel closures. The
// window's top-left is at even absolute coordinates (step 2,2 from an
// even origin), so within-window position (1,1) has odd-odd absolute
// parity and (2,2) even-even, matching RGGB, and the even batch stride
// keeps that true for every quad: the four sites unroll statically.
// Each site's sums are frame.BayerDemosaic's, accumulated in the same
// order. The planes are computed in float64 rows and each row narrows
// once through SetRow, Set's rule, so every kind matches the golden
// demosaic narrowed sample by sample.
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
	ow := 2 * n
	if cap(bb.planes) < 6*ow {
		bb.planes = make([]float64, 6*ow)
	}
	pl := bb.planes[:6*ow]
	r0, r1 := pl[0*ow:1*ow], pl[1*ow:2*ow]
	g0, g1 := pl[2*ow:3*ow], pl[3*ow:4*ow]
	b0, b1 := pl[4*ow:5*ow], pl[5*ow:6*ow]
	for j := 0; j < n; j++ {
		x := 2 * j
		// (base+1, 1): odd-odd — blue site.
		p := w + j*sx + 1
		b0[x] = s[p]
		g0[x] = (s[p-1] + s[p+1] + s[p-w] + s[p+w]) / 4
		r0[x] = (s[p-w-1] + s[p-w+1] + s[p+w-1] + s[p+w+1]) / 4
		// (base+2, 1): even-odd — green on the blue row.
		p++
		g0[x+1] = s[p]
		r0[x+1] = (s[p-w] + s[p+w]) / 2
		b0[x+1] = (s[p-1] + s[p+1]) / 2
		// (base+1, 2): odd-even — green on the red row.
		p += w - 1
		g1[x] = s[p]
		r1[x] = (s[p-1] + s[p+1]) / 2
		b1[x] = (s[p-w] + s[p+w]) / 2
		// (base+2, 2): even-even — red site.
		p++
		r1[x+1] = s[p]
		g1[x+1] = (s[p-1] + s[p+1] + s[p-w] + s[p+w]) / 4
		b1[x+1] = (s[p-w-1] + s[p-w+1] + s[p+w-1] + s[p+w+1]) / 4
	}
	r.SetRow(0, r0)
	r.SetRow(1, r1)
	g.SetRow(0, g0)
	g.SetRow(1, g1)
	b.SetRow(0, b0)
	b.SetRow(1, b1)
}
