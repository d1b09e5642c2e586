package runtime

import (
	"strings"
	"testing"
	"time"

	"blockpar/internal/frame"
	"blockpar/internal/geom"
	"blockpar/internal/graph"
	"blockpar/internal/kernel"
	"blockpar/internal/token"
)

// fixed returns a generator that always produces the given frame,
// regardless of sequence number (used for coefficient and bin inputs).
func fixed(w frame.Window) frame.Generator {
	return func(seq int64, fw, fh int) frame.Window {
		if fw != w.W || fh != w.H {
			panic("fixed generator size mismatch")
		}
		return w.Clone()
	}
}

// boxCoeff returns a k×k all-ones coefficient window.
func boxCoeff(k int) frame.Window {
	w := frame.NewWindow(k, k)
	for i := range w.Pix {
		w.Pix[i] = 1
	}
	return w
}

// scalars converts a window list of 1x1 windows into their values.
func scalars(t *testing.T, ws []frame.Window) []float64 {
	t.Helper()
	out := make([]float64, len(ws))
	for i, w := range ws {
		if w.W != 1 || w.H != 1 {
			t.Fatalf("window %d is %dx%d, want 1x1", i, w.W, w.H)
		}
		out[i] = w.Value()
	}
	return out
}

// wantFrameScan flattens a golden frame into scan-order values.
func wantFrameScan(f frame.Window) []float64 {
	out := make([]float64, len(f.Pix))
	copy(out, f.Pix)
	return out
}

func compareScan(t *testing.T, got, want []float64, label string) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: got %d values, want %d", label, len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("%s: value %d = %v, want %v", label, i, got[i], want[i])
		}
	}
}

func TestGainPipeline(t *testing.T) {
	g := graph.New("gain")
	in := g.AddInput("Input", geom.Sz(8, 6), geom.Sz(1, 1), geom.FInt(50))
	k := g.Add(kernel.Gain("Gain", 2))
	out := g.AddOutput("Output", geom.Sz(1, 1))
	g.Connect(in, "out", k, "in")
	g.Connect(k, "out", out, "in")

	res, err := Run(g, Options{Frames: 2})
	if err != nil {
		t.Fatal(err)
	}
	frames := res.FrameSlices("Output")
	if len(frames) != 2 {
		t.Fatalf("frames = %d, want 2", len(frames))
	}
	for f, ws := range frames {
		want := wantFrameScan(frame.Gain(frame.Gradient(int64(f), 8, 6), 2))
		compareScan(t, scalars(t, ws), want, "gain frame")
	}
	// Token structure: 6 EOLs and 1 EOF per frame.
	var eols, eofs int
	for _, it := range res.Outputs["Output"] {
		if it.IsToken {
			switch it.Tok.Kind {
			case token.EndOfLine:
				eols++
			case token.EndOfFrame:
				eofs++
			}
		}
	}
	if eols != 12 || eofs != 2 {
		t.Errorf("tokens: %d EOL, %d EOF; want 12, 2", eols, eofs)
	}
}

func TestBufferedConvolutionMatchesGolden(t *testing.T) {
	const W, H, K = 10, 8, 3
	g := graph.New("conv")
	in := g.AddInput("Input", geom.Sz(W, H), geom.Sz(1, 1), geom.FInt(50))
	buf := g.Add(kernel.Buffer("Buf", kernel.BufferPlan{
		DataW: W, DataH: H, WinW: K, WinH: K, StepX: 1, StepY: 1,
	}))
	conv := g.Add(kernel.Convolution("Conv", K))
	coeff := g.AddInput("Coeff", geom.Sz(K, K), geom.Sz(K, K), geom.FInt(50))
	out := g.AddOutput("Output", geom.Sz(1, 1))
	g.Connect(in, "out", buf, "in")
	g.Connect(buf, "out", conv, "in")
	g.Connect(coeff, "out", conv, "coeff")
	g.Connect(conv, "out", out, "in")

	co := frame.LCG(7, K, K)
	res, err := Run(g, Options{
		Frames:  3,
		Sources: map[string]frame.Generator{"Coeff": fixed(co)},
	})
	if err != nil {
		t.Fatal(err)
	}
	frames := res.FrameSlices("Output")
	if len(frames) != 3 {
		t.Fatalf("frames = %d, want 3", len(frames))
	}
	for f, ws := range frames {
		want := wantFrameScan(frame.Convolve(frame.Gradient(int64(f), W, H), co))
		compareScan(t, scalars(t, ws), want, "conv frame")
	}
}

func TestBufferedMedianMatchesGolden(t *testing.T) {
	const W, H, K = 9, 7, 3
	g := graph.New("median")
	in := g.AddInput("Input", geom.Sz(W, H), geom.Sz(1, 1), geom.FInt(50))
	buf := g.Add(kernel.Buffer("Buf", kernel.BufferPlan{
		DataW: W, DataH: H, WinW: K, WinH: K, StepX: 1, StepY: 1,
	}))
	med := g.Add(kernel.Median("Median", K))
	out := g.AddOutput("Output", geom.Sz(1, 1))
	g.Connect(in, "out", buf, "in")
	g.Connect(buf, "out", med, "in")
	g.Connect(med, "out", out, "in")

	res, err := Run(g, Options{
		Frames:  2,
		Sources: map[string]frame.Generator{"Input": frame.Checker},
	})
	if err != nil {
		t.Fatal(err)
	}
	for f, ws := range res.FrameSlices("Output") {
		want := wantFrameScan(frame.Median(frame.Checker(int64(f), W, H), K))
		compareScan(t, scalars(t, ws), want, "median frame")
	}
}

func TestHistogramMergeMatchesGolden(t *testing.T) {
	const W, H, bins = 12, 9, 8
	edges := frame.UniformBins(bins, 0, 256)
	edgeWin := frame.NewWindow(bins, 1)
	copy(edgeWin.Pix, edges)

	g := graph.New("hist")
	in := g.AddInput("Input", geom.Sz(W, H), geom.Sz(1, 1), geom.FInt(50))
	binsIn := g.AddInput("Hist Bins", geom.Sz(bins, 1), geom.Sz(bins, 1), geom.FInt(50))
	hist := g.Add(kernel.Histogram("Histogram", bins))
	merge := g.Add(kernel.Merge("Merge", bins))
	out := g.AddOutput("Output", geom.Sz(bins, 1))
	g.Connect(in, "out", hist, "in")
	g.Connect(binsIn, "out", hist, "bins")
	g.Connect(hist, "out", merge, "in")
	g.Connect(merge, "out", out, "in")
	g.AddDep(in, merge)

	res, err := Run(g, Options{
		Frames: 3,
		Sources: map[string]frame.Generator{
			"Input":     frame.LCG,
			"Hist Bins": fixed(edgeWin),
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	frames := res.FrameSlices("Output")
	if len(frames) != 3 {
		t.Fatalf("frames = %d, want 3", len(frames))
	}
	for f, ws := range frames {
		if len(ws) != 1 {
			t.Fatalf("frame %d: %d outputs, want 1 histogram", f, len(ws))
		}
		want := frame.Histogram(frame.LCG(int64(f), W, H), edges)
		for i := range want {
			if ws[0].At(i, 0) != want[i] {
				t.Fatalf("frame %d bin %d = %v, want %v (reset across frames broken?)",
					f, i, ws[0].At(i, 0), want[i])
			}
		}
	}
}

// TestImagePipelineManual builds Figure 1(b)/Figure 3 by hand: median
// and convolution branches buffered, the median output inset by one
// pixel, per-pixel subtraction, and a histogram+merge over the result.
func TestImagePipelineManual(t *testing.T) {
	const W, H, bins = 14, 12, 8
	co := boxCoeff(5)
	edges := frame.UniformBins(bins, -1000, 1000)
	edgeWin := frame.NewWindow(bins, 1)
	copy(edgeWin.Pix, edges)

	g := graph.New("fig1b")
	in := g.AddInput("Input", geom.Sz(W, H), geom.Sz(1, 1), geom.FInt(50))
	coeff := g.AddInput("5x5 Coeff", geom.Sz(5, 5), geom.Sz(5, 5), geom.FInt(50))
	binsIn := g.AddInput("Hist Bins", geom.Sz(bins, 1), geom.Sz(bins, 1), geom.FInt(50))

	bufM := g.Add(kernel.Buffer("BufM", kernel.BufferPlan{DataW: W, DataH: H, WinW: 3, WinH: 3, StepX: 1, StepY: 1}))
	med := g.Add(kernel.Median("3x3 Median", 3))
	inset := g.Add(kernel.Inset("Inset", kernel.InsetPlan{InW: W - 2, InH: H - 2, L: 1, R: 1, T: 1, B: 1}, geom.Sz(1, 1)))

	bufC := g.Add(kernel.Buffer("BufC", kernel.BufferPlan{DataW: W, DataH: H, WinW: 5, WinH: 5, StepX: 1, StepY: 1}))
	conv := g.Add(kernel.Convolution("5x5 Conv", 5))

	sub := g.Add(kernel.Subtract("Subtract"))
	hist := g.Add(kernel.Histogram("Histogram", bins))
	merge := g.Add(kernel.Merge("Merge", bins))
	out := g.AddOutput("result", geom.Sz(bins, 1))

	g.Connect(in, "out", bufM, "in")
	g.Connect(bufM, "out", med, "in")
	g.Connect(med, "out", inset, "in")
	g.Connect(in, "out", bufC, "in")
	g.Connect(bufC, "out", conv, "in")
	g.Connect(coeff, "out", conv, "coeff")
	g.Connect(inset, "out", sub, "in0")
	g.Connect(conv, "out", sub, "in1")
	g.Connect(sub, "out", hist, "in")
	g.Connect(binsIn, "out", hist, "bins")
	g.Connect(hist, "out", merge, "in")
	g.Connect(merge, "out", out, "in")
	g.AddDep(in, merge)

	res, err := Run(g, Options{
		Frames: 2,
		Sources: map[string]frame.Generator{
			"Input":     frame.LCG,
			"5x5 Coeff": fixed(co),
			"Hist Bins": fixed(edgeWin),
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	frames := res.FrameSlices("result")
	if len(frames) != 2 {
		t.Fatalf("frames = %d, want 2", len(frames))
	}
	for f, ws := range frames {
		img := frame.LCG(int64(f), W, H)
		medOut := frame.Trim(frame.Median(img, 3), 1, 1, 1, 1)
		convOut := frame.Convolve(img, co)
		diff := frame.Subtract(medOut, convOut)
		want := frame.Histogram(diff, edges)
		if len(ws) != 1 {
			t.Fatalf("frame %d: %d outputs", f, len(ws))
		}
		for i := range want {
			if ws[0].At(i, 0) != want[i] {
				t.Fatalf("frame %d bin %d = %v, want %v", f, i, ws[0].At(i, 0), want[i])
			}
		}
	}
}

func TestSplitJoinRoundRobinPreservesStream(t *testing.T) {
	const W, H, N = 10, 6, 3
	g := graph.New("rr")
	in := g.AddInput("Input", geom.Sz(W, H), geom.Sz(1, 1), geom.FInt(50))
	split := g.Add(kernel.SplitRR("Split", N, geom.Sz(1, 1)))
	join := g.Add(kernel.JoinRR("Join", N, geom.Sz(1, 1)))
	out := g.AddOutput("Output", geom.Sz(1, 1))
	g.Connect(in, "out", split, "in")
	for i := 0; i < N; i++ {
		k := g.Add(kernel.Gain(nameIdx("Gain", i), 3))
		g.Connect(split, nameIdx("out", i), k, "in")
		g.Connect(k, "out", join, nameIdx("in", i))
	}
	g.Connect(join, "out", out, "in")

	res, err := Run(g, Options{Frames: 2})
	if err != nil {
		t.Fatal(err)
	}
	for f, ws := range res.FrameSlices("Output") {
		want := wantFrameScan(frame.Gain(frame.Gradient(int64(f), W, H), 3))
		compareScan(t, scalars(t, ws), want, "rr frame")
	}
}

func nameIdx(base string, i int) string {
	return base + string(rune('0'+i))
}

func TestColumnSplitBuffersMatchPlainBufferedConv(t *testing.T) {
	const W, H, K, N = 16, 10, 3, 2
	co := frame.LCG(3, K, K)
	stripes := kernel.ColumnStripes(W, K, 1, N)

	g := graph.New("colsplit")
	in := g.AddInput("Input", geom.Sz(W, H), geom.Sz(1, 1), geom.FInt(50))
	coeff := g.AddInput("Coeff", geom.Sz(K, K), geom.Sz(K, K), geom.FInt(50))
	split := g.Add(kernel.SplitColumns("Split", stripes, W))
	rep := g.Add(kernel.Replicate("Replicate", N, geom.Sz(K, K)))
	counts := make([]int, N)
	for i := range counts {
		counts[i] = stripes[i].OutCount()
	}
	join := g.Add(kernel.JoinColumns("Join", counts, geom.Sz(1, 1)))
	out := g.AddOutput("Output", geom.Sz(1, 1))

	g.Connect(in, "out", split, "in")
	g.Connect(coeff, "out", rep, "in")
	for i := 0; i < N; i++ {
		buf := g.Add(kernel.Buffer(nameIdx("Buf", i), kernel.BufferPlan{
			DataW: stripes[i].InWidth(), DataH: H, WinW: K, WinH: K, StepX: 1, StepY: 1,
		}))
		conv := g.Add(kernel.Convolution(nameIdx("Conv", i), K))
		g.Connect(split, nameIdx("out", i), buf, "in")
		g.Connect(buf, "out", conv, "in")
		g.Connect(rep, nameIdx("out", i), conv, "coeff")
		g.Connect(conv, "out", join, nameIdx("in", i))
	}
	g.Connect(join, "out", out, "in")

	res, err := Run(g, Options{
		Frames:  2,
		Sources: map[string]frame.Generator{"Coeff": fixed(co)},
	})
	if err != nil {
		t.Fatal(err)
	}
	for f, ws := range res.FrameSlices("Output") {
		want := wantFrameScan(frame.Convolve(frame.Gradient(int64(f), W, H), co))
		compareScan(t, scalars(t, ws), want, "column-split conv frame")
	}
}

func TestPadThenConvolveMatchesGolden(t *testing.T) {
	const W, H, K = 8, 6, 3
	co := boxCoeff(K)
	g := graph.New("pad")
	in := g.AddInput("Input", geom.Sz(W, H), geom.Sz(1, 1), geom.FInt(50))
	pad := g.Add(kernel.Pad("Pad", kernel.PadPlan{InW: W, InH: H, L: 1, R: 1, T: 1, B: 1}))
	buf := g.Add(kernel.Buffer("Buf", kernel.BufferPlan{
		DataW: W + 2, DataH: H + 2, WinW: K, WinH: K, StepX: 1, StepY: 1,
	}))
	conv := g.Add(kernel.Convolution("Conv", K))
	coeff := g.AddInput("Coeff", geom.Sz(K, K), geom.Sz(K, K), geom.FInt(50))
	out := g.AddOutput("Output", geom.Sz(1, 1))
	g.Connect(in, "out", pad, "in")
	g.Connect(pad, "out", buf, "in")
	g.Connect(buf, "out", conv, "in")
	g.Connect(coeff, "out", conv, "coeff")
	g.Connect(conv, "out", out, "in")

	res, err := Run(g, Options{Frames: 1, Sources: map[string]frame.Generator{"Coeff": fixed(co)}})
	if err != nil {
		t.Fatal(err)
	}
	ws := res.DataWindows("Output")
	want := wantFrameScan(frame.Convolve(frame.Pad(frame.Gradient(0, W, H), 1, 1, 1, 1), co))
	compareScan(t, scalars(t, ws), want, "padded conv")
}

func TestBayerPipelineMatchesGolden(t *testing.T) {
	const W, H = 12, 10
	g := graph.New("bayer")
	in := g.AddInput("Input", geom.Sz(W, H), geom.Sz(1, 1), geom.FInt(50))
	buf := g.Add(kernel.Buffer("Buf", kernel.BufferPlan{
		DataW: W, DataH: H, WinW: 4, WinH: 4, StepX: 2, StepY: 2,
	}))
	bay := g.Add(kernel.BayerDemosaic("Bayer"))
	outR := g.AddOutput("R", geom.Sz(2, 2))
	outG := g.AddOutput("G", geom.Sz(2, 2))
	outB := g.AddOutput("B", geom.Sz(2, 2))
	g.Connect(in, "out", buf, "in")
	g.Connect(buf, "out", bay, "in")
	g.Connect(bay, "r", outR, "in")
	g.Connect(bay, "g", outG, "in")
	g.Connect(bay, "b", outB, "in")

	res, err := Run(g, Options{Frames: 1, Sources: map[string]frame.Generator{"Input": frame.Bayer}})
	if err != nil {
		t.Fatal(err)
	}
	img := frame.Bayer(0, W, H)
	gr, gg, gb := frame.BayerDemosaic(img)
	for _, c := range []struct {
		name   string
		golden frame.Window
	}{{"R", gr}, {"G", gg}, {"B", gb}} {
		quads := res.DataWindows(c.name)
		nX := (W-4)/2 + 1
		if len(quads) == 0 {
			t.Fatalf("%s: no output", c.name)
		}
		for qi, q := range quads {
			qx, qy := qi%nX, qi/nX
			for dy := 0; dy < 2; dy++ {
				for dx := 0; dx < 2; dx++ {
					want := c.golden.At(qx*2+dx, qy*2+dy)
					if got := q.At(dx, dy); got != want {
						t.Fatalf("%s quad %d (%d,%d) = %v, want %v", c.name, qi, dx, dy, got, want)
					}
				}
			}
		}
	}
}

// countingSources fills every frame of Input with 1, 2, 3, ...
var countingSources = map[string]frame.Generator{
	"Input": func(seq int64, w, h int) frame.Window {
		f := frame.NewWindow(w, h)
		for i := range f.Pix {
			f.Pix[i] = float64(i + 1)
		}
		return f
	},
}

func TestFeedbackAccumulator(t *testing.T) {
	res, err := Run(feedbackGraph(6, 1), Options{Frames: 2, Sources: countingSources})
	if err != nil {
		t.Fatal(err)
	}
	got := scalars(t, res.DataWindows("Output"))
	// Prefix sums; the loop state carries across the frame boundary.
	want := []float64{1, 3, 6, 10, 15, 21, 22, 24, 27, 31, 36, 42}
	compareScan(t, got, want, "feedback accumulator")
}

func TestDownsampleKernel(t *testing.T) {
	const W, H, K = 8, 6, 2
	g := graph.New("down")
	in := g.AddInput("Input", geom.Sz(W, H), geom.Sz(1, 1), geom.FInt(10))
	buf := g.Add(kernel.Buffer("Buf", kernel.BufferPlan{
		DataW: W, DataH: H, WinW: K, WinH: K, StepX: K, StepY: K,
	}))
	ds := g.Add(kernel.Downsample("Down", K))
	out := g.AddOutput("Output", geom.Sz(1, 1))
	g.Connect(in, "out", buf, "in")
	g.Connect(buf, "out", ds, "in")
	g.Connect(ds, "out", out, "in")

	res, err := Run(g, Options{Frames: 1})
	if err != nil {
		t.Fatal(err)
	}
	want := wantFrameScan(frame.Downsample(frame.Gradient(0, W, H), K))
	compareScan(t, scalars(t, res.DataWindows("Output")), want, "downsample")
}

func TestRunRejectsInvalidGraph(t *testing.T) {
	g := graph.New("bad")
	g.AddOutput("Output", geom.Sz(1, 1))
	if _, err := Run(g, Options{}); err == nil {
		t.Fatal("invalid graph accepted")
	}
}

// badBufferGraph holds a buffer whose plan width is wrong, so it errors
// out mid-stream.
func badBufferGraph() *graph.Graph {
	g := graph.New("bad-buffer")
	in := g.AddInput("Input", geom.Sz(8, 4), geom.Sz(1, 1), geom.FInt(10))
	buf := g.Add(kernel.Buffer("Buf", kernel.BufferPlan{
		DataW: 6 /* wrong: frame is 8 wide */, DataH: 4, WinW: 3, WinH: 3, StepX: 1, StepY: 1,
	}))
	out := g.AddOutput("Output", geom.Sz(3, 3))
	g.Connect(in, "out", buf, "in")
	g.Connect(buf, "out", out, "in")
	return g
}

func TestRunSurfacesBehaviorErrors(t *testing.T) {
	// The run must return the buffer's error rather than hang.
	if _, err := Run(badBufferGraph(), Options{Frames: 1}); err == nil {
		t.Fatal("buffer overflow not reported")
	}
}

func TestMultiFrameDeterminism(t *testing.T) {
	build := func() (*graph.Graph, Options) {
		g := graph.New("det")
		in := g.AddInput("Input", geom.Sz(9, 7), geom.Sz(1, 1), geom.FInt(50))
		buf := g.Add(kernel.Buffer("Buf", kernel.BufferPlan{DataW: 9, DataH: 7, WinW: 3, WinH: 3, StepX: 1, StepY: 1}))
		med := g.Add(kernel.Median("Med", 3))
		out := g.AddOutput("Output", geom.Sz(1, 1))
		g.Connect(in, "out", buf, "in")
		g.Connect(buf, "out", med, "in")
		g.Connect(med, "out", out, "in")
		return g, Options{Frames: 4, Sources: map[string]frame.Generator{"Input": frame.LCG}}
	}
	g1, o1 := build()
	g2, o2 := build()
	r1, err1 := Run(g1, o1)
	r2, err2 := Run(g2, o2)
	if err1 != nil || err2 != nil {
		t.Fatal(err1, err2)
	}
	a, b := r1.Outputs["Output"], r2.Outputs["Output"]
	if len(a) != len(b) {
		t.Fatalf("lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i].IsToken != b[i].IsToken {
			t.Fatalf("item %d kind differs", i)
		}
		if a[i].IsToken {
			if a[i].Tok != b[i].Tok {
				t.Fatalf("item %d token differs: %v vs %v", i, a[i].Tok, b[i].Tok)
			}
		} else if !a[i].Win.Equal(b[i].Win) {
			t.Fatalf("item %d data differs", i)
		}
	}
}

func TestSwallowingKernelStillCompletesFrames(t *testing.T) {
	// A kernel that consumes data without emitting is a legitimate
	// filter: unhandled EOL/EOF tokens still forward, so the frame
	// structure survives and the run completes with zero data windows.
	g := graph.New("hang")
	in := g.AddInput("Input", geom.Sz(4, 1), geom.Sz(1, 1), geom.FInt(10))
	k := graph.NewNode("BlackHole", graph.KindKernel)
	k.CreateInput("in", geom.Sz(1, 1), geom.St(1, 1), geom.Off(0, 0))
	k.CreateOutput("out", geom.Sz(1, 1), geom.St(1, 1))
	k.RegisterMethod("swallow", 1, 0)
	k.RegisterMethodInput("swallow", "in")
	k.RegisterMethodOutput("swallow", "out")
	k.Behavior = swallowBehavior{}
	g.Add(k)
	out := g.AddOutput("Output", geom.Sz(1, 1))
	g.Connect(in, "out", k, "in")
	g.Connect(k, "out", out, "in")

	res, err := Run(g, Options{Frames: 1, Timeout: time.Second})
	if err != nil {
		t.Fatal(err)
	}
	if got := len(res.DataWindows("Output")); got != 0 {
		t.Fatalf("swallower leaked %d data windows", got)
	}
	// The frame markers arrived.
	if got := len(res.FrameSlices("Output")); got != 1 {
		t.Fatalf("frames = %d, want 1", got)
	}
}

type swallowBehavior struct{}

func (swallowBehavior) Clone() graph.Behavior { return swallowBehavior{} }

func (swallowBehavior) Invoke(method string, ctx graph.ExecContext) error {
	return nil // consumes input, never emits
}

// TestWatchdogAbortsStuckRunner covers the true-hang path: a kernel
// that blocks inside a firing forever can only be cut loose by the
// watchdog.
func TestWatchdogAbortsStuckRunner(t *testing.T) {
	g := graph.New("stuck")
	in := g.AddInput("Input", geom.Sz(4, 1), geom.Sz(1, 1), geom.FInt(10))
	k := graph.NewNode("Stuck", graph.KindKernel)
	k.CreateInput("in", geom.Sz(1, 1), geom.St(1, 1), geom.Off(0, 0))
	k.CreateOutput("out", geom.Sz(1, 1), geom.St(1, 1))
	k.RegisterMethod("m", 1, 0)
	k.RegisterMethodInput("m", "in")
	k.RegisterMethodOutput("m", "out")
	k.Behavior = stuck{}
	g.Add(k)
	out := g.AddOutput("Output", geom.Sz(1, 1))
	g.Connect(in, "out", k, "in")
	g.Connect(k, "out", out, "in")

	start := time.Now()
	_, err := Run(g, Options{Frames: 1, Timeout: 150 * time.Millisecond})
	if err == nil || !strings.Contains(err.Error(), "watchdog") {
		t.Fatalf("stuck runner not aborted: %v", err)
	}
	if time.Since(start) > 5*time.Second {
		t.Fatal("watchdog took too long")
	}
}

type stuck struct{}

func (stuck) Clone() graph.Behavior { return stuck{} }

func (stuck) Invoke(string, graph.ExecContext) error {
	select {} // deliberately stuck inside the firing
}
