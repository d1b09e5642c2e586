package kernel

import (
	"fmt"

	"blockpar/internal/frame"
	"blockpar/internal/geom"
	"blockpar/internal/graph"
	"blockpar/internal/token"
)

// Histogram builds the paper's histogram kernel (Figure 7): method
// count fires on each data sample; finishCount fires on the
// end-of-frame token on the same input, emits the bin counts, and
// resets; configureBins fires on the replicated "bins" input. Under
// parallelization each instance accumulates a partial histogram which
// the Merge kernel combines (Figure 1(b)). The data input accepts row
// spans: one count firing bins a whole span of samples.
func Histogram(name string, bins int) *graph.Node {
	if bins < 1 {
		panic("kernel: histogram needs at least one bin")
	}
	n := graph.NewNode(name, graph.KindKernel)
	n.CreateInput("in", geom.Sz(1, 1), geom.St(1, 1), geom.Off(0, 0))
	bp := n.CreateInput("bins", geom.Sz(bins, 1), geom.St(bins, 1), geom.Off(0, 0))
	bp.Replicated = true
	n.CreateOutput("out", geom.Sz(bins, 1), geom.St(bins, 1))

	// Cycle shapes from Figure 7: linear search averages bins/2.
	n.RegisterMethod("count", int64(bins/2+5), int64(2*bins))
	n.RegisterMethodInput("count", "in")

	n.RegisterMethod("finishCount", int64(3*bins+3), int64(2*bins))
	n.RegisterMethodInputToken("finishCount", "in", token.EndOfFrame, "")
	n.RegisterMethodOutput("finishCount", "out")

	n.RegisterMethod("configureBins", int64(2*bins+5), int64(bins))
	n.RegisterMethodInput("configureBins", "bins")

	n.Attrs["ktype"] = "histogram"
	n.Attrs["kparams"] = fmt.Sprintf("%d", bins)
	n.Behavior = &histogramBehavior{bins: bins}
	return n
}

type histogramBehavior struct {
	elemToF64
	bins   int
	edges  []float64
	counts []float64
}

func (b *histogramBehavior) Clone() graph.Behavior { return &histogramBehavior{bins: b.bins} }

// AcceptsBatch implements graph.BatchAware: samples arrive in row spans.
func (b *histogramBehavior) AcceptsBatch(input string) bool { return input == "in" }

func (b *histogramBehavior) Invoke(method string, ctx graph.ExecContext) error {
	switch method {
	case "configureBins":
		in := ctx.Input("bins")
		if len(b.edges) != b.bins {
			b.edges = make([]float64, b.bins)
			b.counts = make([]float64, b.bins)
		}
		for i := range b.edges {
			b.edges[i] = in.At(i, 0)
		}
		clear(b.counts)
		return nil
	case "count":
		if b.edges == nil {
			return fmt.Errorf("kernel: histogram counted before configureBins")
		}
		in := rowOf(ctx.Input("in"))
		n, sx := spanIn(ctx, "in", 1)
		for j := 0; j < n; j++ {
			b.counts[frame.FindBin(in.at(j*sx), b.edges)]++
		}
		return nil
	case "finishCount":
		out := frame.Alloc(b.bins, 1)
		copy(out.Pix, b.counts)
		for i := range b.counts {
			b.counts[i] = 0
		}
		ctx.Emit("out", out)
		return nil
	default:
		return fmt.Errorf("kernel: histogram has no method %q", method)
	}
}

// Merge builds the serial reduction kernel of Figure 1(b): it
// accumulates partial histograms arriving on "in" and emits the final
// histogram once per frame when the end-of-frame token arrives. A data
// dependency edge from the application input limits it to one instance.
func Merge(name string, bins int) *graph.Node {
	if bins < 1 {
		panic("kernel: merge needs at least one bin")
	}
	n := graph.NewNode(name, graph.KindKernel)
	n.CreateInput("in", geom.Sz(bins, 1), geom.St(bins, 1), geom.Off(0, 0))
	n.CreateOutput("out", geom.Sz(bins, 1), geom.St(bins, 1))

	n.RegisterMethod("accumulate", int64(bins+4), int64(bins))
	n.RegisterMethodInput("accumulate", "in")

	n.RegisterMethod("finishMerge", int64(2*bins), int64(bins))
	n.RegisterMethodInputToken("finishMerge", "in", token.EndOfFrame, "")
	n.RegisterMethodOutput("finishMerge", "out")

	n.Attrs["ktype"] = "merge"
	n.Attrs["kparams"] = fmt.Sprintf("%d", bins)
	n.Behavior = &mergeBehavior{bins: bins}
	return n
}

type mergeBehavior struct {
	elemToF64
	bins int
	acc  []float64
}

func (b *mergeBehavior) Clone() graph.Behavior { return &mergeBehavior{bins: b.bins} }

func (b *mergeBehavior) Invoke(method string, ctx graph.ExecContext) error {
	switch method {
	case "accumulate":
		in := ctx.Input("in")
		if b.acc == nil {
			b.acc = make([]float64, b.bins)
		}
		for i := 0; i < b.bins; i++ {
			b.acc[i] += in.At(i, 0)
		}
		return nil
	case "finishMerge":
		out := frame.Alloc(b.bins, 1)
		if b.acc != nil {
			copy(out.Pix, b.acc)
			for i := range b.acc {
				b.acc[i] = 0
			}
		}
		ctx.Emit("out", out)
		return nil
	default:
		return fmt.Errorf("kernel: merge has no method %q", method)
	}
}
