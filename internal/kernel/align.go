package kernel

import (
	"fmt"

	"blockpar/internal/frame"
	"blockpar/internal/geom"
	"blockpar/internal/graph"
	"blockpar/internal/token"
)

// Inset builds the trim kernel inserted by the alignment pass (paper
// §III-C, the "inverted house" of Figure 3): it discards plan.L/R
// columns and plan.T/B rows of its item grid so two differently-haloed
// streams line up. Row structure is regenerated: end-of-line is emitted
// after the last kept item of each kept row, end-of-frame forwarded.
func Inset(name string, plan InsetPlan, item geom.Size) *graph.Node {
	if plan.OutW() < 1 || plan.OutH() < 1 {
		panic(fmt.Sprintf("kernel: inset %+v trims everything", plan))
	}
	n := graph.NewNode(name, graph.KindInset)
	n.CreateInput("in", item, geom.St(item.W, item.H), geom.Off(0, 0))
	n.CreateOutput("out", item, geom.St(item.W, item.H))
	n.RegisterMethod("inset", fsmPerItem, 4)
	n.RegisterMethodInput("inset", "in")
	n.RegisterMethodOutput("inset", "out")
	n.Attrs["label"] = plan.Label()
	n.Behavior = &insetBehavior{plan: plan}
	return n
}

type insetBehavior struct {
	plan InsetPlan
	x, y int
	row  int64
}

func (b *insetBehavior) Clone() graph.Behavior {
	return &insetBehavior{plan: b.plan}
}

// AcceptsBatch implements graph.BatchAware: an item-row span is trimmed
// by re-slicing — the kept run leaves as a sub-span view sharing the
// incoming storage instead of per-item traffic.
func (b *insetBehavior) AcceptsBatch(input string) bool { return input == "in" }

func (b *insetBehavior) Run(ctx graph.RunContext) error {
	for {
		it, ok := ctx.Recv("in")
		if !ok {
			return nil
		}
		if it.IsToken {
			switch it.Tok.Kind {
			case token.EndOfLine:
				b.x = 0
				b.y++
			case token.EndOfFrame:
				b.x, b.y, b.row = 0, 0, 0
				ctx.Send("out", it)
			default:
				ctx.Send("out", it)
			}
			continue
		}
		n := it.BatchN()
		if n == 1 {
			keep, rowEnd := b.plan.Keep(b.x, b.y)
			if keep {
				ctx.Send("out", it)
				if rowEnd {
					ctx.Send("out", graph.TokenItem(token.EOL(b.row)))
					b.row++
				}
			} else {
				// Trimmed: this kernel was the item's only consumer.
				it.Win.Release()
			}
			b.x++
			continue
		}
		b.insetSpan(ctx, it, n)
	}
}

// insetSpan applies the trim to a span of n grid items at columns
// [b.x, b.x+n) of item row b.y: each maximal run of kept items is
// forwarded as one sub-span view, trimmed items are dropped with the
// storage reference, and the regenerated end-of-line follows the item
// that ends a kept row. Emission order matches the scalar path exactly.
func (b *insetBehavior) insetSpan(ctx graph.RunContext, it graph.Item, n int) {
	type run struct {
		j0, j1 int // kept item range [j0, j1)
		rowEnd bool
	}
	var runs []run
	for j := 0; j < n; j++ {
		keep, rowEnd := b.plan.Keep(b.x+j, b.y)
		if !keep {
			continue
		}
		if len(runs) > 0 && runs[len(runs)-1].j1 == j && !runs[len(runs)-1].rowEnd {
			runs[len(runs)-1].j1 = j + 1
			runs[len(runs)-1].rowEnd = rowEnd
		} else {
			runs = append(runs, run{j0: j, j1: j + 1, rowEnd: rowEnd})
		}
	}
	b.x += n
	if len(runs) == 0 {
		it.Win.Release()
		return
	}
	it.Win.Retain(len(runs) - 1)
	sx, bw := int(it.B.Sx), int(it.B.Bw)
	for _, r := range runs {
		m := r.j1 - r.j0
		sub := it.Win.View(r.j0*sx, 0, (m-1)*sx+bw, it.Win.H)
		ctx.Send("out", graph.BatchItem(sub, graph.Batch{
			N: int32(m), Sx: int32(sx), Bw: int32(bw),
		}))
		if r.rowEnd {
			ctx.Send("out", graph.TokenItem(token.EOL(b.row)))
			b.row++
		}
	}
}

// InsetPlanOf exposes the plan of an Inset node.
func InsetPlanOf(n *graph.Node) (InsetPlan, bool) {
	b, ok := n.Behavior.(*insetBehavior)
	if !ok {
		return InsetPlan{}, false
	}
	return b.plan, true
}

// Pad builds the zero-padding kernel, the alignment pass's alternative
// to trimming (§III-C: "the compiler can either pad evenly around the
// input to the convolution filter ... or trim"). It works on 1×1 sample
// streams: plan.T full zero rows first, then each input row wrapped in
// plan.L and plan.R zeros, then plan.B zero rows, with regenerated
// end-of-line structure.
func Pad(name string, plan PadPlan) *graph.Node {
	n := graph.NewNode(name, graph.KindPad)
	n.CreateInput("in", geom.Sz(1, 1), geom.St(1, 1), geom.Off(0, 0))
	n.CreateOutput("out", geom.Sz(1, 1), geom.St(1, 1))
	n.RegisterMethod("pad", fsmPerItem, 4)
	n.RegisterMethodInput("pad", "in")
	n.RegisterMethodOutput("pad", "out")
	n.Attrs["label"] = plan.Label()
	n.Behavior = &padBehavior{plan: plan}
	return n
}

type padBehavior struct {
	plan    PadPlan
	x, y    int
	row     int64
	topDone bool
	// kind is the stream's element kind, latched from the first data
	// item so inserted zero samples match (zero is exact in every kind).
	kind frame.Kind
}

func (b *padBehavior) Clone() graph.Behavior { return &padBehavior{plan: b.plan} }

// PadPlanOf exposes the plan of a Pad node.
func PadPlanOf(n *graph.Node) (PadPlan, bool) {
	b, ok := n.Behavior.(*padBehavior)
	if !ok {
		return PadPlan{}, false
	}
	return b.plan, true
}

func (b *padBehavior) zero() frame.Window {
	return frame.AllocKind(b.kind, 1, 1)
}

func (b *padBehavior) emitZeroRow(ctx graph.RunContext) {
	for i := 0; i < b.plan.OutW(); i++ {
		ctx.Send("out", graph.DataItem(b.zero()))
	}
	ctx.Send("out", graph.TokenItem(token.EOL(b.row)))
	b.row++
}

func (b *padBehavior) Run(ctx graph.RunContext) error {
	p := b.plan
	for {
		it, ok := ctx.Recv("in")
		if !ok {
			return nil
		}
		if it.IsToken {
			switch it.Tok.Kind {
			case token.EndOfLine:
				if b.x != p.InW {
					return fmt.Errorf("kernel: pad %q EOL after %d of %d samples",
						ctx.Node().Name(), b.x, p.InW)
				}
				for i := 0; i < p.R; i++ {
					ctx.Send("out", graph.DataItem(b.zero()))
				}
				ctx.Send("out", graph.TokenItem(token.EOL(b.row)))
				b.row++
				b.x = 0
				b.y++
			case token.EndOfFrame:
				for i := 0; i < p.B; i++ {
					b.emitZeroRow(ctx)
				}
				ctx.Send("out", it)
				b.x, b.y, b.row, b.topDone = 0, 0, 0, false
			default:
				ctx.Send("out", it)
			}
			continue
		}
		if !b.topDone {
			b.kind = it.Win.Kind
			for i := 0; i < p.T; i++ {
				b.emitZeroRow(ctx)
			}
			b.topDone = true
		}
		if b.x == 0 {
			for i := 0; i < p.L; i++ {
				ctx.Send("out", graph.DataItem(b.zero()))
			}
		}
		ctx.Send("out", it)
		b.x++
	}
}
