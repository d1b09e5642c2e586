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
	plan      InsetPlan
	cur, pend gridPos
}

// gridPos is a trim or pad kernel's position in its item grid and its
// output row count.
type gridPos struct {
	x, y int
	row  int64
	top  bool
}

func (b *insetBehavior) Clone() graph.Behavior {
	return &insetBehavior{plan: b.plan}
}

// AcceptsBatch implements graph.BatchAware: an item-row span is trimmed
// by re-slicing — the kept run leaves as a sub-span view sharing the
// incoming storage instead of per-item traffic.
func (b *insetBehavior) AcceptsBatch(input string) bool { return input == "in" }

// Next implements graph.Step. A data head covers grid columns
// [x, x+n) of row y: each maximal run of kept items leaves as one view
// as the scan finds it, the regenerated end-of-line after the run that
// ends a kept row, and trimmed items are dropped. Input end-of-line is
// consumed; end-of-frame and custom tokens pass.
func (b *insetBehavior) Next(h graph.StepHeads, p *graph.StepPlan) (bool, error) {
	tok := h.Head(0)
	if tok == nil {
		return false, nil
	}
	b.pend = b.cur
	p.Take[0] = true
	switch tok.Kind {
	case token.None:
		n, j0 := h.Span(0), -1
		for j := 0; j < n; j++ {
			keep, rowEnd := b.plan.Keep(b.cur.x+j, b.cur.y)
			if keep && j0 < 0 {
				j0 = j
			}
			if j0 >= 0 && (!keep || rowEnd) {
				p.View(0, 0, j0, j+btoi(keep))
				j0 = -1
			}
			if rowEnd {
				p.Token(0, token.EOL(b.pend.row))
				b.pend.row++
			}
		}
		if j0 >= 0 {
			p.View(0, 0, j0, n)
		}
		b.pend.x += n
	case token.EndOfLine:
		b.pend.x, b.pend.y = 0, b.cur.y+1
	case token.EndOfFrame:
		p.View(0, 0, 0, 1)
		b.pend = gridPos{}
	default:
		p.View(0, 0, 0, 1)
	}
	return true, nil
}

func (b *insetBehavior) Apply() { b.cur = b.pend }

func btoi(b bool) int {
	if b {
		return 1
	}
	return 0
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
	plan      PadPlan
	cur, pend gridPos
	// kind is the stream's element kind, latched from the data items so
	// inserted zero samples match (zero is exact in every kind).
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

// Next implements graph.Step: the first data item of a frame is
// preceded by plan.T zero rows, every row's first by plan.L zeros; an
// input end-of-line gains plan.R zeros and the regenerated end-of-line,
// and end-of-frame follows plan.B zero rows.
func (b *padBehavior) Next(h graph.StepHeads, p *graph.StepPlan) (bool, error) {
	tok := h.Head(0)
	if tok == nil {
		return false, nil
	}
	pl := b.plan
	b.pend = b.cur
	p.Take[0] = true
	switch tok.Kind {
	case token.None:
		if !b.cur.top {
			for i := 0; i < pl.T; i++ {
				b.zeros(p, pl.OutW(), true)
			}
			b.pend.top = true
		}
		if b.cur.x == 0 {
			b.zeros(p, pl.L, false)
		}
		p.View(0, 0, 0, 1)
		b.pend.x++
	case token.EndOfLine:
		if b.cur.x != pl.InW {
			return false, fmt.Errorf("kernel: pad %q EOL after %d of %d samples",
				h.Node().Name(), b.cur.x, pl.InW)
		}
		b.zeros(p, pl.R, true)
		b.pend.x, b.pend.y = 0, b.cur.y+1
	case token.EndOfFrame:
		for i := 0; i < pl.B; i++ {
			b.zeros(p, pl.OutW(), true)
		}
		p.View(0, 0, 0, 1)
		b.pend = gridPos{}
	default:
		p.View(0, 0, 0, 1)
	}
	return true, nil
}

// zeros plans n zero samples and, with eol, the end of their row.
func (b *padBehavior) zeros(p *graph.StepPlan, n int, eol bool) {
	if n > 0 {
		p.Fresh(0, 0, n)
	}
	if eol {
		p.Token(0, token.EOL(b.pend.row))
		b.pend.row++
	}
}

func (b *padBehavior) Apply() { b.cur = b.pend }

// Take implements graph.StepValues: it latches the element kind.
func (b *padBehavior) Take(_ *graph.Node, _ int32, it *graph.Item) error {
	b.kind = it.Win.Kind
	return nil
}

// Fresh implements graph.StepValues: a run of zero samples.
func (b *padBehavior) Fresh(e *graph.StepEmit) graph.Item {
	n := int(e.J1 - e.J0)
	return graph.BatchItem(frame.AllocKind(b.kind, n, 1), graph.Batch{N: int32(n), Sx: 1, Bw: 1})
}
