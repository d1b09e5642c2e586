package kernel

import (
	"fmt"

	"blockpar/internal/conn"
	"blockpar/internal/geom"
	"blockpar/internal/graph"
	"blockpar/internal/token"
)

// SplitRR builds the round-robin split kernel the parallelizer inserts
// in front of data-parallel kernel instances (paper §IV-A): data items
// are distributed out0, out1, ... in round-robin order; control tokens
// are broadcast to every branch so each instance keeps a consistent
// view of line/frame structure.
func SplitRR(name string, n int, item geom.Size) *graph.Node {
	if n < 1 {
		panic("kernel: split needs at least one branch")
	}
	node := graph.NewNode(name, graph.KindSplit)
	node.CreateInput("in", item, geom.St(item.W, item.H), geom.Off(0, 0))
	node.RegisterMethod("split", fsmPerItem, 2)
	node.RegisterMethodInput("split", "in")
	for i := 0; i < n; i++ {
		out := fmt.Sprintf("out%d", i)
		node.CreateOutput(out, item, geom.St(item.W, item.H))
		node.RegisterMethodOutput("split", out)
	}
	node.Behavior = &dealBehavior{sched: conn.Schedule{Ways: n, Stride: 1}}
	return node
}

// JoinRR builds the matching round-robin join kernel: data is collected
// in0, in1, ... in round-robin order, restoring the original stream
// order; a control token is forwarded once after it has been received
// on every branch (the broadcast copies from SplitRR all sit at the
// same stream position, so the collection point is unambiguous).
func JoinRR(name string, n int, item geom.Size) *graph.Node {
	if n < 1 {
		panic("kernel: join needs at least one branch")
	}
	node := graph.NewNode(name, graph.KindJoin)
	node.CreateOutput("out", item, geom.St(item.W, item.H))
	node.RegisterMethod("join", fsmPerItem, 2)
	node.RegisterMethodOutput("join", "out")
	for i := 0; i < n; i++ {
		in := fmt.Sprintf("in%d", i)
		node.CreateInput(in, item, geom.St(item.W, item.H), geom.Off(0, 0))
		node.RegisterMethodInput("join", in)
	}
	node.Behavior = &collectBehavior{sched: conn.Schedule{Ways: n, Stride: 1}, what: "join"}
	return node
}

// Replicate builds the broadcast kernel used for replicated inputs
// (paper Figure 4): every item, data or token, is copied to every
// branch so all parallel instances receive identical configuration
// streams (e.g. convolution coefficients).
func Replicate(name string, n int, item geom.Size) *graph.Node {
	if n < 1 {
		panic("kernel: replicate needs at least one branch")
	}
	node := graph.NewNode(name, graph.KindReplicate)
	node.CreateInput("in", item, geom.St(item.W, item.H), geom.Off(0, 0))
	node.RegisterMethod("replicate", fsmPerItem, 2)
	node.RegisterMethodInput("replicate", "in")
	for i := 0; i < n; i++ {
		out := fmt.Sprintf("out%d", i)
		node.CreateOutput(out, item, geom.St(item.W, item.H))
		node.RegisterMethodOutput("replicate", out)
	}
	node.Behavior = replicateBehavior{}
	return node
}

type replicateBehavior struct{}

func (replicateBehavior) Clone() graph.Behavior { return replicateBehavior{} }

// Next implements graph.Step: every item goes to every branch.
func (replicateBehavior) Next(h graph.StepHeads, p *graph.StepPlan) (bool, error) {
	if h.Head(0) == nil {
		return false, nil
	}
	p.View(graph.AllOutputs, 0, 0, 1)
	return true, nil
}

func (replicateBehavior) Apply() {}

// SplitColumns builds the column-range split kernel used when buffers
// are parallelized (paper §IV-C, Figure 10): each incoming sample of a
// row goes to every stripe whose input column range contains it, so the
// overlap columns are replicated to both neighbors. End-of-line and
// end-of-frame tokens are broadcast.
func SplitColumns(name string, stripes []Stripe, dataW int) *graph.Node {
	if len(stripes) < 1 {
		panic("kernel: column split needs stripes")
	}
	node := graph.NewNode(name, graph.KindSplit)
	node.CreateInput("in", geom.Sz(1, 1), geom.St(1, 1), geom.Off(0, 0))
	node.RegisterMethod("split", fsmPerItem, 4)
	node.RegisterMethodInput("split", "in")
	for i := range stripes {
		out := fmt.Sprintf("out%d", i)
		node.CreateOutput(out, geom.Sz(1, 1), geom.St(1, 1))
		node.RegisterMethodOutput("split", out)
	}
	node.Attrs["label"] = fmt.Sprintf("columns x%d", len(stripes))
	node.Behavior = &splitColumnsBehavior{stripes: stripes, dataW: dataW}
	return node
}

type splitColumnsBehavior struct {
	stripes  []Stripe
	dataW    int
	x, pendX int
}

func (b *splitColumnsBehavior) Clone() graph.Behavior {
	return &splitColumnsBehavior{stripes: b.stripes, dataW: b.dataW}
}

// AcceptsBatch implements graph.BatchAware: sample rows arrive whole
// and each stripe receives its column range as one sub-span view.
func (b *splitColumnsBehavior) AcceptsBatch(input string) bool { return input == "in" }

// Next implements graph.Step. A data head covers sample columns
// [x, x+n): every stripe whose input range overlaps gets the overlap as
// a view of the head. Tokens go to every stripe.
func (b *splitColumnsBehavior) Next(h graph.StepHeads, p *graph.StepPlan) (bool, error) {
	tok := h.Head(0)
	if tok == nil {
		return false, nil
	}
	b.pendX = b.x
	switch tok.Kind {
	case token.None:
		n := h.Span(0)
		p.Take[0] = true
		for i, s := range b.stripes {
			if lo, hi := max(b.x, s.InStart), min(b.x+n, s.InEnd); lo < hi {
				p.View(int32(i), 0, lo-b.x, hi-b.x)
			}
		}
		b.pendX = b.x + n
		return true, nil
	case token.EndOfLine:
		if b.x != b.dataW {
			return false, fmt.Errorf("kernel: column split %q EOL after %d of %d samples",
				h.Node().Name(), b.x, b.dataW)
		}
		b.pendX = 0
	case token.EndOfFrame:
		b.pendX = 0
	}
	p.View(graph.AllOutputs, 0, 0, 1)
	return true, nil
}

func (b *splitColumnsBehavior) Apply() { b.x = b.pendX }

// SplitColumnsStripes exposes the stripe table of a SplitColumns node.
func SplitColumnsStripes(n *graph.Node) ([]Stripe, bool) {
	b, ok := n.Behavior.(*splitColumnsBehavior)
	if !ok {
		return nil, false
	}
	return b.stripes, true
}

// JoinColumns builds the join kernel matching SplitColumns after the
// per-stripe buffers (and any per-stripe compute): for each output row
// it drains stripe branches in order — counts[i] data items then that
// branch's end-of-line — emitting data in scan order with a single
// regenerated end-of-line; end-of-frame is forwarded once after all
// branches deliver it.
func JoinColumns(name string, counts []int, item geom.Size) *graph.Node {
	if len(counts) < 1 {
		panic("kernel: column join needs branch counts")
	}
	node := graph.NewNode(name, graph.KindJoin)
	node.CreateOutput("out", item, geom.St(item.W, item.H))
	node.RegisterMethod("join", fsmPerItem, 4)
	node.RegisterMethodOutput("join", "out")
	for i := range counts {
		in := fmt.Sprintf("in%d", i)
		node.CreateInput(in, item, geom.St(item.W, item.H), geom.Off(0, 0))
		node.RegisterMethodInput("join", in)
	}
	node.Attrs["label"] = fmt.Sprintf("columns x%d", len(counts))
	node.Behavior = &joinColumnsBehavior{counts: counts}
	return node
}

type joinColumnsBehavior struct {
	counts []int
	// The cursor: the branch being drained, the data items it has
	// given to the current row, and the output row index.
	cur, pend joinPos
}

type joinPos struct {
	branch, got int
	row         int64
}

func (b *joinColumnsBehavior) Clone() graph.Behavior {
	return &joinColumnsBehavior{counts: b.counts}
}

// AcceptsBatch implements graph.BatchAware: a branch's row segment may
// arrive as one span, which is forwarded whole (the output row is the
// concatenation of the branch segments in branch order).
func (b *joinColumnsBehavior) AcceptsBatch(input string) bool { return true }

// JoinColumnsCounts exposes the per-branch per-row item counts.
func JoinColumnsCounts(n *graph.Node) ([]int, bool) {
	b, ok := n.Behavior.(*joinColumnsBehavior)
	if !ok {
		return nil, false
	}
	return b.counts, true
}

// Next implements graph.Step. One output row drains each branch's
// row segment in branch order — counts[i] data items, then that
// branch's own end-of-line — and the last branch's end-of-line leaves
// as the row's. End-of-frame, met at the start of a row, must head
// every branch and leaves once. Any other token is an error.
func (b *joinColumnsBehavior) Next(h graph.StepHeads, p *graph.StepPlan) (bool, error) {
	b.pend = b.cur
	i, got := int32(b.cur.branch), b.cur.got
	want := b.counts[i]
	name := h.Node().Name()
	tok := h.Head(i)
	switch {
	case tok == nil && !h.Ended():
		return false, nil
	case got == want && (tok == nil || tok.Kind != token.EndOfLine):
		return false, fmt.Errorf("kernel: column join %q missing EOL on branch %d (got %v)",
			name, i, h.Show(i))
	case tok == nil && i == 0 && got == 0:
		return false, nil // clean shutdown between rows
	case tok == nil:
		return false, fmt.Errorf("kernel: column join %q branch %d closed mid-row", name, i)
	case got == want:
		p.Take[i] = true
		if int(i) == len(b.counts)-1 {
			p.Token(0, token.EOL(b.cur.row))
			b.pend.row++
		}
		b.pend.branch, b.pend.got = (int(i)+1)%len(b.counts), 0
		return true, nil
	case tok.Kind == token.None:
		n := h.Span(i)
		if got+n > want {
			return false, fmt.Errorf("kernel: column join %q branch %d span of %d overruns row (%d of %d)",
				name, i, n, got, want)
		}
		p.View(0, i, 0, n)
		b.pend.got += n
		return true, nil
	case tok.Kind != token.EndOfFrame || i != 0 || got != 0:
		return false, fmt.Errorf("kernel: column join %q unexpected %v on branch %d", name, h.Show(i), i)
	}
	// A frame boundary instead of a new row.
	for j := int32(1); j < int32(len(b.counts)); j++ {
		other := h.Head(j)
		if other == nil && !h.Ended() {
			return false, nil
		}
		if other == nil || other.Kind != token.EndOfFrame {
			return false, fmt.Errorf("kernel: column join %q EOF skew on branch %d", name, j)
		}
		p.Take[j] = true
	}
	p.View(0, 0, 0, 1)
	b.pend.row = 0
	return true, nil
}

func (b *joinColumnsBehavior) Apply() { b.cur = b.pend }
