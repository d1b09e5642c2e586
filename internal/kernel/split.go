package kernel

import (
	"fmt"

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
	node.Behavior = &splitRRBehavior{n: n}
	return node
}

// indexedNames builds the "prefix0".."prefixN-1" port-name table once,
// so Run loops address branches without a fmt.Sprintf per item.
func indexedNames(prefix string, n int) []string {
	out := make([]string, n)
	for i := range out {
		out[i] = fmt.Sprintf("%s%d", prefix, i)
	}
	return out
}

type splitRRBehavior struct {
	n    int
	next int
	outs []string
}

func (b *splitRRBehavior) Clone() graph.Behavior { return &splitRRBehavior{n: b.n} }

func (b *splitRRBehavior) Run(ctx graph.RunContext) error {
	if b.outs == nil {
		b.outs = indexedNames("out", b.n)
	}
	for {
		it, ok := ctx.Recv("in")
		if !ok {
			return nil
		}
		if it.IsToken {
			for i := 0; i < b.n; i++ {
				ctx.Send(b.outs[i], it)
			}
			continue
		}
		ctx.Send(b.outs[b.next], it)
		b.next = (b.next + 1) % b.n
	}
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
	node.Behavior = &joinRRBehavior{n: n}
	return node
}

type joinRRBehavior struct {
	n    int
	next int
	ins  []string
}

func (b *joinRRBehavior) Clone() graph.Behavior { return &joinRRBehavior{n: b.n} }

func (b *joinRRBehavior) Run(ctx graph.RunContext) error {
	if b.ins == nil {
		b.ins = indexedNames("in", b.n)
	}
	for {
		it, ok := ctx.Recv(b.ins[b.next])
		if !ok {
			return nil
		}
		if !it.IsToken {
			ctx.Send("out", it)
			b.next = (b.next + 1) % b.n
			continue
		}
		// A token at the head of the current branch: every other
		// branch's next item must be the same token (split broadcast
		// them at one stream position). Collect and forward once.
		for i := 0; i < b.n; i++ {
			if i == b.next {
				continue
			}
			other, ok := ctx.Recv(b.ins[i])
			if !ok {
				return fmt.Errorf("kernel: join %q branch %d closed mid-token", ctx.Node().Name(), i)
			}
			if !other.IsToken || other.Tok != it.Tok {
				return fmt.Errorf("kernel: join %q token skew: branch %d has %v, expected %v",
					ctx.Node().Name(), i, other, it.Tok)
			}
		}
		ctx.Send("out", it)
	}
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
	node.Behavior = &replicateBehavior{n: n}
	return node
}

type replicateBehavior struct {
	n    int
	outs []string
}

func (b *replicateBehavior) Clone() graph.Behavior { return &replicateBehavior{n: b.n} }

func (b *replicateBehavior) Run(ctx graph.RunContext) error {
	if b.outs == nil {
		b.outs = indexedNames("out", b.n)
	}
	for {
		it, ok := ctx.Recv("in")
		if !ok {
			return nil
		}
		if !it.IsToken {
			// n branches consume the same item; the held reference
			// covers the first.
			it.Win.Retain(b.n - 1)
		}
		for i := 0; i < b.n; i++ {
			ctx.Send(b.outs[i], it)
		}
	}
}

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
	stripes []Stripe
	dataW   int
	x       int
	outs    []string
}

func (b *splitColumnsBehavior) Clone() graph.Behavior {
	return &splitColumnsBehavior{stripes: b.stripes, dataW: b.dataW}
}

// AcceptsBatch implements graph.BatchAware: sample rows arrive whole
// and each stripe receives its column range as one sub-span view.
func (b *splitColumnsBehavior) AcceptsBatch(input string) bool { return input == "in" }

func (b *splitColumnsBehavior) Run(ctx graph.RunContext) error {
	if b.outs == nil {
		b.outs = indexedNames("out", len(b.stripes))
	}
	for {
		it, ok := ctx.Recv("in")
		if !ok {
			return nil
		}
		if it.IsToken {
			switch it.Tok.Kind {
			case token.EndOfLine:
				if b.x != b.dataW {
					return fmt.Errorf("kernel: column split %q EOL after %d of %d samples",
						ctx.Node().Name(), b.x, b.dataW)
				}
				b.x = 0
			case token.EndOfFrame:
				b.x = 0
			}
			for i := range b.stripes {
				ctx.Send(b.outs[i], it)
			}
			continue
		}
		// The item covers sample columns [b.x, b.x+n). Every stripe whose
		// input range overlaps gets the overlap as one view sharing the
		// item's storage; each such view is one consumer and the held
		// reference covers the first (or is dropped if no stripe overlaps,
		// e.g. a sample outside every range).
		n := it.BatchN()
		sent := 0
		for _, s := range b.stripes {
			if b.x < s.InEnd && b.x+n > s.InStart {
				sent++
			}
		}
		if sent == 0 {
			it.Win.Release()
			b.x += n
			continue
		}
		it.Win.Retain(sent - 1)
		for i, s := range b.stripes {
			lo, hi := max(b.x, s.InStart), min(b.x+n, s.InEnd)
			if lo >= hi {
				continue
			}
			if lo == b.x && hi == b.x+n {
				ctx.Send(b.outs[i], it)
				continue
			}
			sub := it.Win.View(lo-b.x, 0, hi-lo, it.Win.H)
			ctx.Send(b.outs[i], graph.BatchItem(sub, graph.Batch{
				N: int32(hi - lo), Sx: 1, Bw: 1,
			}))
		}
		b.x += n
	}
}

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
	ins    []string
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

func (b *joinColumnsBehavior) Run(ctx graph.RunContext) error {
	if b.ins == nil {
		b.ins = indexedNames("in", len(b.counts))
	}
	name := func(i int) string { return b.ins[i] }
	var row int64
	for {
		// One output row: drain each branch's row segment in order.
		for i, want := range b.counts {
			got := 0
			for got < want {
				it, ok := ctx.Recv(name(i))
				if !ok {
					if i == 0 && got == 0 && row >= 0 {
						return nil // clean shutdown between rows
					}
					return fmt.Errorf("kernel: column join %q branch %d closed mid-row", ctx.Node().Name(), i)
				}
				if it.IsToken {
					if it.Tok.Kind == token.EndOfFrame && i == 0 && got == 0 {
						// Frame boundary instead of a new row: collect
						// EOF from the remaining branches and forward.
						for j := 1; j < len(b.counts); j++ {
							other, ok := ctx.Recv(name(j))
							if !ok || !other.IsToken || other.Tok.Kind != token.EndOfFrame {
								return fmt.Errorf("kernel: column join %q EOF skew on branch %d", ctx.Node().Name(), j)
							}
						}
						ctx.Send("out", it)
						row = 0
						// Restart the row loop for the next frame.
						got = -1
						break
					}
					return fmt.Errorf("kernel: column join %q unexpected %v on branch %d",
						ctx.Node().Name(), it, i)
				}
				if got+it.BatchN() > want {
					return fmt.Errorf("kernel: column join %q branch %d span of %d overruns row (%d of %d)",
						ctx.Node().Name(), i, it.BatchN(), got, want)
				}
				ctx.Send("out", it)
				got += it.BatchN()
			}
			if got == -1 {
				break
			}
			if got == want {
				// The branch's own end-of-line must follow.
				eol, ok := ctx.Recv(name(i))
				if !ok || !eol.IsToken || eol.Tok.Kind != token.EndOfLine {
					return fmt.Errorf("kernel: column join %q missing EOL on branch %d (got %v)",
						ctx.Node().Name(), i, eol)
				}
				if i == len(b.counts)-1 {
					ctx.Send("out", graph.TokenItem(token.EOL(row)))
					row++
				}
			}
		}
	}
}
