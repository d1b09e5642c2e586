package kernel

import (
	"fmt"

	"blockpar/internal/conn"
	"blockpar/internal/geom"
	"blockpar/internal/graph"
	"blockpar/internal/token"
)

// Scatter builds the programmer-level strided distribution kernel of the
// generalized-connection subsystem: data items are dealt to out0..outN-1
// on a strided round-robin schedule (stride items per branch per turn),
// generalizing the compiler's round-robin split. Control tokens are
// broadcast to every branch so each branch keeps a consistent view of
// line/frame structure. Unlike the compiler-inserted SplitRR, a
// scatter's branches feed distinct downstream kernels (per-band or
// per-detector chains), so none of the instance-order wiring invariants
// of parallelization apply to it.
func Scatter(name string, sched conn.Schedule, item geom.Size) *graph.Node {
	if err := sched.Validate(); err != nil {
		panic("kernel: " + err.Error())
	}
	node := graph.NewNode(name, graph.KindSplit)
	node.CreateInput("in", item, geom.St(item.W, item.H), geom.Off(0, 0))
	node.RegisterMethod("scatter", fsmPerItem, 2)
	node.RegisterMethodInput("scatter", "in")
	for i := 0; i < sched.Ways; i++ {
		out := fmt.Sprintf("out%d", i)
		node.CreateOutput(out, item, geom.St(item.W, item.H))
		node.RegisterMethodOutput("scatter", out)
	}
	node.Attrs["label"] = fmt.Sprintf("scatter ×%d /%d", sched.Ways, sched.Stride)
	node.Attrs["conn"] = conn.Scatter.String()
	node.Attrs["ktype"] = "scatter"
	node.Attrs["kparams"] = fmt.Sprintf("%d,%d,%d,%d", sched.Ways, sched.Stride, item.W, item.H)
	node.Behavior = &dealBehavior{sched: sched, scatter: true}
	return node
}

// schedCursor is a position in a conn.Schedule: branch b has taken k
// items of its current turn.
type schedCursor struct{ b, k int }

func (c schedCursor) step(s conn.Schedule) schedCursor {
	if c.k++; c.k == s.Stride {
		c.k, c.b = 0, (c.b+1)%s.Ways
	}
	return c
}

// dealBehavior is the one deal step, behind SplitRR (the stride-1
// schedule) and Scatter: data goes to the outputs on the schedule,
// tokens to every output.
type dealBehavior struct {
	sched     conn.Schedule
	scatter   bool
	cur, pend schedCursor
}

func (d *dealBehavior) Clone() graph.Behavior {
	return &dealBehavior{sched: d.sched, scatter: d.scatter}
}

// Next implements graph.Step.
func (d *dealBehavior) Next(h graph.StepHeads, p *graph.StepPlan) (bool, error) {
	tok := h.Head(0)
	if tok == nil {
		return false, nil
	}
	d.pend = d.cur
	if tok.Kind != token.None {
		p.View(graph.AllOutputs, 0, 0, 1)
		return true, nil
	}
	p.View(int32(d.cur.b), 0, 0, 1)
	d.pend = d.cur.step(d.sched)
	return true, nil
}

func (d *dealBehavior) Apply() { d.cur = d.pend }

// ScatterSched returns the schedule of a Scatter node, distinguishing
// programmer-level scatters from the compiler's SplitRR/SplitColumns.
func ScatterSched(n *graph.Node) (conn.Schedule, bool) {
	b, ok := n.Behavior.(*dealBehavior)
	if !ok || !b.scatter {
		return conn.Schedule{}, false
	}
	return b.sched, true
}

// Gather builds the collection kernel matching Scatter: data is drained
// stride items at a time from in0, in1, ... on the same schedule, so a
// gather whose schedule equals the paired scatter's restores the
// original stream order exactly. A control token is forwarded once after
// it has been received at the head of every branch (the scatter
// broadcast its copies at one stream position, and the static analysis
// pins those positions to schedule-cycle boundaries).
func Gather(name string, sched conn.Schedule, item geom.Size) *graph.Node {
	if err := sched.Validate(); err != nil {
		panic("kernel: " + err.Error())
	}
	node := graph.NewNode(name, graph.KindJoin)
	node.CreateOutput("out", item, geom.St(item.W, item.H))
	node.RegisterMethod("gather", fsmPerItem, 2)
	node.RegisterMethodOutput("gather", "out")
	for i := 0; i < sched.Ways; i++ {
		in := fmt.Sprintf("in%d", i)
		node.CreateInput(in, item, geom.St(item.W, item.H), geom.Off(0, 0))
		node.RegisterMethodInput("gather", in)
	}
	node.Attrs["label"] = fmt.Sprintf("gather ×%d /%d", sched.Ways, sched.Stride)
	node.Attrs["conn"] = conn.Gather.String()
	node.Attrs["ktype"] = "gather"
	node.Attrs["kparams"] = fmt.Sprintf("%d,%d,%d,%d", sched.Ways, sched.Stride, item.W, item.H)
	node.Behavior = &collectBehavior{sched: sched, what: "gather"}
	return node
}

// collectBehavior is the one collect step, behind JoinRR (the stride-1
// schedule) and Gather: data is drained from the inputs on the
// schedule; a token must head every input, at a schedule-cycle
// boundary, and leaves once. what names the kernel in errors.
type collectBehavior struct {
	sched     conn.Schedule
	what      string
	cur, pend schedCursor
}

func (c *collectBehavior) Clone() graph.Behavior {
	return &collectBehavior{sched: c.sched, what: c.what}
}

// Next implements graph.Step. A token at the head of the current
// branch must sit at a schedule-cycle boundary (otherwise the stream
// entering the split violated the row-divisibility rule), and every
// other branch's next item must be the same token: the split broadcast
// its copies at one stream position.
func (c *collectBehavior) Next(h graph.StepHeads, p *graph.StepPlan) (bool, error) {
	c.pend = c.cur
	b := int32(c.cur.b)
	tok := h.Head(b)
	if tok == nil {
		return false, nil
	}
	if tok.Kind == token.None {
		p.View(0, b, 0, 1)
		c.pend = c.cur.step(c.sched)
		return true, nil
	}
	name := h.Node().Name()
	if c.cur.k != 0 {
		return false, fmt.Errorf("kernel: %s %q token %v inside a stride run (%d of %d)",
			c.what, name, *tok, c.cur.k, c.sched.Stride)
	}
	for i := range p.Take {
		other := h.Head(int32(i))
		switch {
		case other == nil && h.Ended():
			return false, fmt.Errorf("kernel: %s %q branch %d closed mid-token", c.what, name, i)
		case other == nil:
			return false, nil
		case *other != *tok:
			return false, fmt.Errorf("kernel: %s %q token skew: branch %d has %v, expected %v",
				c.what, name, i, h.Show(int32(i)), *tok)
		}
		p.Take[i] = true
	}
	p.View(0, b, 0, 1)
	return true, nil
}

func (c *collectBehavior) Apply() { c.cur = c.pend }

// GatherSched returns the schedule of a Gather node, distinguishing
// programmer-level gathers from the compiler's JoinRR/JoinColumns.
func GatherSched(n *graph.Node) (conn.Schedule, bool) {
	b, ok := n.Behavior.(*collectBehavior)
	if !ok || b.what != "gather" {
		return conn.Schedule{}, false
	}
	return b.sched, true
}
