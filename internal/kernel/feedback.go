package kernel

import (
	"fmt"

	"blockpar/internal/frame"
	"blockpar/internal/geom"
	"blockpar/internal/graph"
)

// Feedback builds the loop-breaking kernel of §III-D: it outputs the
// given initial values once, before consuming anything, and thereafter
// passes its input through unchanged. Placing one on a cycle gives the
// data-flow analysis a starting point and gives the loop its initial
// state.
func Feedback(name string, item geom.Size, initial []frame.Window) *graph.Node {
	for _, w := range initial {
		if w.W != item.W || w.H != item.H {
			panic(fmt.Sprintf("kernel: feedback initial value %dx%d does not match item %v",
				w.W, w.H, item))
		}
	}
	n := graph.NewNode(name, graph.KindFeedback)
	n.CreateInput("in", item, geom.St(item.W, item.H), geom.Off(0, 0))
	n.CreateOutput("out", item, geom.St(item.W, item.H))
	n.RegisterMethod("pass", fsmPerItem, int64(len(initial))*int64(item.Area()))
	n.RegisterMethodInput("pass", "in")
	n.RegisterMethodOutput("pass", "out")
	n.Behavior = &feedbackBehavior{initial: initial}
	return n
}

type feedbackBehavior struct {
	initial []frame.Window
	emitted bool
}

func (b *feedbackBehavior) Clone() graph.Behavior {
	return &feedbackBehavior{initial: b.initial}
}

// FeedbackInitial exposes the initial values of a Feedback node.
func FeedbackInitial(n *graph.Node) ([]frame.Window, bool) {
	b, ok := n.Behavior.(*feedbackBehavior)
	if !ok {
		return nil, false
	}
	return b.initial, true
}

// Next implements graph.Step: the first step sends the initial values
// and takes nothing; every later one passes its head through.
func (b *feedbackBehavior) Next(h graph.StepHeads, p *graph.StepPlan) (bool, error) {
	if !b.emitted {
		for i := range b.initial {
			p.Fresh(0, i, i+1)
		}
		return true, nil
	}
	if h.Head(0) == nil {
		return false, nil
	}
	p.View(0, 0, 0, h.Span(0))
	return true, nil
}

func (b *feedbackBehavior) Apply() { b.emitted = true }

// Take implements graph.StepValues; the feedback kernel keeps nothing.
func (b *feedbackBehavior) Take(*graph.Node, int32, *graph.Item) error { return nil }

// Fresh implements graph.StepValues: a copy of initial value e.J0.
func (b *feedbackBehavior) Fresh(e *graph.StepEmit) graph.Item {
	return graph.DataItem(b.initial[e.J0].Clone())
}

// Accumulator builds a 1×1 running-sum kernel with a state input, used
// by the feedback example: out = in + state, and the new sum is also
// emitted on the "loop" output that closes the feedback cycle. Unlike
// the other per-sample kernels it stays scalar: its state input is fed
// by its own previous firing, so that input never holds more than one
// item and a firing could never cover more than one sample.
func Accumulator(name string) *graph.Node {
	n := graph.NewNode(name, graph.KindKernel)
	n.CreateInput("in", geom.Sz(1, 1), geom.St(1, 1), geom.Off(0, 0))
	n.CreateInput("state", geom.Sz(1, 1), geom.St(1, 1), geom.Off(0, 0))
	n.CreateOutput("out", geom.Sz(1, 1), geom.St(1, 1))
	n.CreateOutput("loop", geom.Sz(1, 1), geom.St(1, 1))
	n.RegisterMethod("accumulate", subtractCycles, 2)
	n.RegisterMethodInput("accumulate", "in")
	n.RegisterMethodInput("accumulate", "state")
	n.RegisterMethodOutput("accumulate", "out")
	n.RegisterMethodOutput("accumulate", "loop")
	n.Behavior = accumulatorBehavior{}
	return n
}

type accumulatorBehavior struct{}

func (accumulatorBehavior) Clone() graph.Behavior { return accumulatorBehavior{} }

func (accumulatorBehavior) Invoke(method string, ctx graph.ExecContext) error {
	if method != "accumulate" {
		return fmt.Errorf("kernel: accumulator has no method %q", method)
	}
	sum := ctx.Input("in").Value() + ctx.Input("state").Value()
	ctx.Emit("out", frame.PooledScalar(sum))
	ctx.Emit("loop", frame.PooledScalar(sum))
	return nil
}
