package kernel

import (
	"fmt"

	"blockpar/internal/conn"
	"blockpar/internal/geom"
	"blockpar/internal/graph"
)

// ShareBuffer builds the windowed-sharing buffer of the generalized-
// connection subsystem: Buffer's 2-D circular ring and FSM, whose
// completed windows are delivered to N consumers at once. Each
// consumer output carries the same scan-order window stream; every
// emitted span is one arena allocation with one retained reference per
// extra consumer, so sharing N ways costs no copies and one ring instead
// of N. The compiler lowers a declared share connection whose consumers
// need identical window plans onto this kernel.
func ShareBuffer(name string, plan BufferPlan, ways int) *graph.Node {
	if plan.WinW < 1 || plan.WinH < 1 || plan.StepX < 1 || plan.StepY < 1 {
		panic(fmt.Sprintf("kernel: invalid share-buffer plan %+v", plan))
	}
	if ways < 1 || ways > conn.MaxWays {
		panic(fmt.Sprintf("kernel: share-buffer ways %d out of range", ways))
	}
	n := graph.NewNode(name, graph.KindBuffer)
	n.CreateInput("in", geom.Sz(1, 1), geom.St(1, 1), geom.Off(0, 0))
	n.RegisterMethod("share", fsmPerItem, plan.MemoryWords())
	n.RegisterMethodInput("share", "in")
	for i := 0; i < ways; i++ {
		out := fmt.Sprintf("out%d", i)
		n.CreateOutput(out, geom.Sz(plan.WinW, plan.WinH), geom.St(plan.StepX, plan.StepY))
		n.RegisterMethodOutput("share", out)
	}
	n.Attrs["label"] = fmt.Sprintf("share ×%d %s", ways, plan.Label())
	n.Attrs["conn"] = conn.Share.String()
	n.Behavior = &bufferBehavior{plan: plan, ways: ways}
	return n
}

// SharePlanOf returns the plan and fan-out of a ShareBuffer node,
// distinguishing it from the compiler's single-consumer Buffer.
func SharePlanOf(n *graph.Node) (BufferPlan, int, bool) {
	b, ok := n.Behavior.(*bufferBehavior)
	if !ok || b.ways == 0 {
		return BufferPlan{}, 0, false
	}
	return b.plan, b.ways, true
}
