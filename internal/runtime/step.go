package runtime

import (
	"fmt"

	"blockpar/internal/graph"
)

// stepper runs an FSM kernel by its graph.Step over its input rings, as
// driver fires an Invoker by its Rule. One locked section per step
// retires the previous step's heads and decides and applies the next;
// the step's emits are built and sent unlocked, as views of the taken
// heads read in place in their ring slots.
type stepper struct {
	ex   *executor
	pn   *planNode
	ib   *inbox
	step graph.Step
	vals graph.StepValues
	plan graph.StepPlan

	// heads points, per input the step takes, at the head slot; refs
	// counts the references its views need. held: the taken heads are
	// still in their rings, for the next locked section to drop.
	// released: the step got far enough to hand their windows on.
	heads          []*graph.Item
	refs           []int
	held, released bool
}

func newStepper(ex *executor, pn *planNode) *stepper {
	s := &stepper{
		ex: ex, pn: pn, ib: &ex.boxes[pn.id], step: pn.step,
		plan:  graph.NewStepPlan(len(pn.ins)),
		heads: make([]*graph.Item, len(pn.ins)),
		refs:  make([]int, len(pn.ins)),
	}
	s.vals, _ = pn.step.(graph.StepValues)
	return s
}

// Span implements graph.StepHeads: the head's logical item count.
func (ib *inbox) Span(in int32) int { return ib.rings[in].Peek().BatchN() }

// Ended implements graph.StepHeads: no producer is left, or the run is
// stopping.
func (ib *inbox) Ended() bool { return ib.closed || ib.ex.stopped.Load() }

// Show implements graph.StepHeads.
func (ib *inbox) Show(in int32) fmt.Stringer {
	if r := &ib.rings[in]; r.Len() > 0 {
		return *r.Peek()
	}
	return graph.Item{}
}

// Node implements graph.StepHeads.
func (ib *inbox) Node() *graph.Node { return ib.pn.node }

// next retires the previous step, then decides and applies the next
// one. The kernel's one method counts the logical data items it takes.
func (s *stepper) next() (bool, error) {
	s.retire()
	s.plan.Reset()
	ok, err := s.step.Next(s.ib, &s.plan)
	if !ok || err != nil {
		return false, err
	}
	s.step.Apply()
	var n int64
	for k, take := range s.plan.Take {
		if take {
			it := s.ib.rings[k].Peek()
			s.heads[k] = it
			if !it.IsToken {
				n += int64(it.BatchN())
			}
		}
	}
	if n > 0 {
		s.ib.fired[0].Add(n)
	}
	s.held, s.released = true, false
	return true, nil
}

// fanout is the number of outputs an emit goes to.
func (s *stepper) fanout(out int32) int {
	if out == graph.AllOutputs {
		return len(s.pn.outs)
	}
	return 1
}

// run hands the taken data heads to the step's value hook, then builds
// and sends the emits in order. Each view of a taken head carries a
// reference of its own: the head's covers the first, and goes back to
// the arena when nothing views it.
func (s *stepper) run() error {
	clear(s.refs)
	for i := range s.plan.Emits {
		if e := &s.plan.Emits[i]; e.Kind == graph.EmitView {
			s.refs[e.In] += s.fanout(e.Out)
		}
	}
	for k, take := range s.plan.Take {
		if it := s.heads[k]; take && !it.IsToken && s.vals != nil {
			if err := s.vals.Take(s.pn.node, int32(k), it); err != nil {
				return err
			}
		}
	}
	for k, take := range s.plan.Take {
		if it := s.heads[k]; take && !it.IsToken {
			if s.refs[k] == 0 {
				it.Win.Release()
			} else if s.refs[k] > 1 {
				it.Win.Retain(s.refs[k] - 1)
			}
		}
	}
	s.released = true
	for i := range s.plan.Emits {
		e := &s.plan.Emits[i]
		var it graph.Item
		switch e.Kind {
		case graph.EmitView:
			it = s.heads[e.In].Windows(int(e.J0), int(e.J1))
		case graph.EmitToken:
			it = graph.TokenItem(e.Tok)
		case graph.EmitFresh:
			it = s.vals.Fresh(e)
			if n := s.fanout(e.Out); n > 1 {
				it.Win.Retain(n - 1)
			}
		}
		if e.Out != graph.AllOutputs {
			s.ex.send(s.pn, e.Out, it)
			continue
		}
		for o := range s.pn.outs {
			s.ex.send(s.pn, int32(o), it)
		}
	}
	return nil
}

// retire drops the heads the last step took and wakes any producer
// waiting for the room; a step that never got to hand their windows on
// (an error, a panic) gives them back. Called with ib.mu held.
func (s *stepper) retire() {
	if !s.held {
		return
	}
	for k, take := range s.plan.Take {
		if !take {
			continue
		}
		r := &s.ib.rings[k]
		if it := r.Peek(); !s.released && !it.IsToken {
			it.Win.Release()
		}
		r.Drop()
		s.ib.freed(r)
		s.heads[k] = nil
	}
	s.held = false
}

func (s *stepper) close() {
	s.ib.mu.Lock()
	s.retire()
	s.ib.mu.Unlock()
}
