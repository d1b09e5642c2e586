package sim

import (
	"fmt"

	"blockpar/internal/fifo"
	"blockpar/internal/graph"
	"blockpar/internal/token"
)

// newAutomaton builds the automaton for node n of g: the step of an
// FSM kernel (on a clone of its behavior, so the simulation leaves the
// graph's kernel state alone), else the node's lowered rule.
func newAutomaton(g *graph.Graph, n *graph.Node) automaton {
	if st, ok := n.Behavior.(graph.Step); ok {
		return &stepAuto{
			heads:  heads{node: n},
			step:   st.Clone().(graph.Step),
			plan:   graph.NewStepPlan(len(n.Inputs())),
			cycles: n.Methods()[0].Cycles,
		}
	}
	r := graph.LowerRule(g, n)
	return &ruleAuto{heads: heads{node: n}, rule: r, state: r.NewState(), invocations: make([]int64, len(r.Methods))}
}

// heads is the view of a node's queues its rule or step reads: each
// queue holds one logical item per entry.
type heads struct {
	node *graph.Node
	qs   []fifo.Ring[item]
}

// Head implements graph.Heads: a data item's token is the zero token.
func (h *heads) Head(in int32) *token.Token {
	q := &h.qs[in]
	if q.Len() == 0 {
		return nil
	}
	return &q.Peek().tok
}

// Span implements graph.StepHeads: every item is one logical item.
func (h *heads) Span(int32) int { return 1 }

// Ended implements graph.StepHeads: a simulation's queues never close.
func (h *heads) Ended() bool { return false }

// Show implements graph.StepHeads.
func (h *heads) Show(in int32) fmt.Stringer {
	if q := &h.qs[in]; q.Len() > 0 {
		return *q.Peek()
	}
	return item{}
}

// Node implements graph.StepHeads.
func (h *heads) Node() *graph.Node { return h.node }

// stepAuto runs an FSM kernel's graph.Step — the step the runtime's
// stepper runs — adding only what timing needs: the node's one method's
// cycles, and word counts from the emits (a view is its head's words, a
// fresh window its output port's).
type stepAuto struct {
	heads
	step   graph.Step
	plan   graph.StepPlan
	cycles int64
}

func (a *stepAuto) next(qs []fifo.Ring[item], f *firing) (bool, error) {
	a.qs = qs
	a.plan.Reset()
	if ok, err := a.step.Next(a, &a.plan); !ok || err != nil {
		return false, err
	}
	f.label, f.cycles = a.node.Methods()[0].Name, a.cycles
	for in, take := range a.plan.Take {
		if take {
			f.consume[in] = 1
		}
	}
	for i := range a.plan.Emits {
		e := &a.plan.Emits[i]
		for o := range f.produce {
			if e.Out != graph.AllOutputs && e.Out != int32(o) {
				continue
			}
			switch e.Kind {
			case graph.EmitView:
				f.emit(o, *qs[e.In].Peek())
			case graph.EmitToken:
				f.emit(o, tokenItem(e.Tok))
			case graph.EmitFresh:
				for j := e.J0; j < e.J1; j++ {
					f.emit(o, dataItem(a.node.Outputs()[o].Words()))
				}
			}
		}
	}
	return true, nil
}

func (a *stepAuto) commit() { a.step.Apply() }

// ruleAuto fires an ordinary kernel by its lowered §II-C rule — the
// graph.Rule the runtime's driver steps — adding only what timing
// needs: cycles and word counts.
type ruleAuto struct {
	// heads are the queues of the proposal in progress.
	heads
	rule  *graph.Rule
	state graph.RuleState

	// change and method are the last proposal's state change and method
	// (-1 for a forwarded or absorbed token), committed together.
	change graph.RuleChange
	method int32
	// invocations counts firings per method, feeding dynamic cost
	// models (§VII extension).
	invocations []int64
}

func (a *ruleAuto) next(qs []fifo.Ring[item], f *firing) (bool, error) {
	a.qs = qs
	act, change, ok := a.rule.Next(a, &a.state)
	if !ok {
		return false, nil
	}
	a.change, a.method = change, act.Method
	if act.Method < 0 {
		in := &a.rule.Ins[act.In]
		tok := *qs[act.In].Peek()
		f.label, f.cycles = "forward:"+tok.tok.String(), 1
		for _, g := range in.Group {
			f.consume[g]++
		}
		for _, o := range in.Fwd {
			f.emit(int(o), tok)
		}
		return true, nil
	}
	m, rm := a.node.Methods()[act.Method], &a.rule.Methods[act.Method]
	f.label, f.cycles = m.Name, m.Cycles
	if m.Dynamic() {
		// Dynamic method (§VII): the actual cost comes from the node's
		// deterministic cost model; invocations beyond the declared
		// bound are truncated and raise a resource exception.
		if model := a.node.Costs[m.Name]; model != nil {
			f.cycles = model(a.invocations[act.Method])
		}
		if f.cycles > m.Bound {
			f.cycles, f.exceeded = m.Bound, true
		}
	}
	for _, t := range rm.Trig {
		f.consume[t.In]++
	}
	for _, o := range rm.Fwd[:len(m.Outputs)] {
		f.emit(int(o), dataItem(a.node.Outputs()[o].Words()))
	}
	// Consumed control tokens follow the results, each once.
	for i, t := range rm.Trig {
		h := *qs[t.In].Peek()
		if !h.isTok || a.consumedBefore(rm.Trig[:i], h.tok) {
			continue
		}
		for _, o := range rm.Fwd {
			f.emit(int(o), h)
		}
	}
	return true, nil
}

// consumedBefore reports whether tok heads the input of one of trig.
func (a *ruleAuto) consumedBefore(trig []graph.RuleTrigger, tok token.Token) bool {
	for _, t := range trig {
		if h := a.qs[t.In].Peek(); h.isTok && h.tok == tok {
			return true
		}
	}
	return false
}

func (a *ruleAuto) commit() {
	a.state.Apply(a.change)
	if a.method >= 0 {
		a.invocations[a.method]++
	}
}
