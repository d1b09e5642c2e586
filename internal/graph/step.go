package graph

import (
	"fmt"

	"blockpar/internal/token"
)

// Step is the firing rule of a compiler FSM kernel — buffers, splits,
// joins, replicates, insets, pads and feedback — written once, as a
// two-phase step over the node's input heads: Next decides, Apply
// commits. The functional runtime's driver and the timing simulator
// both step it, as they step an ordinary kernel's Rule, so the two
// engines run one model of every kernel and cannot drift apart.
//
// A step decides from two things only: per input, the head's token
// kind or its count of logical windows; and the FSM's own position. It
// never reads sample values. What it emits is described, not built:
// views of a taken head's logical windows, tokens, and fresh windows
// (StepValues makes those in the runtime; the simulator counts their
// words from the output port).
type Step interface {
	Behavior
	// Next proposes the FSM's next step into p, which the caller has
	// Reset and sized to the node's inputs. ok is false when nothing can
	// move yet; err reports a malformed stream. Next leaves the heads
	// and the FSM's position alone; it may note its proposal for Apply.
	Next(h StepHeads, p *StepPlan) (ok bool, err error)
	// Apply commits the position change of the step Next proposed last.
	// A caller may instead drop the proposal (the simulator does when an
	// output queue lacks room) and ask again later.
	Apply()
}

// StepHeads is the view of a node's input queues a Step reads.
type StepHeads interface {
	// Heads gives each head's token (the zero token for data), nil when
	// the queue is empty.
	Heads
	// Span returns how many logical items the item heading input in
	// carries: its windows for data, 1 for a token.
	Span(in int32) int
	// Ended reports that the inputs are closed: a queue empty now stays
	// empty.
	Ended() bool
	// Show renders the item heading input in (the zero item when the
	// queue is empty) for an error message.
	Show(in int32) fmt.Stringer
	// Node returns the node being stepped.
	Node() *Node
}

// StepValues is implemented by steps that keep or make sample values:
// the buffer's row store, the pad's zeros, the feedback kernel's
// initial values. After a step is applied the runtime calls Take for
// each data head it takes, in input order, then Fresh for each fresh
// emit, in emit order. The value-free simulator calls neither.
type StepValues interface {
	Take(n *Node, in int32, it *Item) error
	// Fresh returns the window e describes, holding one reference.
	Fresh(e *StepEmit) Item
}

// EmitKind says what a StepEmit carries.
type EmitKind uint8

const (
	// EmitView is logical windows [J0, J1) of the head of input In,
	// which the step takes.
	EmitView EmitKind = iota
	// EmitToken is the token Tok.
	EmitToken
	// EmitFresh is J1-J0 new logical windows of the output's item size;
	// J0 numbers the first in the step's own terms (StepValues.Fresh
	// reads it).
	EmitFresh
)

// AllOutputs as a StepEmit's Out sends the item to every output.
const AllOutputs int32 = -1

// StepEmit is one item a step sends, on output Out (or AllOutputs).
type StepEmit struct {
	Kind   EmitKind
	Out    int32
	In     int32
	J0, J1 int32
	Tok    token.Token
}

// StepPlan is one decision of Step.Next: the heads the step takes,
// whole, and the items it sends, in order.
type StepPlan struct {
	Take  []bool
	Emits []StepEmit
}

// NewStepPlan returns an empty plan for a node with ins inputs.
func NewStepPlan(ins int) StepPlan { return StepPlan{Take: make([]bool, ins)} }

// Reset empties the plan for the next decision, keeping its storage.
func (p *StepPlan) Reset() {
	clear(p.Take)
	p.Emits = p.Emits[:0]
}

// View takes the head of input in and sends its logical windows
// [j0, j1) on out.
func (p *StepPlan) View(out, in int32, j0, j1 int) {
	p.Take[in] = true
	p.Emits = append(p.Emits, StepEmit{Kind: EmitView, Out: out, In: in, J0: int32(j0), J1: int32(j1)})
}

// Token sends tok on out.
func (p *StepPlan) Token(out int32, tok token.Token) {
	p.Emits = append(p.Emits, StepEmit{Kind: EmitToken, Out: out, Tok: tok})
}

// Fresh sends new windows j0..j1-1 on out.
func (p *StepPlan) Fresh(out int32, j0, j1 int) {
	p.Emits = append(p.Emits, StepEmit{Kind: EmitFresh, Out: out, J0: int32(j0), J1: int32(j1)})
}
