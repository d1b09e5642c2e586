// Package sim is the timing simulator: a deterministic discrete-event
// simulation of a mapped application that accounts for kernel execution
// time, input/output access time, buffer transfer time, and PE
// scheduling — and, like the paper's simulator, deliberately not
// placement or communication delays ("a reasonable simplification for a
// throughput-based application", §IV-D).
//
// The simulation is value-free: items carry only their shape (token or
// data, word count), one logical item each, and every node fires by
// the functional runtime's own rule: ordinary kernels step the very
// graph.Rule the runtime's driver steps, and the compiler's FSM kernels
// (buffers, splits, joins, replicates, insets, pads, feedback) the very
// graph.Step its stepper runs. The functional runtime
// (internal/runtime) verifies values; the simulator verifies time.
package sim

import (
	"fmt"

	"blockpar/internal/fifo"
	"blockpar/internal/token"
)

// item is a value-free stream element.
type item struct {
	isTok bool
	tok   token.Token
	words int64
}

func dataItem(words int64) item { return item{words: words} }

func tokenItem(t token.Token) item { return item{isTok: true, tok: t, words: 1} }

func (it item) String() string {
	if it.isTok {
		return it.tok.String()
	}
	return fmt.Sprintf("data[%dw]", it.words)
}

// deliver pushes items onto q, whose space the caller checked.
func deliver(q *fifo.Ring[item], items []item) {
	for i := range items {
		if !q.Push(&items[i]) {
			panic("sim: queue overflow (space must be checked before push)")
		}
	}
}

// space returns how many more items q accepts.
func space(q *fifo.Ring[item]) int { return q.Limit() - q.Len() }

// firing is one schedulable unit of work on a node: the items it will
// take from the head of each input queue and deliver on each output,
// both indexed like the node's ports, plus its compute cycles.
// Read/write costs are derived from the consumed/produced words by the
// engine. Each node owns one firing and rebuilds it for every proposal
// (a node has at most one firing in flight: its PE is busy until the
// firing completes).
type firing struct {
	label   string
	consume []int
	produce [][]item
	cycles  int64
	// exceeded marks a dynamic invocation whose actual cost hit its
	// declared bound: the engine records a resource exception (§VII).
	exceeded bool
}

func newFiring(ins, outs int) firing {
	return firing{consume: make([]int, ins), produce: make([][]item, outs)}
}

// reset empties the firing for the next proposal, keeping its storage.
func (f *firing) reset() {
	clear(f.consume)
	for o := range f.produce {
		f.produce[o] = f.produce[o][:0]
	}
	f.label, f.cycles, f.exceeded = "", 0, false
}

func (f *firing) emit(out int, it item) { f.produce[out] = append(f.produce[out], it) }

// emitAll delivers it on every output.
func (f *firing) emitAll(it item) {
	for o := range f.produce {
		f.emit(o, it)
	}
}

func (f *firing) writeWords() int64 {
	var w int64
	for _, items := range f.produce {
		for _, it := range items {
			w += it.words
		}
	}
	return w
}

// automaton decides a node's next firing from its input queue heads.
// next fills a reset firing and must not change the queues or the
// automaton's state; the state advances in commit, called when the
// engine starts the firing next proposed last.
type automaton interface {
	// next proposes the next firing, reporting false if the node cannot
	// fire, and an error if its input stream is malformed.
	next(qs []fifo.Ring[item], f *firing) (bool, error)
	commit()
}
