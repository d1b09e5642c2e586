package sim

import (
	"fmt"

	"blockpar/internal/conn"
	"blockpar/internal/graph"
	"blockpar/internal/kernel"
	"blockpar/internal/token"
)

// fsmCycles is the per-item cost of the compiler-inserted FSM kernels,
// matching the kernel library's registration.
const fsmCycles = 2

// newAutomaton builds the automaton for node n of g.
func newAutomaton(g *graph.Graph, n *graph.Node) (automaton, error) {
	switch n.Kind {
	case graph.KindBuffer:
		plan, ok := kernel.BufferPlanOf(n)
		if !ok {
			if plan, _, ok = kernel.SharePlanOf(n); !ok {
				return nil, fmt.Errorf("sim: %q has no buffer plan", n.Name())
			}
		}
		return &bufferAuto{plan: plan}, nil
	case graph.KindSplit:
		if stripes, ok := kernel.SplitColumnsStripes(n); ok {
			return &splitColumnsAuto{stripes: stripes}, nil
		}
		sched, ok := kernel.ScatterSched(n)
		if !ok {
			sched = conn.Schedule{Ways: len(n.Outputs()), Stride: 1}
		}
		return &dealAuto{sched: sched}, nil
	case graph.KindJoin:
		if counts, ok := kernel.JoinColumnsCounts(n); ok {
			return &joinColumnsAuto{counts: counts}, nil
		}
		sched, ok := kernel.GatherSched(n)
		if !ok {
			sched = conn.Schedule{Ways: len(n.Inputs()), Stride: 1}
		}
		return &collectAuto{sched: sched}, nil
	case graph.KindReplicate:
		return replicateAuto{}, nil
	case graph.KindInset:
		plan, ok := kernel.InsetPlanOf(n)
		if !ok {
			return nil, fmt.Errorf("sim: %q has no inset plan", n.Name())
		}
		return &insetAuto{plan: plan}, nil
	case graph.KindPad:
		plan, ok := kernel.PadPlanOf(n)
		if !ok {
			return nil, fmt.Errorf("sim: %q has no pad plan", n.Name())
		}
		return &padAuto{plan: plan}, nil
	case graph.KindFeedback:
		init, _ := kernel.FeedbackInitial(n)
		return &feedbackAuto{initial: len(init), words: n.Output("out").Words()}, nil
	default:
		r := graph.LowerRule(g, n)
		return &ruleAuto{node: n, rule: r, state: r.NewState(), invocations: make([]int64, len(r.Methods))}, nil
	}
}

// ruleAuto fires an ordinary kernel by its lowered §II-C rule — the
// graph.Rule the runtime's driver steps — adding only what timing
// needs: cycles and word counts.
type ruleAuto struct {
	node  *graph.Node
	rule  *graph.Rule
	state graph.RuleState
	// qs are the queues of the proposal in progress, read through Head.
	qs []queue

	// change and method are the last proposal's state change and method
	// (-1 for a forwarded or absorbed token), committed together.
	change graph.RuleChange
	method int32
	// invocations counts firings per method, feeding dynamic cost
	// models (§VII extension).
	invocations []int64
}

// Head implements graph.Heads: a data item's token is the zero token.
func (a *ruleAuto) Head(in int32) *token.Token {
	q := &a.qs[in]
	if q.len() == 0 {
		return nil
	}
	return &q.items[0].tok
}

func (a *ruleAuto) next(qs []queue, f *firing) bool {
	a.qs = qs
	act, change, ok := a.rule.Next(a, &a.state)
	if !ok {
		return false
	}
	a.change, a.method = change, act.Method
	if act.Method < 0 {
		in := &a.rule.Ins[act.In]
		tok := qs[act.In].items[0]
		f.label, f.cycles = "forward:"+tok.tok.String(), 1
		for _, g := range in.Group {
			f.consume[g]++
		}
		for _, o := range in.Fwd {
			f.emit(int(o), tok)
		}
		return true
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
		h, _ := qs[t.In].head()
		if !h.isTok || a.consumedBefore(rm.Trig[:i], h.tok) {
			continue
		}
		for _, o := range rm.Fwd {
			f.emit(int(o), h)
		}
	}
	return true
}

// consumedBefore reports whether tok heads the input of one of trig.
func (a *ruleAuto) consumedBefore(trig []graph.RuleTrigger, tok token.Token) bool {
	for _, t := range trig {
		if h, _ := a.qs[t.In].head(); h.isTok && h.tok == tok {
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

// bufferAuto is the count model of the window buffer (Buffer and
// ShareBuffer): each completed window, and each regenerated end of
// line, goes to every output.
type bufferAuto struct {
	plan         kernel.BufferPlan
	x, y         int
	pendX, pendY int
}

func (a *bufferAuto) next(qs []queue, f *firing) bool {
	it, ok := qs[0].head()
	if !ok {
		return false
	}
	f.consume[0], f.cycles = 1, fsmCycles
	a.pendX, a.pendY = a.x, a.y
	if it.isTok {
		switch it.tok.Kind {
		case token.EndOfLine:
			f.label = "eol"
			a.pendX, a.pendY = 0, a.y+1
		case token.EndOfFrame:
			f.label = "eof"
			f.emitAll(it)
			a.pendX, a.pendY = 0, 0
		default:
			f.label = "tok"
			f.emitAll(it)
		}
		return true
	}
	f.label = "sample"
	if emit, _, wy, rowEnd := a.plan.OnSample(a.x, a.y); emit {
		f.emitAll(dataItem(int64(a.plan.WinW) * int64(a.plan.WinH)))
		if rowEnd {
			f.emitAll(tokenItem(token.EOL(int64(wy / a.plan.StepY))))
		}
	}
	a.pendX = a.x + 1
	return true
}

func (a *bufferAuto) commit() { a.x, a.y = a.pendX, a.pendY }

// schedCursor is a position in a conn.Schedule: branch b has taken k
// items of its current turn.
type schedCursor struct{ b, k int }

func (c schedCursor) step(s conn.Schedule) schedCursor {
	if c.k++; c.k == s.Stride {
		c.k, c.b = 0, (c.b+1)%s.Ways
	}
	return c
}

// dealAuto deals data to the outputs on a strided round-robin schedule
// and broadcasts tokens (SplitRR is the stride-1 Scatter).
type dealAuto struct {
	sched     conn.Schedule
	cur, pend schedCursor
}

func (a *dealAuto) next(qs []queue, f *firing) bool {
	it, ok := qs[0].head()
	if !ok {
		return false
	}
	f.consume[0], f.cycles = 1, fsmCycles
	a.pend = a.cur
	if it.isTok {
		f.label = "broadcast"
		f.emitAll(it)
		return true
	}
	f.label = "split"
	f.emit(a.cur.b, it)
	a.pend = a.cur.step(a.sched)
	return true
}

func (a *dealAuto) commit() { a.cur = a.pend }

// collectAuto collects data from the inputs on the same schedule; a
// token must head every branch, at a schedule-cycle boundary, before it
// forwards once (JoinRR is the stride-1 Gather).
type collectAuto struct {
	sched     conn.Schedule
	cur, pend schedCursor
}

func (a *collectAuto) next(qs []queue, f *firing) bool {
	it, ok := qs[a.cur.b].head()
	if !ok {
		return false
	}
	f.cycles = fsmCycles
	a.pend = a.cur
	if !it.isTok {
		f.label = "join"
		f.consume[a.cur.b] = 1
		f.emit(0, it)
		a.pend = a.cur.step(a.sched)
		return true
	}
	if a.cur.k != 0 {
		return false // a token inside a stride run: malformed, stall visibly
	}
	for i := range qs {
		h, ok := qs[i].head()
		if !ok || !h.isTok || h.tok != it.tok {
			return false
		}
		f.consume[i] = 1
	}
	f.label = "token"
	f.emit(0, it)
	return true
}

func (a *collectAuto) commit() { a.cur = a.pend }

// splitColumnsAuto routes each sample of a row to the stripes covering
// its column, replicating overlap (Figure 10).
type splitColumnsAuto struct {
	stripes  []kernel.Stripe
	x, pendX int
}

func (a *splitColumnsAuto) next(qs []queue, f *firing) bool {
	it, ok := qs[0].head()
	if !ok {
		return false
	}
	f.consume[0], f.cycles = 1, fsmCycles
	a.pendX = a.x
	if it.isTok {
		f.label = "broadcast"
		if it.tok.Kind == token.EndOfLine || it.tok.Kind == token.EndOfFrame {
			a.pendX = 0
		}
		f.emitAll(it)
		return true
	}
	f.label = "route"
	for i, s := range a.stripes {
		if a.x >= s.InStart && a.x < s.InEnd {
			f.emit(i, it)
		}
	}
	a.pendX = a.x + 1
	return true
}

func (a *splitColumnsAuto) commit() { a.x = a.pendX }

// joinColumnsAuto drains each branch's row segment (counts[i] data then
// that branch's EOL) in branch order, emitting scan-order data with one
// regenerated EOL per row; EOF forwards once collected from every
// branch.
type joinColumnsAuto struct {
	counts []int
	branch int
	got    int
	row    int64

	pendBranch int
	pendGot    int
	pendRow    int64
}

func (a *joinColumnsAuto) next(qs []queue, f *firing) bool {
	cur := a.branch
	it, ok := qs[cur].head()
	if !ok {
		return false
	}
	a.pendBranch, a.pendGot, a.pendRow = a.branch, a.got, a.row
	f.cycles = fsmCycles
	if it.isTok {
		switch it.tok.Kind {
		case token.EndOfLine:
			if a.got != a.counts[cur] {
				return false // malformed stream; stall visibly
			}
			f.label = "eol"
			f.consume[cur] = 1
			if cur == len(a.counts)-1 {
				f.emit(0, tokenItem(token.EOL(a.row)))
				a.pendRow = a.row + 1
			}
			a.pendBranch = (cur + 1) % len(a.counts)
			a.pendGot = 0
			return true
		case token.EndOfFrame:
			if cur != 0 || a.got != 0 {
				return false
			}
			// Need EOF at every branch head.
			for i := range a.counts {
				h, ok := qs[i].head()
				if !ok || !h.isTok || h.tok.Kind != token.EndOfFrame {
					return false
				}
				f.consume[i] = 1
			}
			f.label = "eof"
			f.emit(0, it)
			a.pendRow = 0
			return true
		default:
			f.label = "tok"
			f.consume[cur] = 1
			f.emit(0, it)
			return true
		}
	}
	if a.got >= a.counts[cur] {
		return false // waiting for the branch's EOL
	}
	f.label = "join"
	f.consume[cur] = 1
	f.emit(0, it)
	a.pendGot = a.got + 1
	return true
}

func (a *joinColumnsAuto) commit() {
	a.branch, a.got, a.row = a.pendBranch, a.pendGot, a.pendRow
}

// replicateAuto broadcasts everything to every branch.
type replicateAuto struct{}

func (replicateAuto) next(qs []queue, f *firing) bool {
	it, ok := qs[0].head()
	if !ok {
		return false
	}
	f.label, f.consume[0], f.cycles = "replicate", 1, fsmCycles
	f.emitAll(it)
	return true
}

func (replicateAuto) commit() {}

// insetAuto trims the item grid per its plan.
type insetAuto struct {
	plan kernel.InsetPlan
	x, y int
	row  int64

	pendX, pendY int
	pendRow      int64
}

func (a *insetAuto) next(qs []queue, f *firing) bool {
	it, ok := qs[0].head()
	if !ok {
		return false
	}
	a.pendX, a.pendY, a.pendRow = a.x, a.y, a.row
	f.consume[0], f.cycles = 1, fsmCycles
	if it.isTok {
		switch it.tok.Kind {
		case token.EndOfLine:
			f.label = "eol"
			a.pendX, a.pendY = 0, a.y+1
		case token.EndOfFrame:
			f.label = "eof"
			f.emit(0, it)
			a.pendX, a.pendY, a.pendRow = 0, 0, 0
		default:
			f.label = "tok"
			f.emit(0, it)
		}
		return true
	}
	f.label = "inset"
	if keep, rowEnd := a.plan.Keep(a.x, a.y); keep {
		f.emit(0, it)
		if rowEnd {
			f.emit(0, tokenItem(token.EOL(a.row)))
			a.pendRow = a.row + 1
		}
	}
	a.pendX = a.x + 1
	return true
}

func (a *insetAuto) commit() { a.x, a.y, a.row = a.pendX, a.pendY, a.pendRow }

// padAuto grows the stream with zero items per its plan.
type padAuto struct {
	plan    kernel.PadPlan
	x, y    int
	row     int64
	topDone bool

	pendX, pendY int
	pendRow      int64
	pendTop      bool
}

// zeros emits n zero samples and, with eol, the end of the row.
func (a *padAuto) zeros(f *firing, n int, eol bool) {
	for i := 0; i < n; i++ {
		f.emit(0, dataItem(1))
	}
	if eol {
		f.emit(0, tokenItem(token.EOL(a.pendRow)))
		a.pendRow++
	}
}

func (a *padAuto) next(qs []queue, f *firing) bool {
	it, ok := qs[0].head()
	if !ok {
		return false
	}
	p := a.plan
	a.pendX, a.pendY, a.pendRow, a.pendTop = a.x, a.y, a.row, a.topDone
	f.consume[0], f.cycles = 1, fsmCycles
	if it.isTok {
		switch it.tok.Kind {
		case token.EndOfLine:
			f.label = "eol"
			a.zeros(f, p.R, true)
			a.pendX, a.pendY = 0, a.y+1
		case token.EndOfFrame:
			f.label = "eof"
			for i := 0; i < p.B; i++ {
				a.zeros(f, p.OutW(), true)
			}
			f.emit(0, it)
			a.pendX, a.pendY, a.pendRow, a.pendTop = 0, 0, 0, false
		default:
			f.label = "tok"
			f.emit(0, it)
		}
		return true
	}
	f.label = "pad"
	if !a.topDone {
		for i := 0; i < p.T; i++ {
			a.zeros(f, p.OutW(), true)
		}
		a.pendTop = true
	}
	if a.x == 0 {
		a.zeros(f, p.L, false)
	}
	f.emit(0, it)
	a.pendX = a.x + 1
	return true
}

func (a *padAuto) commit() {
	a.x, a.y, a.row, a.topDone = a.pendX, a.pendY, a.pendRow, a.pendTop
}

// feedbackAuto emits its initial items once, then passes through.
type feedbackAuto struct {
	initial int
	words   int64
	emitted bool
}

func (a *feedbackAuto) next(qs []queue, f *firing) bool {
	f.cycles = fsmCycles
	if !a.emitted {
		f.label = "init"
		for i := 0; i < a.initial; i++ {
			f.emit(0, dataItem(a.words))
		}
		return true
	}
	it, ok := qs[0].head()
	if !ok {
		return false
	}
	f.label, f.consume[0] = "pass", 1
	f.emit(0, it)
	return true
}

func (a *feedbackAuto) commit() { a.emitted = true }
