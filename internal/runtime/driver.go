package runtime

import (
	"fmt"

	"blockpar/internal/frame"
	"blockpar/internal/graph"
	"blockpar/internal/token"
)

// nodeDriver is how the executor runs a kernel over its input rings:
// decide under the inbox lock, act outside it, and retire what the
// action read at the next locked section. driver fires an Invoker by
// its lowered graph.Rule; stepper steps an FSM kernel's graph.Step.
// Both are the very rules the timing simulator steps.
type nodeDriver interface {
	// next retires the last action and decides the next; ok is false
	// when the kernel is quiescent. Called with the inbox lock held.
	next() (ok bool, err error)
	// run carries out the action decided, outside the lock.
	run() error
	// close retires the last action of a kernel that will act no more.
	close()
}

// drive runs d on the node's goroutine: act until quiescent, park for
// the next delivery, repeat. Once the inputs are exhausted it acts on
// whatever remains, then stops.
func (ex *executor) drive(ib *inbox, d nodeDriver) error {
	defer d.close()
	for {
		ib.mu.Lock()
		ok, err := d.next()
		for !ok && err == nil {
			if ib.closed || ex.stopped.Load() {
				ib.mu.Unlock()
				return nil
			}
			ib.park()
			ok, err = d.next()
		}
		ib.mu.Unlock()
		if err != nil {
			return err
		}
		if err := d.run(); err != nil {
			return err
		}
	}
}

// driver runs an Invoker kernel by the node's lowered firing rule over
// its input rings. One locked section per firing retires the previous
// firing's inputs and lets the rule pick the next action over the ring
// heads read in place; the method itself runs unlocked and reads its
// inputs in place in the ring slots, so an item is copied once, into
// its ring, on its whole way through a kernel.
type driver struct {
	ex   *executor
	pn   *planNode
	ib   *inbox
	inv  graph.Invoker
	rule *graph.Rule

	// ctx is reused across firings: a method invocation may not retain
	// its ExecContext.
	ctx invokeCtx

	// held is the method whose trigger heads ctx.in points at, -1 when
	// none; the next locked section retires those heads. released records
	// that the firing got far enough to give up their windows. n is the
	// held firing's logical count: the common prefix of its data heads.
	held     int32
	released bool
	n        int32

	// prefix holds, per trigger, the item a firing reads when it takes
	// only the first n windows of a wider batch head (see hold).
	prefix []graph.Item

	// tokScratch is the consumed-token buffer reused across firings; act
	// is the action next decided, and fwd the token a forward action took
	// off its group, for run to send.
	tokScratch []token.Token
	act        graph.RuleAction
	fwd        token.Token

	// state is the rule's frame index and configuration counts.
	state graph.RuleState
}

func newDriver(ex *executor, pn *planNode) *driver {
	d := &driver{
		ex: ex, pn: pn, ib: &ex.boxes[pn.id], inv: pn.invoker, rule: pn.rule,
		held:  -1,
		state: pn.rule.NewState(),
	}
	maxTrig := 0
	for i := range pn.rule.Methods {
		maxTrig = max(maxTrig, len(pn.rule.Methods[i].Trig))
	}
	d.ctx = invokeCtx{d: d, in: make([]*graph.Item, maxTrig)}
	d.prefix = make([]graph.Item, maxTrig)
	return d
}

// Head implements graph.Heads over the node's rings (a data item's Tok
// is the zero token).
func (ib *inbox) Head(in int32) *token.Token {
	r := &ib.rings[in]
	if r.Len() == 0 {
		return nil
	}
	return &r.Peek().Tok
}

// next retires the previous firing, lets the rule decide the next
// action and applies it: a method firing holds its trigger heads, a
// forwarded or absorbed token is dropped from its group's rings.
func (d *driver) next() (bool, error) {
	d.retire()
	act, change, ok := d.rule.Next(d.ib, &d.state)
	if !ok {
		return false, nil
	}
	d.state.Apply(change)
	d.act = act
	if act.Method >= 0 {
		d.hold(act.Method)
		return true, nil
	}
	d.fwd = d.ib.rings[act.In].Peek().Tok
	for _, g := range d.rule.Ins[act.In].Group {
		r := &d.ib.rings[g]
		r.Drop()
		d.ib.freed(r)
	}
	return true, nil
}

// hold points the invocation context at method mi's trigger heads,
// which stay in their rings until retire. The firing covers n logical
// invocations, the fewest windows any data head carries (tokens do not
// count); a head batching more lends the firing its first n windows as
// a prefix item holding one reference of its own, and keeps the rest.
// Heads on inputs that do not accept batches are single windows (the
// sender splits batches for them), so such a method fires once per
// window.
func (d *driver) hold(mi int32) {
	m := &d.rule.Methods[mi]
	n := int32(0)
	for i := range m.Trig {
		it := d.ib.rings[m.Trig[i].In].Peek()
		d.ctx.in[i] = it
		if w := int32(it.BatchN()); !it.IsToken && (n == 0 || w < n) {
			n = w
		}
	}
	n = max(n, 1)
	for i := range m.Trig {
		if it := d.ctx.in[i]; !it.IsToken && int32(it.BatchN()) > n {
			p := &d.prefix[i]
			*p = it.Windows(0, int(n))
			p.Win.Retain(1)
			d.ctx.in[i] = p
		}
	}
	d.ctx.m, d.ctx.trig = d.pn.node.Methods()[mi], m.Trig
	d.held, d.released, d.n = mi, false, n
}

// retire drops the slots the last firing read in place and wakes any
// producer waiting for the room; a head the firing took only a prefix
// of shrinks in place to its remaining windows instead. Called with
// ib.mu held.
func (d *driver) retire() {
	if d.held < 0 {
		return
	}
	for i := range d.ctx.trig {
		r := &d.ib.rings[d.ctx.trig[i].In]
		it := r.Peek()
		if p := &d.prefix[i]; d.ctx.in[i] == p {
			if !d.released {
				p.Win.Release()
			}
			*p = graph.Item{}
			*it = it.Windows(int(d.n), it.BatchN())
			continue
		}
		if !d.released && !it.IsToken {
			// The firing never finished (a kernel panic): the window is
			// still ours to give back.
			it.Win.Release()
		}
		r.Drop()
		d.ib.freed(r)
	}
	d.held = -1
}

// run carries out the action next picked: fire the method, or send the
// forwarded token on (an absorbed token has no outputs to go to).
func (d *driver) run() error {
	if d.act.Method >= 0 {
		return d.fire(d.act.Method)
	}
	for _, o := range d.rule.Ins[d.act.In].Fwd {
		d.ex.send(d.pn, o, graph.TokenItem(d.fwd))
	}
	return nil
}

// fire invokes the held method on its trigger heads and forwards any
// consumed control tokens to the method's outputs so frame structure
// follows the results downstream (e.g. the end-of-frame token follows
// the histogram's final counts to the merge kernel).
func (d *driver) fire(mi int32) error {
	ctx := &d.ctx
	tokens := d.tokScratch[:0]
	for i := range ctx.trig {
		if it := ctx.in[i]; it.IsToken {
			tokens = append(tokens, it.Tok)
		}
	}
	d.tokScratch = tokens
	// A batched firing stands for the n logical invocations hold chose.
	d.ib.fired[mi].Add(int64(d.n))
	err := d.inv.Invoke(ctx.m.Name, ctx)
	// The firing consumed its data inputs: release their pool
	// references. Anything the kernel emitted from shared storage was
	// re-retained by Emit, and anything it keeps across firings it must
	// Clone (ownership protocol, DESIGN.md "Memory model").
	for i := range ctx.trig {
		if it := ctx.in[i]; !it.IsToken {
			it.Win.Release()
		}
	}
	d.released = true
	if err != nil {
		return err
	}
	for _, tok := range dedupeTokens(tokens) {
		for _, o := range d.rule.Methods[mi].Fwd {
			d.ex.send(d.pn, o, graph.TokenItem(tok))
		}
	}
	return nil
}

// close retires the last firing of a kernel that will fire no more.
func (d *driver) close() {
	d.ib.mu.Lock()
	d.retire()
	d.ib.mu.Unlock()
}

// dedupeTokens compacts ts in place, keeping first occurrences.
func dedupeTokens(ts []token.Token) []token.Token {
	n := 0
	for _, t := range ts {
		dup := false
		for _, o := range ts[:n] {
			if o == t {
				dup = true
				break
			}
		}
		if !dup {
			ts[n] = t
			n++
		}
	}
	return ts[:n]
}

// invokeCtx implements graph.ExecContext for one method invocation:
// in[i] is the item consumed by trigger i of method m (trig[i] in the
// rule), read in place in its ring slot. Names resolve by scanning the
// method's own triggers and the node's outputs.
type invokeCtx struct {
	d    *driver
	m    *graph.Method
	trig []graph.RuleTrigger
	in   []*graph.Item
}

func (c *invokeCtx) item(name string) *graph.Item {
	for i := range c.m.Triggers {
		if c.m.Triggers[i].Input == name {
			return c.in[i]
		}
	}
	return nil
}

func (c *invokeCtx) Input(name string) frame.Window {
	it := c.item(name)
	if it == nil {
		panic(fmt.Sprintf("runtime: method on %q read input %q it was not triggered by",
			c.d.pn.node.Name(), name))
	}
	if it.IsToken {
		panic(fmt.Sprintf("runtime: method on %q read data from token-triggered input %q",
			c.d.pn.node.Name(), name))
	}
	return it.Win
}

func (c *invokeCtx) Token(name string) token.Token {
	it := c.item(name)
	if it == nil || !it.IsToken {
		return token.Token{}
	}
	return it.Tok
}

// out resolves an output name, panicking on a port the node lacks.
func (c *invokeCtx) out(name string) int32 {
	o := c.d.pn.outIndex(name)
	if o < 0 {
		panic(fmt.Sprintf("runtime: node %q has no output %q", c.d.pn.node.Name(), name))
	}
	return o
}

// passThrough gives a window emitted from an input's pooled storage its
// own reference, because the firing's inputs are released once Invoke
// returns.
func (c *invokeCtx) passThrough(w frame.Window) {
	if !w.Pooled() {
		return
	}
	for i := range c.trig {
		if it := c.in[i]; !it.IsToken && w.SharesStorage(it.Win) {
			w.Retain(1)
			return
		}
	}
}

func (c *invokeCtx) Emit(output string, w frame.Window) {
	o := c.out(output)
	c.passThrough(w)
	c.d.ex.send(c.d.pn, o, graph.DataItem(w))
}

func (c *invokeCtx) EmitToken(output string, t token.Token) {
	c.d.ex.send(c.d.pn, c.out(output), graph.TokenItem(t))
}

// Batch implements graph.BatchContext: the descriptor of the item
// consumed from the named input (zero for plain items and tokens).
func (c *invokeCtx) Batch(name string) graph.Batch {
	it := c.item(name)
	if it == nil || it.IsToken {
		return graph.Batch{}
	}
	return it.B
}

// EmitBatch implements graph.BatchContext: emit one batched data item.
// The same pass-through re-retain rule as Emit applies when the window
// shares an input's pooled storage.
func (c *invokeCtx) EmitBatch(output string, w frame.Window, b graph.Batch) {
	o := c.out(output)
	c.passThrough(w)
	c.d.ex.send(c.d.pn, o, graph.BatchItem(w, b))
}
