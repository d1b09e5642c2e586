package runtime

import (
	"fmt"

	"blockpar/internal/frame"
	"blockpar/internal/graph"
	"blockpar/internal/token"
)

// driver runs an Invoker kernel with the generic method-trigger rules
// described in the package comment, over the node's plan tables and
// input rings. One locked section per firing retires the previous
// firing's inputs, picks the next action and — when there is none —
// parks; the method itself runs unlocked and reads its inputs in place
// in the ring slots, so an item is copied once, into its ring, on its
// whole way through a kernel.
type driver struct {
	ex  *executor
	pn  *planNode
	ib  *inbox
	inv graph.Invoker

	// ctx is reused across firings: a method invocation may not retain
	// its ExecContext.
	ctx invokeCtx

	// held is the method whose trigger heads ctx.in points at, -1 when
	// none; the next locked section drops those slots. released records
	// that the firing got far enough to give up their windows.
	held     int32
	released bool

	// tokScratch is the consumed-token buffer reused across firings.
	tokScratch []token.Token

	// Configuration methods (all triggers on replicated inputs) are
	// frame-synchronized: each fires exactly once per frame, before
	// the frame's data methods. frameIdx counts end-of-frame tokens
	// consumed from non-replicated inputs; configFired counts firings
	// per config method (indexed like pn.config). A config method is
	// ready only while configFired == frameIdx, and data methods wait
	// until every config method has fired for the current frame. This
	// makes coefficient/bin reloads deterministic: the frame-f
	// configuration applies to frame f exactly.
	frameIdx    int64
	configFired []int64
}

// action is what one locked section decided to do next: fire method
// (>= 0), or forward tok — already popped from its group — to the
// outputs in input in's forwarding table, or nothing further (an
// absorbed token).
type action struct {
	method  int32
	forward bool
	in      int32
	tok     token.Token
}

func newDriver(ex *executor, pn *planNode) *driver {
	d := &driver{
		ex: ex, pn: pn, ib: &ex.boxes[pn.id], inv: pn.invoker,
		held:        -1,
		configFired: make([]int64, len(pn.config)),
	}
	maxTrig := 0
	for i := range pn.methods {
		maxTrig = max(maxTrig, len(pn.methods[i].trig))
	}
	d.ctx = invokeCtx{d: d, in: make([]*graph.Item, maxTrig)}
	return d
}

// loop drives the kernel on its own goroutine: fire until quiescent,
// park for the next delivery, repeat. Once the inputs are exhausted it
// fires whatever remains, then stops.
func (d *driver) loop() error {
	ib := d.ib
	for {
		ib.mu.Lock()
		act, ok := d.next()
		for !ok {
			if ib.closed || d.ex.stopped.Load() {
				ib.mu.Unlock()
				return nil
			}
			ib.park(anyInput)
			act, ok = d.next()
		}
		ib.mu.Unlock()
		if err := d.run(act); err != nil {
			return err
		}
	}
}

// next retires the previous firing and picks the next action, in
// priority order: configuration methods, token-triggered and data
// methods, then unhandled-token forwarding. ok is false when the
// kernel is quiescent. Called with ib.mu held.
func (d *driver) next() (act action, ok bool) {
	d.retire()
	for ci, mi := range d.pn.config {
		if d.configFired[ci] == d.frameIdx && d.ready(&d.pn.methods[mi]) {
			d.configFired[ci]++
			return d.hold(mi), true
		}
	}
	configured := true
	for _, fired := range d.configFired {
		if fired <= d.frameIdx {
			configured = false
			break
		}
	}
	for _, mi := range d.pn.other {
		m := &d.pn.methods[mi]
		if (configured || !m.data) && d.ready(m) {
			return d.hold(mi), true
		}
	}
	return d.forwardUnhandled()
}

// ready reports whether every trigger input's ring head matches.
func (d *driver) ready(m *planMethod) bool {
	for i := range m.trig {
		t := &m.trig[i]
		r := &d.ib.rings[t.in]
		if r.n == 0 {
			return false
		}
		it := r.peek()
		if t.tok == token.None {
			if it.IsToken {
				return false
			}
		} else if !it.IsToken || !it.Tok.Matches(t.tok, t.tokName) {
			return false
		}
	}
	return true
}

// hold points the invocation context at method mi's trigger heads,
// which stay in their rings until retire.
func (d *driver) hold(mi int32) action {
	m := &d.pn.methods[mi]
	for i := range m.trig {
		d.ctx.in[i] = d.ib.rings[m.trig[i].in].peek()
	}
	d.ctx.m = m
	d.held, d.released = mi, false
	return action{method: mi}
}

// retire drops the slots the last firing read in place and wakes any
// producer waiting for the room. Called with ib.mu held.
func (d *driver) retire() {
	if d.held < 0 {
		return
	}
	m := &d.pn.methods[d.held]
	for i := range m.trig {
		r := &d.ib.rings[m.trig[i].in]
		if it := r.peek(); !d.released && !it.IsToken {
			// The firing never finished (a kernel panic): the window is
			// still ours to give back.
			it.Win.Release()
		}
		r.drop()
		d.ib.freed(r)
	}
	d.held = -1
}

// forwardUnhandled handles control tokens no method consumes (paper
// §II-C): the token is forwarded to the outputs of the methods
// data-triggered by that input, once the same token heads every data
// input of those methods. Tokens on inputs whose methods have no
// outputs are absorbed. Both tables are precomputed (plan.go).
func (d *driver) forwardUnhandled() (action, bool) {
	rings := d.ib.rings
	for k := range d.pn.ins {
		in := &d.pn.ins[k]
		r := &rings[k]
		if r.n == 0 || !r.peek().IsToken {
			continue
		}
		tok := r.peek().Tok
		if in.consumes(tok) {
			continue // a token-triggered method will take it
		}
		if in.absorb {
			// Tokens arriving through a feedback loop have no defined
			// forwarding position.
			r.drop()
			d.ib.freed(r)
			return action{method: -1}, true
		}
		all := true
		for _, g := range in.group {
			gr := &rings[g]
			if gr.n == 0 || !gr.peek().IsToken || gr.peek().Tok != tok {
				all = false
				break
			}
		}
		if !all {
			continue
		}
		bump := false
		for _, g := range in.group {
			rings[g].drop()
			d.ib.freed(&rings[g])
			if tok.Kind == token.EndOfFrame && d.pn.ins[g].bumpsFrame {
				bump = true
			}
		}
		if bump {
			d.frameIdx++
		}
		return action{method: -1, forward: true, in: int32(k), tok: tok}, true
	}
	return action{}, false
}

// run carries out an action picked by next, outside the lock.
func (d *driver) run(act action) error {
	if act.method >= 0 {
		return d.fire(act.method)
	}
	if act.forward {
		for _, o := range d.pn.ins[act.in].fwd {
			d.ex.send(d.pn, o, graph.TokenItem(act.tok))
		}
	}
	return nil
}

// fire invokes the held method on its trigger heads and forwards any
// consumed control tokens to the method's outputs so frame structure
// follows the results downstream (e.g. the end-of-frame token follows
// the histogram's final counts to the merge kernel).
func (d *driver) fire(mi int32) error {
	m, ctx := &d.pn.methods[mi], &d.ctx
	tokens := d.tokScratch[:0]
	logical := int64(1)
	bump := false
	for i := range m.trig {
		it := ctx.in[i]
		if it.IsToken {
			tokens = append(tokens, it.Tok)
			if it.Tok.Kind == token.EndOfFrame && d.pn.ins[m.trig[i].in].bumpsFrame {
				bump = true
			}
		} else if n := int64(it.B.N); n > logical {
			// A batched firing stands for its batch's N logical
			// invocations (batch-aware kernels have a single data
			// trigger, so one batch determines the count).
			logical = n
		}
	}
	if bump {
		d.frameIdx++
	}
	d.tokScratch = tokens
	d.ib.fired[mi].Add(logical)
	err := d.inv.Invoke(m.name, ctx)
	// The firing consumed its data inputs: release their pool
	// references. Anything the kernel emitted from shared storage was
	// re-retained by Emit, and anything it keeps across firings it must
	// Clone (ownership protocol, DESIGN.md "Memory model").
	for i := range m.trig {
		if it := ctx.in[i]; !it.IsToken {
			it.Win.Release()
		}
	}
	d.released = true
	if err != nil {
		return err
	}
	for _, tok := range dedupeTokens(tokens) {
		for _, o := range m.fwd {
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
// in[i] is the item consumed by trigger i of method m, read in place in
// its ring slot. Names resolve by scanning the method's own triggers
// and the node's outputs.
type invokeCtx struct {
	d  *driver
	m  *planMethod
	in []*graph.Item
}

func (c *invokeCtx) item(name string) *graph.Item {
	for i := range c.m.trig {
		if c.m.trig[i].name == name {
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
	for i := range c.m.trig {
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
