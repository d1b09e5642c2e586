package graph

import "blockpar/internal/token"

// Rule is an ordinary kernel's §II-C firing rule lowered to index
// tables: inputs, outputs and methods are addressed by their position
// in Node.Inputs, Node.Outputs and Node.Methods. LowerRule builds it
// once per node; the functional runtime's driver and the timing
// simulator both step it with Next, so the two engines fire a kernel by
// one rule and cannot drift apart.
type Rule struct {
	Methods []RuleMethod
	// Config and Other partition the method indices by firing priority:
	// frame-synchronized configuration methods (every trigger on a
	// replicated input) first, then the rest, each in declaration order.
	Config, Other []int32
	Ins           []RuleInput
}

// RuleMethod is one method's trigger and token-forwarding table.
type RuleMethod struct {
	Trig []RuleTrigger
	// Fwd lists the outputs that receive the tokens a firing consumed:
	// the method's Outputs, then its ForwardOnly ports.
	Fwd []int32
	// Data: some trigger fires on data, so the method waits for the
	// frame's configuration methods.
	Data bool
}

// RuleTrigger matches the head of input In: a data item when Tok is
// token.None, else a token of kind Tok (and, for custom tokens, name
// TokName).
type RuleTrigger struct {
	In      int32
	Tok     token.Kind
	TokName string
}

// RuleInput is one input's token table. Handled lists the token
// triggers methods have on this input; any other token is forwarded to
// Fwd once it heads every input of Group ("in the case where two inputs
// trigger the same method, the same control token must arrive on both
// inputs for it to be passed to the output"). Absorb marks a
// feedback-fed input: control tokens cannot travel around a loop (its
// first token would have to produce itself), so an unhandled token
// there has no forwarding position and is dropped alone — Group is the
// input itself and Fwd is empty (§III-D). BumpsFrame: an end-of-frame
// consumed here advances the frame index (the input is not replicated).
type RuleInput struct {
	Handled    []RuleTrigger
	Group, Fwd []int32
	Absorb     bool
	BumpsFrame bool
}

// Heads is the view of a node's input queues the rule reads: the token
// of the item at the head of input in, read in place — the zero token
// (kind token.None) for a data item — or nil when the queue is empty.
type Heads interface {
	Head(in int32) *token.Token
}

// RuleState is what the rule remembers between firings. Configuration
// methods are frame-synchronized: each fires exactly once per frame,
// before the frame's data methods, so the frame-f configuration applies
// to frame f exactly. Frame counts end-of-frame tokens consumed from
// non-replicated inputs; ConfigFired counts firings per configuration
// method (indexed like Rule.Config).
type RuleState struct {
	Frame       int64
	ConfigFired []int64
}

// RuleAction is one decision of Next: fire Method (>= 0) on its trigger
// heads, or — Method < 0 — take the token heading input In off the
// heads of In's Group and forward it to In's Fwd outputs.
type RuleAction struct {
	Method, In int32
}

// RuleChange is the state change an action implies. Next only decides;
// Apply commits, so a caller can still refuse the action (the simulator
// does when an output queue lacks room).
type RuleChange struct {
	// Config is the index into Rule.Config of the configuration method
	// fired, or -1.
	Config int32
	// Bump: the action consumes an end-of-frame from a non-replicated
	// input.
	Bump bool
}

// NewState returns the rule's state before the first firing.
func (r *Rule) NewState() RuleState {
	return RuleState{ConfigFired: make([]int64, len(r.Config))}
}

// Apply commits the state change of an action taken.
func (s *RuleState) Apply(c RuleChange) {
	if c.Config >= 0 {
		s.ConfigFired[c.Config]++
	}
	if c.Bump {
		s.Frame++
	}
}

// LowerRule lowers n's methods, as connected in g, into its firing
// rule. Every trigger and output name resolves: method registration
// only accepts ports the node has.
func LowerRule(g *Graph, n *Node) *Rule {
	ins, outs := n.Inputs(), n.Outputs()
	r := &Rule{Methods: make([]RuleMethod, len(n.methods)), Ins: make([]RuleInput, len(ins))}
	for k, p := range ins {
		e := g.EdgeTo(p)
		r.Ins[k] = RuleInput{BumpsFrame: !p.Replicated, Absorb: e != nil && e.From.node.Kind == KindFeedback}
	}
	// Loop outputs never receive forwarded tokens (§III-D).
	loopOut := make([]bool, len(outs))
	for o, p := range outs {
		for _, e := range g.EdgesFrom(p) {
			loopOut[o] = loopOut[o] || e.To.node.Kind == KindFeedback
		}
	}

	for mi, m := range n.methods {
		rm := &r.Methods[mi]
		config := len(m.Triggers) > 0
		for _, t := range m.Triggers {
			tr := RuleTrigger{In: portIndex(ins, t.Input), Tok: t.Token, TokName: t.TokenName}
			rm.Trig = append(rm.Trig, tr)
			config = config && ins[tr.In].Replicated
			if t.IsData() {
				rm.Data = true
			} else {
				r.Ins[tr.In].Handled = append(r.Ins[tr.In].Handled, tr)
			}
		}
		for _, names := range [][]string{m.Outputs, m.ForwardOnly} {
			for _, name := range names {
				rm.Fwd = append(rm.Fwd, portIndex(outs, name))
			}
		}
		if config {
			r.Config = append(r.Config, int32(mi))
		} else {
			r.Other = append(r.Other, int32(mi))
		}
	}

	// Forwarding groups: an unhandled token on input k is forwarded to
	// the outputs of the methods data-triggered by k, once it heads every
	// data input of those methods.
	for k := range r.Ins {
		in := &r.Ins[k]
		if in.Absorb {
			in.Group = []int32{int32(k)}
			continue
		}
		inGroup, toOut := make([]bool, len(ins)), make([]bool, len(outs))
		inGroup[k] = true
		for mi, m := range n.methods {
			rm := &r.Methods[mi]
			if !rm.dataOn(int32(k)) {
				continue
			}
			for _, t := range rm.Trig {
				if t.Tok == token.None && !r.Ins[t.In].Absorb {
					inGroup[t.In] = true
				}
			}
			for _, o := range rm.Fwd[:len(m.Outputs)] {
				if !loopOut[o] {
					toOut[o] = true
				}
			}
		}
		in.Group, in.Fwd = trueIndices(inGroup), trueIndices(toOut)
	}
	return r
}

func (m *RuleMethod) dataOn(in int32) bool {
	for _, t := range m.Trig {
		if t.Tok == token.None && t.In == in {
			return true
		}
	}
	return false
}

func portIndex(ports []*Port, name string) int32 {
	for i, p := range ports {
		if p.Name == name {
			return int32(i)
		}
	}
	return -1
}

func trueIndices(set []bool) []int32 {
	var out []int32
	for i, ok := range set {
		if ok {
			out = append(out, int32(i))
		}
	}
	return out
}

// Next decides the kernel's next action from its queue heads, in
// priority order: configuration methods, synchronized to the frame;
// token and data methods, data methods only once the frame is
// configured; then an unhandled token, forwarded once it heads its
// whole group or absorbed on a loop input. ok is false when nothing can
// fire. Next reads h and s and changes neither.
func (r *Rule) Next(h Heads, s *RuleState) (act RuleAction, change RuleChange, ok bool) {
	for ci, mi := range r.Config {
		if s.ConfigFired[ci] != s.Frame {
			continue
		}
		// Configuration triggers are all replicated: no frame bump.
		if ready, _ := r.match(h, &r.Methods[mi]); ready {
			return RuleAction{Method: mi}, RuleChange{Config: int32(ci)}, true
		}
	}
	configured := true
	for _, fired := range s.ConfigFired {
		if fired <= s.Frame {
			configured = false
			break
		}
	}
	for _, mi := range r.Other {
		m := &r.Methods[mi]
		if !configured && m.Data {
			continue
		}
		if ready, bump := r.match(h, m); ready {
			return RuleAction{Method: mi}, RuleChange{Config: -1, Bump: bump}, true
		}
	}
	return r.unhandled(h)
}

// match reports whether every trigger of m matches its input's head,
// and whether firing m consumes an end-of-frame that bumps the frame.
func (r *Rule) match(h Heads, m *RuleMethod) (ready, bump bool) {
	for i := range m.Trig {
		t := &m.Trig[i]
		tok := h.Head(t.In)
		if tok == nil || tok.Kind != t.Tok || (t.Tok == token.Custom && tok.Name != t.TokName) {
			return false, false
		}
		bump = bump || (tok.Kind == token.EndOfFrame && r.Ins[t.In].BumpsFrame)
	}
	return true, bump
}

// unhandled finds a control token no method consumes that can move.
func (r *Rule) unhandled(h Heads) (RuleAction, RuleChange, bool) {
next:
	for k := range r.Ins {
		in := &r.Ins[k]
		tok := h.Head(int32(k))
		if tok == nil || tok.Kind == token.None || in.handles(tok) {
			continue
		}
		act := RuleAction{Method: -1, In: int32(k)}
		if in.Absorb {
			return act, RuleChange{Config: -1}, true
		}
		bump := false
		for _, g := range in.Group {
			if gt := h.Head(g); gt == nil || *gt != *tok {
				continue next
			}
			bump = bump || (tok.Kind == token.EndOfFrame && r.Ins[g].BumpsFrame)
		}
		return act, RuleChange{Config: -1, Bump: bump}, true
	}
	return RuleAction{Method: -1}, RuleChange{Config: -1}, false
}

// handles reports whether a token-triggered method takes tok.
func (in *RuleInput) handles(tok *token.Token) bool {
	for i := range in.Handled {
		if tok.Matches(in.Handled[i].Tok, in.Handled[i].TokName) {
			return true
		}
	}
	return false
}
