package runtime

import (
	"blockpar/internal/analysis"
	"blockpar/internal/graph"
	"blockpar/internal/token"
)

// plan is the executable form of a validated graph, built once by
// newExecutor: dense node, port and method indices with every table the
// firing path consults already resolved, so delivering and firing an
// item performs no map operation and no name lookup beyond a scan of a
// method's own handful of port names (the name-based ExecContext and
// RunContext APIs resolve through those tables). It is the same
// lowering to fixed actor/FIFO tables the compiler's analysis assumes:
// the runtime discovers nothing per item.
type plan struct {
	nodes []planNode
	// inputs and outputs list the application input and output nodes in
	// graph order; planNode.io is a node's position in its list.
	inputs, outputs []int32
}

type planNode struct {
	node *graph.Node
	id   int32
	io   int
	// invoker is non-nil for kernels fired by the generic method-trigger
	// driver.
	invoker graph.Invoker

	ins     []planInput
	outs    []planOutput
	methods []planMethod
	// config and other partition the method indices by firing priority:
	// frame-synchronized configuration methods first (see driver).
	config, other []int32

	// producers counts the distinct upstream nodes; consumers lists the
	// distinct downstream ones. Both drive inbox closing.
	producers int
	consumers []int32
}

type planInput struct {
	name string
	// cap is the ring capacity (see ringCap).
	cap int
	// producer is the upstream node; edge its delivery record (a
	// validated graph connects every input).
	producer int32
	edge     *planEdge
	// bumpsFrame: an end-of-frame consumed here advances the driver's
	// frame index (the input is not replicated).
	bumpsFrame bool

	// Token forwarding (§II-C), resolved for driver-run kernels.
	// handled lists the tokens some method consumes on this input;
	// anything else is forwarded once it heads every input of group, to
	// fwd. absorb marks a feedback-fed input, whose unhandled tokens
	// have no forwarding position and are dropped (§III-D).
	handled []tokenMatch
	group   []int32
	fwd     []int32
	absorb  bool
}

type tokenMatch struct {
	kind token.Kind
	name string
}

// consumes reports whether a token-triggered method takes tok.
func (in *planInput) consumes(tok token.Token) bool {
	for _, h := range in.handled {
		if tok.Matches(h.kind, h.name) {
			return true
		}
	}
	return false
}

type planOutput struct {
	name  string
	edges []planEdge
}

// planEdge is one fan-out delivery: the consumer's node and input ring.
type planEdge struct {
	node, in int32
	// batchOK: the consumer takes row batches whole; elsewhere send
	// splits a batch into its logical view items.
	batchOK bool
}

type planMethod struct {
	name string
	trig []planTrigger
	// fwd lists the outputs that receive the tokens a firing consumed:
	// the method's Outputs, then its ForwardOnly ports.
	fwd []int32
	// data: some trigger fires on data, so the method waits for the
	// frame's configuration methods.
	data bool
}

type planTrigger struct {
	name string
	in   int32
	// tok is token.None for a data trigger.
	tok     token.Kind
	tokName string
}

func (pn *planNode) inIndex(name string) int32 {
	for i := range pn.ins {
		if pn.ins[i].name == name {
			return int32(i)
		}
	}
	return -1
}

func (pn *planNode) outIndex(name string) int32 {
	for i := range pn.outs {
		if pn.outs[i].name == name {
			return int32(i)
		}
	}
	return -1
}

// buildPlan lowers g. ringCap > 0 overrides every ring's capacity.
func buildPlan(g *graph.Graph, ringCap int) *plan {
	nodes := g.Nodes()
	pl := &plan{nodes: make([]planNode, len(nodes))}
	ids := make(map[*graph.Node]int32, len(nodes))
	for i, n := range nodes {
		ids[n] = int32(i)
	}
	caps := ringCaps(g, ringCap)

	for i, n := range nodes {
		pn := &pl.nodes[i]
		pn.node, pn.id = n, int32(i)
		switch n.Kind {
		case graph.KindInput:
			pn.io = len(pl.inputs)
			pl.inputs = append(pl.inputs, pn.id)
		case graph.KindOutput:
			pn.io = len(pl.outputs)
			pl.outputs = append(pl.outputs, pn.id)
		default:
			if _, runner := graph.RunnerBehavior(n); !runner {
				pn.invoker, _ = n.Behavior.(graph.Invoker)
			}
		}
		pn.ins = make([]planInput, len(n.Inputs()))
		for k, p := range n.Inputs() {
			pn.ins[k] = planInput{name: p.Name, cap: caps(p), bumpsFrame: !p.Replicated}
		}
		pn.outs = make([]planOutput, len(n.Outputs()))
		for k, p := range n.Outputs() {
			pn.outs[k].name = p.Name
		}
	}

	// Edges, in graph order per output port (the order send fans out in).
	for _, e := range g.Edges() {
		from, to := &pl.nodes[ids[e.From.Node()]], &pl.nodes[ids[e.To.Node()]]
		out := &from.outs[from.outIndex(e.From.Name)]
		out.edges = append(out.edges, planEdge{
			node: to.id, in: to.inIndex(e.To.Name), batchOK: acceptsBatch(e),
		})
	}
	for i := range pl.nodes {
		from := &pl.nodes[i]
		seen := make(map[int32]bool)
		for o := range from.outs {
			for k := range from.outs[o].edges {
				e := &from.outs[o].edges[k]
				in := &pl.nodes[e.node].ins[e.in]
				in.producer, in.edge = from.id, e
				if !seen[e.node] {
					seen[e.node] = true
					from.consumers = append(from.consumers, e.node)
					pl.nodes[e.node].producers++
				}
			}
		}
	}

	for i := range pl.nodes {
		if pn := &pl.nodes[i]; pn.invoker != nil {
			pl.lowerMethods(pn)
		}
	}
	return pl
}

// lowerMethods resolves a driver-run kernel's trigger, output and
// token-forwarding tables.
func (pl *plan) lowerMethods(pn *planNode) {
	n := pn.node
	// Control tokens cannot travel around a feedback loop (the loop's
	// first token would have to produce itself), so loop inputs are
	// excluded from forwarding groups and loop outputs never receive
	// forwarded tokens (§III-D).
	loopOut := make([]bool, len(pn.outs))
	for o := range pn.outs {
		for _, e := range pn.outs[o].edges {
			if pl.nodes[e.node].node.Kind == graph.KindFeedback {
				loopOut[o] = true
			}
		}
	}
	for k := range pn.ins {
		in := &pn.ins[k]
		in.absorb = pl.nodes[in.producer].node.Kind == graph.KindFeedback
	}

	pn.methods = make([]planMethod, len(n.Methods()))
	for mi, m := range n.Methods() {
		pm := &pn.methods[mi]
		pm.name = m.Name
		// Method registration only accepts ports the node has, so every
		// name below resolves.
		config := len(m.Triggers) > 0
		for _, t := range m.Triggers {
			in := pn.inIndex(t.Input)
			pm.trig = append(pm.trig, planTrigger{name: t.Input, in: in, tok: t.Token, tokName: t.TokenName})
			if !n.Input(t.Input).Replicated {
				config = false
			}
			if t.IsData() {
				pm.data = true
			} else {
				pn.ins[in].handled = append(pn.ins[in].handled, tokenMatch{t.Token, t.TokenName})
			}
		}
		for _, names := range [][]string{m.Outputs, m.ForwardOnly} {
			for _, name := range names {
				pm.fwd = append(pm.fwd, pn.outIndex(name))
			}
		}
		if config {
			pn.config = append(pn.config, int32(mi))
		} else {
			pn.other = append(pn.other, int32(mi))
		}
	}

	// Forwarding groups: an unhandled token on input k is forwarded to
	// the outputs of the methods data-triggered by k, once it heads
	// every data input of those methods ("in the case where two inputs
	// trigger the same method, the same control token must arrive on
	// both inputs for it to be passed to the output").
	for k := range pn.ins {
		in := &pn.ins[k]
		if in.absorb {
			continue
		}
		inGroup := make([]bool, len(pn.ins))
		toOut := make([]bool, len(pn.outs))
		inGroup[k] = true
		for mi := range pn.methods {
			pm := &pn.methods[mi]
			dataOnK := false
			for _, t := range pm.trig {
				if t.tok == token.None && t.in == int32(k) {
					dataOnK = true
				}
			}
			if !dataOnK {
				continue
			}
			for _, t := range pm.trig {
				if t.tok == token.None && !pn.ins[t.in].absorb {
					inGroup[t.in] = true
				}
			}
			for _, name := range n.Methods()[mi].Outputs {
				if o := pn.outIndex(name); !loopOut[o] {
					toOut[o] = true
				}
			}
		}
		for i, ok := range inGroup {
			if ok {
				in.group = append(in.group, int32(i))
			}
		}
		for o, ok := range toOut {
			if ok {
				in.fwd = append(in.fwd, int32(o))
			}
		}
	}
}

// ringCaps returns the ring-capacity rule for g's input ports.
//
// Ring capacity. A ring holds whole rows of its edge's stream: a row is
// Items.W items (the per-edge item grid the analysis computed, capped
// at the widest application input for streams a round-robin split has
// flattened) plus its end-of-line token. Every ring gets four rows of
// elasticity — the depth the runtime's per-node inbox has always had,
// now spent per edge at the edge's own rate, so an input carrying a
// hundredth of a stream holds a hundredth of the slots. On a node with
// several inputs the ring must also absorb the skew between them, and
// the analysis bounds it: the streams arriving at one node are aligned
// to a common inset i (§III-C inserts the inset and pad kernels that
// make it so); a path reaches inset i by consuming between i rows (a
// pure trim) and 2i rows (a window's top and bottom halo, held in its
// §III-B buffer) of the application input before its first item; so
// two inputs of the node differ by at most i rows of latency. Hence
//
//	cap = (min(Items.W, maxW) + 1) · (4 + ⌈|Inset.Y|⌉)
//
// with the inset term on multi-input nodes only, and 4·maxW where the
// analysis has no shape for the port. The rule is checked, not trusted:
// Stats reports every ring's high-water mark against this capacity, and
// if a graph's real skew exceeds it the deadlock detector
// (executor.unwedge) grows the ring rather than hang.
func ringCaps(g *graph.Graph, ringCap int) func(*graph.Port) int {
	if ringCap > 0 {
		return func(*graph.Port) int { return ringCap }
	}
	maxW := 64
	for _, in := range g.Inputs() {
		maxW = max(maxW, in.FrameSize.W)
	}
	// A graph the analysis cannot type (hand-built test graphs, a
	// partition whose boundary sources carry no stream shape) runs on
	// the untyped bound.
	res, err := analysis.Analyze(g)
	return func(p *graph.Port) int {
		info, ok := analysis.PortInfo{}, false
		if err == nil {
			info, ok = res.In[p]
		}
		if !ok || info.Items.W < 1 {
			return 4 * maxW
		}
		rows := 4
		if len(p.Node().Inputs()) > 1 {
			inset := info.Inset.Y
			if inset.Num < 0 {
				inset = inset.Neg()
			}
			rows += int(inset.Ceil())
		}
		return (min(info.Items.W, maxW) + 1) * rows
	}
}
