package runtime

import (
	"blockpar/internal/analysis"
	"blockpar/internal/graph"
)

// plan is the executable form of a validated graph, built once by
// newExecutor: dense node, port and method indices with every table the
// firing path consults already resolved, so delivering and firing an
// item performs no map operation and no name lookup beyond a scan of a
// method's own handful of port names (the name-based ExecContext API
// resolves through those tables). It is the same
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
	// invoker and rule are set for ordinary kernels: the behavior and
	// the node's lowered §II-C firing rule, whose port and method indices
	// are the plan's. step is set for FSM kernels instead.
	invoker graph.Invoker
	rule    *graph.Rule
	step    graph.Step

	ins  []planInput
	outs []planOutput

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
			if pn.step, _ = n.Behavior.(graph.Step); pn.step == nil {
				if pn.invoker, _ = n.Behavior.(graph.Invoker); pn.invoker != nil {
					pn.rule = graph.LowerRule(g, n)
				}
			}
		}
		pn.ins = make([]planInput, len(n.Inputs()))
		for k, p := range n.Inputs() {
			pn.ins[k] = planInput{name: p.Name, cap: caps(p)}
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
	return pl
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
