// Package placement splits one compiled graph across a worker fleet:
// it retargets internal/mapping's packing and annealing (FleetAssign)
// to produce per-worker sub-graphs, validates the cut in the style of
// Delaval et al.'s automatic-distribution type system — every cut edge
// must be a well-typed FIFO with statically known rate and item size,
// and no dependency cycle may cross a cut — and emits a Plan the
// cluster dispatcher executes by opening one partition per worker and
// relaying the cut-edge item streams between them (see docs/cluster.md
// "Partitioned sessions").
package placement

import (
	"fmt"
	"sort"
	"strings"

	"blockpar/internal/analysis"
	"blockpar/internal/graph"
	"blockpar/internal/machine"
	"blockpar/internal/mapping"
)

// Plan is one executable split of a compiled graph: a node set per
// worker plus the cut edges between them. Partition indices are dense
// (empty targets are dropped) and cut-edge IDs are dense per plan.
type Plan struct {
	Partitions []Partition
	Cuts       []CutEdge
}

// Partition is the sub-graph one worker runs.
type Partition struct {
	// Target is the fleet target's name the partition packs onto.
	Target string
	// Nodes are the member node names, in graph order.
	Nodes []string
	// CyclesPerSec and MemWords are the partition's analysis-derived
	// demand, for observability and the bpc -plan rendering.
	CyclesPerSec float64
	MemWords     int64
}

// CutEdge is one graph edge severed by the plan: the producing port
// lives in partition From, the consuming port in partition To, and at
// run time the edge becomes a credit-windowed item stream relayed
// between the two workers.
type CutEdge struct {
	ID       uint32
	From, To int

	FromNode string
	FromPort string
	ToNode   string
	ToPort   string

	// WordsPerFrame is the edge's per-frame traffic from the analysis.
	WordsPerFrame int64
	// Credit is the edge's in-flight item window: how many items the
	// producer may have sent that the consumer has not yet taken, and
	// so the bound of the consumer's inbound ring. Every cut of a plan
	// gets the same window, 16 × max(64, the widest input frame's width)
	// items.
	Credit int
}

// EvenFleet builds n identical targets sized so the graph's total
// demand spreads across all of them: each target gets an equal share
// of the cycle demand (so the annealer balances instead of collapsing
// onto one worker) and enough memory to never be the constraint.
func EvenFleet(g *graph.Graph, r *analysis.Result, m machine.Machine, n int) []mapping.Target {
	var cycles float64
	var mem int64
	for _, nd := range g.Nodes() {
		l := r.LoadOf(nd, m)
		cycles += l.CyclesPerSec
		mem += l.MemWords
	}
	ts := make([]mapping.Target, n)
	for i := range ts {
		ts[i] = mapping.Target{
			Name:         fmt.Sprintf("w%d", i),
			CyclesPerSec: int64(cycles)/int64(n) + 1,
			MemWords:     mem + 1,
		}
	}
	return ts
}

// PlanGraph partitions the compiled graph g (with its analysis r,
// compiled for machine m) across the fleet and validates the result.
// A one-target fleet, or a graph whose co-location constraints
// collapse onto one target, yields a single-partition plan with no
// cuts — the caller should then run the session whole.
func PlanGraph(g *graph.Graph, r *analysis.Result, m machine.Machine, targets []mapping.Target, seed uint64) (*Plan, error) {
	a, err := mapping.FleetAssign(g, r, m, targets, seed)
	if err != nil {
		return nil, fmt.Errorf("placement: %w", err)
	}

	// Dense partition indices: drop targets that received nothing.
	usedTargets := make([]int, 0, len(targets))
	seen := make(map[int]bool)
	for _, n := range g.Nodes() {
		if t := a.PEOf[n]; !seen[t] {
			seen[t] = true
			usedTargets = append(usedTargets, t)
		}
	}
	sort.Ints(usedTargets)
	partOf := make(map[int]int, len(usedTargets))
	for i, t := range usedTargets {
		partOf[t] = i
	}

	p := &Plan{Partitions: make([]Partition, len(usedTargets))}
	nodePart := make(map[*graph.Node]int, len(a.PEOf))
	for i, t := range usedTargets {
		p.Partitions[i].Target = targets[t].Name
	}
	for _, n := range g.Nodes() {
		pi := partOf[a.PEOf[n]]
		nodePart[n] = pi
		part := &p.Partitions[pi]
		part.Nodes = append(part.Nodes, n.Name())
		l := r.LoadOf(n, m)
		part.CyclesPerSec += l.CyclesPerSec
		part.MemWords += l.MemWords
	}

	// Cut edges in graph order, each with a credit window of
	// 16 × max(64, the widest input frame's width) items — a fixed
	// rule, not derived from the edge's rate or from the runtime's
	// plan-time ring capacities.
	credit := 64
	for _, in := range g.Inputs() {
		if in.FrameSize.W > credit {
			credit = in.FrameSize.W
		}
	}
	credit *= 16
	for _, e := range g.Edges() {
		pf, pt := nodePart[e.From.Node()], nodePart[e.To.Node()]
		if pf == pt {
			continue
		}
		var words int64
		if info, ok := r.Out[e.From]; ok {
			words = info.WordsPerFrame()
		}
		p.Cuts = append(p.Cuts, CutEdge{
			ID:            uint32(len(p.Cuts)),
			From:          pf,
			To:            pt,
			FromNode:      e.From.Node().Name(),
			FromPort:      e.From.Name,
			ToNode:        e.To.Node().Name(),
			ToPort:        e.To.Name,
			WordsPerFrame: words,
			Credit:        credit,
		})
	}

	if err := p.Validate(g, r); err != nil {
		return nil, err
	}
	return p, nil
}

// Validate is the Delaval-style soundness check a plan must pass
// before the dispatcher ships it:
//
//   - total coverage: every node is in exactly one partition, and
//     every name resolves in the graph;
//   - well-typed cuts: every cut edge corresponds to a real graph edge
//     whose producing port has analysis information — a FIFO with
//     known rate and item size — and positive traffic bounds;
//   - no dependency cycle crosses a cut: dependence-edge endpoints are
//     co-located and the partition quotient over all stream and
//     dependence edges is acyclic, so a cut is crossed in one
//     direction only.
func (p *Plan) Validate(g *graph.Graph, r *analysis.Result) error {
	nodePart := make(map[string]int)
	for pi, part := range p.Partitions {
		for _, name := range part.Nodes {
			if g.Node(name) == nil {
				return fmt.Errorf("placement: plan names unknown node %q", name)
			}
			if prev, dup := nodePart[name]; dup {
				return fmt.Errorf("placement: node %q in partitions %d and %d", name, prev, pi)
			}
			nodePart[name] = pi
		}
	}
	for _, n := range g.Nodes() {
		if _, ok := nodePart[n.Name()]; !ok {
			return fmt.Errorf("placement: node %q not placed", n.Name())
		}
	}
	for _, d := range g.Deps() {
		if nodePart[d.From.Name()] != nodePart[d.To.Name()] {
			return fmt.Errorf("placement: dependence %s -> %s crosses partitions",
				d.From.Name(), d.To.Name())
		}
	}
	// Windowed-sharing groups pass arena references into one ring; a cut
	// through the group would hand a worker a reference to memory it does
	// not hold. Broadcast fan-out, by contrast, may span partitions: each
	// cut consumer gets its own relayed item stream.
	sharePart := make(map[string]int)
	for _, n := range g.Nodes() {
		name := n.Attrs["share"]
		if name == "" {
			continue
		}
		if prev, ok := sharePart[name]; ok && prev != nodePart[n.Name()] {
			return fmt.Errorf("placement: share group %q split across partitions %d and %d (node %q)",
				name, prev, nodePart[n.Name()], n.Name())
		}
		sharePart[name] = nodePart[n.Name()]
	}

	// Index the plan's cuts and check each against the graph and the
	// analysis: a cut with no typing information cannot become a wire
	// stream, because the receiver could not size or pace it.
	type cutKey struct{ fn, fp, tn, tp string }
	cuts := make(map[cutKey]CutEdge, len(p.Cuts))
	for _, c := range p.Cuts {
		if c.From == c.To {
			return fmt.Errorf("placement: cut %d does not cross partitions", c.ID)
		}
		if c.Credit <= 0 {
			return fmt.Errorf("placement: cut %d has no credit window", c.ID)
		}
		cuts[cutKey{c.FromNode, c.FromPort, c.ToNode, c.ToPort}] = c
	}
	adj := make(map[int]map[int]bool)
	link := func(f, t int) {
		if f == t {
			return
		}
		if adj[f] == nil {
			adj[f] = make(map[int]bool)
		}
		adj[f][t] = true
	}
	for _, e := range g.Edges() {
		pf, pt := nodePart[e.From.Node().Name()], nodePart[e.To.Node().Name()]
		k := cutKey{e.From.Node().Name(), e.From.Name, e.To.Node().Name(), e.To.Name}
		c, isCut := cuts[k]
		if pf == pt {
			if isCut {
				return fmt.Errorf("placement: cut %d severs intra-partition edge %s.%s -> %s.%s",
					c.ID, k.fn, k.fp, k.tn, k.tp)
			}
			continue
		}
		if !isCut {
			return fmt.Errorf("placement: edge %s.%s -> %s.%s crosses partitions %d -> %d with no cut entry",
				k.fn, k.fp, k.tn, k.tp, pf, pt)
		}
		if c.From != pf || c.To != pt {
			return fmt.Errorf("placement: cut %d direction %d -> %d does not match partitions %d -> %d",
				c.ID, c.From, c.To, pf, pt)
		}
		info, ok := r.Out[e.From]
		if !ok {
			return fmt.Errorf("placement: cut %d edge %s.%s has no analysis type (rate/size unknown)",
				c.ID, k.fn, k.fp)
		}
		if info.ItemSize.Area() <= 0 || info.Items.Area() <= 0 {
			return fmt.Errorf("placement: cut %d edge %s.%s has degenerate FIFO type %v items of %v",
				c.ID, k.fn, k.fp, info.Items, info.ItemSize)
		}
		delete(cuts, k)
		link(pf, pt)
	}
	for k, c := range cuts {
		return fmt.Errorf("placement: cut %d names missing edge %s.%s -> %s.%s", c.ID, k.fn, k.fp, k.tn, k.tp)
	}
	for _, d := range g.Deps() {
		link(nodePart[d.From.Name()], nodePart[d.To.Name()])
	}
	if cyclic(adj, len(p.Partitions)) {
		return fmt.Errorf("placement: partition quotient has a cycle — a dependency crosses a cut twice")
	}
	return nil
}

// cyclic detects a cycle in the partition quotient.
func cyclic(adj map[int]map[int]bool, n int) bool {
	color := make([]int, n)
	var dfs func(int) bool
	dfs = func(v int) bool {
		color[v] = 1
		for w := range adj[v] {
			if color[w] == 1 {
				return true
			}
			if color[w] == 0 && dfs(w) {
				return true
			}
		}
		color[v] = 2
		return false
	}
	for v := 0; v < n; v++ {
		if color[v] == 0 && dfs(v) {
			return true
		}
	}
	return false
}

// String renders the plan for bpc -plan and debug logs: one block per
// partition with its demand, then the cut edges with their traffic and
// credit windows.
func (p *Plan) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "placement: %d partition(s), %d cut edge(s)\n", len(p.Partitions), len(p.Cuts))
	for i, part := range p.Partitions {
		fmt.Fprintf(&b, "  partition %d -> %s: %d node(s), %.0f cycles/s, %d words\n",
			i, part.Target, len(part.Nodes), part.CyclesPerSec, part.MemWords)
		fmt.Fprintf(&b, "    %s\n", strings.Join(part.Nodes, ", "))
	}
	for _, c := range p.Cuts {
		fmt.Fprintf(&b, "  cut %d: %s.%s -> %s.%s  [%d -> %d]  %d words/frame, credit %d\n",
			c.ID, c.FromNode, c.FromPort, c.ToNode, c.ToPort, c.From, c.To, c.WordsPerFrame, c.Credit)
	}
	return b.String()
}
