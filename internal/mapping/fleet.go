package mapping

import (
	"errors"
	"fmt"
	"math"
	"sort"

	"blockpar/internal/analysis"
	"blockpar/internal/graph"
	"blockpar/internal/machine"
)

// This file retargets the mapping machinery from PEs to a worker
// fleet: a Target is one worker process's capacity instead of one
// processing element, and FleetAssign splits a compiled graph into one
// node set per worker. The same analysis-derived demand (cycles/sec
// and memory words) drives the packing, and the same annealing energy
// trade (communication vs. load balance, energy.go) refines it —
// except that here a cut edge becomes a network stream, so the
// assignment additionally guarantees the cuts are executable: feedback
// cycles and dependence-constrained node pairs never straddle a cut,
// and the partition-level quotient graph stays acyclic.

// Target describes one worker in a fleet: a capacity budget expressed
// in the same units as analysis.Load, so the packer can reuse the
// per-node demand numbers unchanged.
type Target struct {
	Name string
	// CyclesPerSec is the worker's compute budget. Exceeding it makes
	// the worker the pipeline's bottleneck but is not an error; the
	// annealer penalizes overload and balances it away when it can.
	CyclesPerSec int64
	// MemWords is the worker's storage budget — a hard constraint.
	MemWords int64
}

// ErrInfeasible reports a fleet that cannot hold the graph at all: a
// co-location group larger than every target's memory, or total demand
// exceeding total fleet memory. Callers must not retry a bigger anneal
// budget on it; only more or bigger workers help.
var ErrInfeasible = errors.New("mapping: graph does not fit fleet")

// FleetAssign partitions a compiled graph across a worker fleet. The
// returned Assignment maps every node (including application inputs
// and outputs, which the owning worker feeds and collects) to a target
// index; NumPEs is len(targets), and targets may end up empty.
//
// The split is sound by construction:
//
//   - Nodes connected by dependence edges share a target, and so does
//     every strongly-connected component of the stream graph (a
//     feedback loop must run within one worker's mailbox plane).
//   - The quotient graph over targets is acyclic, so cut-edge streams
//     flow strictly forward and no dependency cycle crosses a cut.
//   - A target's memory budget is never exceeded; an impossible fit
//     returns ErrInfeasible.
//
// The initial assignment packs co-location groups in topological order
// (one target at a time, so a single-target fleet trivially reproduces
// the whole-session placement), then simulated annealing — the same
// deterministic xorshift schedule as Anneal — trades cut-edge traffic
// against load balance, both in cycles/sec. Deterministic per seed.
func FleetAssign(g *graph.Graph, r *analysis.Result, m machine.Machine, targets []Target, seed uint64) (*Assignment, error) {
	if len(targets) == 0 {
		return nil, fmt.Errorf("mapping: fleet is empty")
	}
	for i, t := range targets {
		if t.CyclesPerSec <= 0 || t.MemWords <= 0 {
			return nil, fmt.Errorf("mapping: target %d (%q) has non-positive capacity", i, t.Name)
		}
	}
	nodes := g.Nodes()
	a := &Assignment{PEOf: make(map[*graph.Node]int, len(nodes)), NumPEs: len(targets)}
	if len(targets) == 1 {
		for _, n := range nodes {
			a.PEOf[n] = 0
		}
		return a, nil
	}

	f, err := newFleetState(g, r, m, targets)
	if err != nil {
		return nil, err
	}
	if err := f.packInitial(); err != nil {
		return nil, err
	}
	f.anneal(seed)
	for i, n := range nodes {
		a.PEOf[n] = f.targetOf[f.groupOf[i]]
	}
	return a, nil
}

// fleetState is the packing workspace: nodes collapsed into
// co-location groups, per-group demand, and the inter-group edges that
// become cut streams when groups land on different targets.
type fleetState struct {
	targets []Target
	groups  []fleetGroup
	// edges are the distinct inter-group stream edges, with what a cut
	// there would cost.
	edges []fleetEdge
	// groupOf maps node index (in graph order) to group index.
	groupOf []int
	// targetOf is the current assignment, group index → target index.
	targetOf []int

	// Scratch for the two per-move checks: quotientAcyclic's target
	// adjacency matrix, in-degrees and Kahn queue, and energy's loads.
	adj   []bool
	indeg []int
	queue []int
	load  []float64
}

type fleetGroup struct {
	cycles float64
	mem    int64
	// order is the minimum topological index of the group's members,
	// used to pack groups in stream order.
	order int
	// names of member nodes, for diagnostics.
	names []string
}

type fleetEdge struct {
	from, to int // group indices
	// cutCycles is what cutting here costs the fleet, in the same
	// cycles/sec the groups' compute demand is measured in.
	cutCycles float64
}

// cutCyclesPerByte converts cut-edge traffic into the analysis' cycles,
// so energy() weighs communication and load in one unit. A byte on a
// cut edge passes the wire codec four times — encoded by the producing
// worker, decoded and re-encoded by the relaying frontend, decoded by
// the consumer — and bench/README.md's traced table prices the codec at
// 12.06 µs per 12,280-byte Result encode (0.98 ns/B) and 8.78 µs per
// 12,330-byte Feed decode (0.71 ns/B, one large window, the shape of a
// row batch): 2 × (0.98 + 0.71) = 3.4 ns per cut byte. The same table
// measures app 4 at kernel.ns_per_cycle = 3.2–3.4 ns of runtime per
// analysis cycle, so one cut byte costs about one cycle.
const cutCyclesPerByte = 1.0

// cutBytesPerSec is the traffic edge e would put on the wire as a cut:
// per frame, one row batch per item row — the span of the row's
// (possibly overlapping) windows, which is what a cut edge carries
// since wire v6, not the per-window word count — at the stream's native
// element width, times the stream's frame rate.
func cutBytesPerSec(e *graph.Edge, info analysis.PortInfo, elemBytes int) float64 {
	spanW := (info.Items.W-1)*e.From.Step.X + info.ItemSize.W
	if full := info.Items.W * info.ItemSize.W; spanW > full || spanW <= 0 {
		spanW = full // non-overlapping items: the batch is their concatenation
	}
	perFrame := int64(info.Items.H) * int64(spanW) * int64(info.ItemSize.H) * int64(elemBytes)
	return float64(perFrame) * info.Rate.Float()
}

func newFleetState(g *graph.Graph, r *analysis.Result, m machine.Machine, targets []Target) (*fleetState, error) {
	nodes := g.Nodes()
	idx := make(map[*graph.Node]int, len(nodes))
	for i, n := range nodes {
		idx[n] = i
	}

	// Union-find over nodes: dependence-edge endpoints and every
	// strongly-connected component (cycles exist only through feedback
	// nodes) must land on one target.
	parent := make([]int, len(nodes))
	for i := range parent {
		parent[i] = i
	}
	var find func(int) int
	find = func(x int) int {
		for parent[x] != x {
			parent[x] = parent[parent[x]]
			x = parent[x]
		}
		return x
	}
	union := func(x, y int) {
		rx, ry := find(x), find(y)
		if rx != ry {
			parent[rx] = ry
		}
	}
	for _, d := range g.Deps() {
		union(idx[d.From], idx[d.To])
	}
	// Windowed-sharing groups: a share buffer and its readers exchange
	// arena references into one ring, which cannot cross a wire cut, so
	// every node tagged with one share group lands on one target.
	shareRoot := make(map[string]int)
	for i, n := range nodes {
		name := n.Attrs["share"]
		if name == "" {
			continue
		}
		if r, ok := shareRoot[name]; ok {
			union(r, i)
		} else {
			shareRoot[name] = i
		}
	}
	// Fixpoint: collapsing dependence edges can fuse nodes from distant
	// stream ranks into one group, which in turn can close new cycles
	// at the group level (A→B and B→A through different members). Any
	// such pair could never be cut acyclically, so it too must be one
	// group. Iterate SCC-collapse on the condensed graph until the
	// group DAG is genuinely acyclic.
	for {
		merged := false
		for _, scc := range stronglyConnected(len(nodes), func(i int) int { return find(i) }, g, idx) {
			for _, n := range scc[1:] {
				union(scc[0], n)
				merged = true
			}
		}
		if !merged {
			break
		}
	}

	// Topological order index per node; feedback in-edges are ignored
	// by Topological, so a valid compiled graph always orders.
	topo, err := g.Topological()
	if err != nil {
		return nil, fmt.Errorf("mapping: fleet order: %w", err)
	}
	topoIdx := make(map[*graph.Node]int, len(topo))
	for i, n := range topo {
		topoIdx[n] = i
	}

	f := &fleetState{targets: targets, groupOf: make([]int, len(nodes))}
	groupIdx := make(map[int]int) // union root → group index
	for i, n := range nodes {
		root := find(i)
		gi, ok := groupIdx[root]
		if !ok {
			gi = len(f.groups)
			groupIdx[root] = gi
			f.groups = append(f.groups, fleetGroup{order: math.MaxInt})
		}
		f.groupOf[i] = gi
		grp := &f.groups[gi]
		l := r.LoadOf(n, m)
		grp.cycles += l.CyclesPerSec
		grp.mem += l.MemWords
		grp.names = append(grp.names, n.Name())
		if ti := topoIdx[n]; ti < grp.order {
			grp.order = ti
		}
	}

	// Collapse stream edges to distinct inter-group edges with their
	// cut traffic. Fan-out to several nodes of one group still cuts
	// once per original edge, so sum rather than dedup. An edge the
	// analysis could not type carries no price here; placement refuses
	// to cut it.
	kinds, err := analysis.ElemKinds(g)
	if err != nil {
		return nil, fmt.Errorf("mapping: fleet element kinds: %w", err)
	}
	type key struct{ from, to int }
	cost := make(map[key]float64)
	for _, e := range g.Edges() {
		gf, gt := f.groupOf[idx[e.From.Node()]], f.groupOf[idx[e.To.Node()]]
		if gf == gt {
			continue
		}
		var c float64
		if info, ok := r.Out[e.From]; ok {
			c = cutCyclesPerByte * cutBytesPerSec(e, info, kinds.Out[e.From].Bytes())
		}
		cost[key{gf, gt}] += c
	}
	keys := make([]key, 0, len(cost))
	for k := range cost {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].from != keys[j].from {
			return keys[i].from < keys[j].from
		}
		return keys[i].to < keys[j].to
	})
	for _, k := range keys {
		f.edges = append(f.edges, fleetEdge{from: k.from, to: k.to, cutCycles: cost[k]})
	}
	return f, nil
}

// packInitial places groups in topological order of the group DAG,
// filling one target before moving to the next — every inter-group
// edge then points forward in pack order, so contiguous segments give
// an acyclic quotient by construction. Memory is hard; overloading a
// target's cycle budget only advances to the next target while one
// remains.
func (f *fleetState) packInitial() error {
	order := f.groupTopoOrder()

	f.targetOf = make([]int, len(f.groups))
	used := make([]struct {
		cycles float64
		mem    int64
	}, len(f.targets))
	cur := 0
	for _, gi := range order {
		grp := f.groups[gi]
		for cur < len(f.targets)-1 {
			t := f.targets[cur]
			fits := used[cur].mem+grp.mem <= t.MemWords &&
				(used[cur].cycles == 0 || used[cur].cycles+grp.cycles <= float64(t.CyclesPerSec))
			if fits {
				break
			}
			cur++
		}
		if used[cur].mem+grp.mem > f.targets[cur].MemWords {
			// The tail target is out of memory (or the group alone is too
			// big for it): fall back to any earlier target with room. Any
			// such move keeps the quotient acyclic only if checked, so
			// verify before committing.
			placed := false
			for t := range f.targets {
				if used[t].mem+grp.mem > f.targets[t].MemWords {
					continue
				}
				f.targetOf[gi] = t
				if f.quotientAcyclic() {
					used[t].cycles += grp.cycles
					used[t].mem += grp.mem
					placed = true
					break
				}
			}
			if !placed {
				return fmt.Errorf("%w: group {%s} needs %d words, no target has room",
					ErrInfeasible, groupLabel(grp), grp.mem)
			}
			continue
		}
		f.targetOf[gi] = cur
		used[cur].cycles += grp.cycles
		used[cur].mem += grp.mem
	}
	// The memory fallback above places out of stream order; if that
	// produced an inter-target cycle there is no assignment to repair
	// from, so report the fleet as infeasible.
	if !f.quotientAcyclic() {
		return fmt.Errorf("%w: memory pressure forces a cyclic cut", ErrInfeasible)
	}
	return nil
}

// groupTopoOrder is a Kahn order of the group DAG, tie-broken by the
// groups' minimum stream rank for determinism and locality. The SCC
// fixpoint in newFleetState guarantees the DAG has no cycles; if one
// sneaks through regardless, the stragglers append in rank order and
// packInitial's final acyclicity check reports the infeasibility.
func (f *fleetState) groupTopoOrder() []int {
	indeg := make([]int, len(f.groups))
	succ := make([][]int, len(f.groups))
	seen := make(map[[2]int]bool, len(f.edges))
	for _, e := range f.edges {
		k := [2]int{e.from, e.to}
		if e.from == e.to || seen[k] {
			continue
		}
		seen[k] = true
		succ[e.from] = append(succ[e.from], e.to)
		indeg[e.to]++
	}
	order := make([]int, 0, len(f.groups))
	placed := make([]bool, len(f.groups))
	for len(order) < len(f.groups) {
		best := -1
		for gi := range f.groups {
			if placed[gi] || indeg[gi] > 0 {
				continue
			}
			if best < 0 || f.groups[gi].order < f.groups[best].order {
				best = gi
			}
		}
		if best < 0 {
			// Cycle residue: emit the rest in rank order.
			for gi := range f.groups {
				if !placed[gi] {
					order = append(order, gi)
					placed[gi] = true
				}
			}
			break
		}
		placed[best] = true
		order = append(order, best)
		for _, t := range succ[best] {
			indeg[t]--
		}
	}
	return order
}

func groupLabel(grp fleetGroup) string {
	if len(grp.names) <= 3 {
		return fmt.Sprintf("%v", grp.names)
	}
	return fmt.Sprintf("%v…+%d", grp.names[:3], len(grp.names)-3)
}

// quotientAcyclic reports whether the partition-level graph (stream
// edges plus the co-location-collapsed dependence edges) is a DAG.
// Intra-target cycles are fine — they run on one worker — but an
// inter-target cycle would make two workers each wait on the other's
// stream, so such an assignment is rejected outright.
func (f *fleetState) quotientAcyclic() bool {
	n := len(f.targets)
	// The annealer asks once per proposed move; the scratch is reused.
	if f.adj == nil {
		f.adj = make([]bool, n*n)
		f.indeg = make([]int, n)
		f.queue = make([]int, 0, n)
	}
	adj, indeg := f.adj, f.indeg
	clear(adj)
	clear(indeg)
	for _, e := range f.edges {
		ft, tt := f.targetOf[e.from], f.targetOf[e.to]
		if ft != tt && !adj[ft*n+tt] {
			adj[ft*n+tt] = true
			indeg[tt]++
		}
	}
	// Kahn over the target quotient.
	queue := f.queue[:0]
	for i := 0; i < n; i++ {
		if indeg[i] == 0 {
			queue = append(queue, i)
		}
	}
	seen := 0
	for seen < len(queue) {
		v := queue[seen]
		seen++
		for j := 0; j < n; j++ {
			if adj[v*n+j] {
				indeg[j]--
				if indeg[j] == 0 {
					queue = append(queue, j)
				}
			}
		}
	}
	return seen == n
}

// energy prices the current assignment in one unit, cycles/sec: the
// cycles the fleet spends moving cut-edge bytes (cutCyclesPerByte) at
// the price of a compute cycle, plus a strong overload penalty and a
// mild idle term, mirroring EnergyPerFrame's structure with balance
// substituted for placement. Moving a kernel between workers shifts
// ~10⁷ cycles/sec of load; a window stream on a cut costs as much, a
// scalar stream a tenth of it — so the annealer cuts where the stream
// is thin.
func (f *fleetState) energy(em EnergyModel) float64 {
	var cut float64
	for _, e := range f.edges {
		if f.targetOf[e.from] != f.targetOf[e.to] {
			cut += e.cutCycles
		}
	}
	if f.load == nil {
		f.load = make([]float64, len(f.targets))
	}
	load := f.load
	clear(load)
	for gi, t := range f.targetOf {
		load[t] += f.groups[gi].cycles
	}
	var overload, idle float64
	for i := range f.targets {
		budget := float64(f.targets[i].CyclesPerSec)
		if load[i] > budget {
			overload += load[i] - budget
		} else {
			idle += budget - load[i]
		}
	}
	// Overloading a worker stalls the whole pipeline; price it well
	// above moving the bytes instead.
	return em.PJPerCycle*cut + 8*em.PJPerCycle*overload + em.PJPerIdleCycle*idle
}

// anneal refines the packing by moving single groups between targets,
// rejecting any move that breaks a memory budget or the quotient DAG,
// and keeps the best assignment it visits. Trading a fat cut for a thin
// one takes several moves (a buffer, its kernel, then the replicas that
// rebalance the load), the first of them uphill by a kernel's worth of
// overload, so the schedule starts hot enough to cross that — a quarter
// of the initial energy — and cools geometrically to a thousandth of it.
func (f *fleetState) anneal(seed uint64) {
	if len(f.groups) < 2 {
		return
	}
	em := DefaultEnergy()
	mem := make([]int64, len(f.targets))
	for gi, t := range f.targetOf {
		mem[t] += f.groups[gi].mem
	}
	rng := annealRNG(seed | 1)
	cost := f.energy(em)
	best, bestOf := cost, append([]int(nil), f.targetOf...)
	const iters = 10000
	temp := cost/4 + 1
	cool := math.Pow(1e-3, 1.0/iters)
	for i := 0; i < iters; i++ {
		gi := rng.intn(len(f.groups))
		to := rng.intn(len(f.targets))
		from := f.targetOf[gi]
		if to == from {
			continue
		}
		if mem[to]+f.groups[gi].mem > f.targets[to].MemWords {
			continue
		}
		f.targetOf[gi] = to
		if !f.quotientAcyclic() {
			f.targetOf[gi] = from
			continue
		}
		next := f.energy(em)
		if next <= cost || rng.float() < math.Exp((cost-next)/temp) {
			cost = next
			mem[from] -= f.groups[gi].mem
			mem[to] += f.groups[gi].mem
			if cost < best {
				best = cost
				copy(bestOf, f.targetOf)
			}
		} else {
			f.targetOf[gi] = from
		}
		temp *= cool
	}
	copy(f.targetOf, bestOf)
}

// stronglyConnected returns the non-trivial strongly-connected
// components of the condensed stream graph: nodes are collapsed to
// their union-find representative (rep), and the components are
// reported as representative index slices. All stream edges count,
// including those into feedback nodes. Iterative Tarjan, deterministic
// in graph order.
func stronglyConnected(n int, rep func(int) int, g *graph.Graph, idx map[*graph.Node]int) [][]int {
	dense := make(map[int]int, n)
	var reps []int
	for i := 0; i < n; i++ {
		r := rep(i)
		if _, ok := dense[r]; !ok {
			dense[r] = len(reps)
			reps = append(reps, r)
		}
	}
	adj := make([][]int, len(reps))
	for _, e := range g.Edges() {
		f := dense[rep(idx[e.From.Node()])]
		t := dense[rep(idx[e.To.Node()])]
		if f != t {
			adj[f] = append(adj[f], t)
		}
	}
	const unvisited = -1
	index := make([]int, len(reps))
	low := make([]int, len(reps))
	onStack := make([]bool, len(reps))
	for i := range index {
		index[i] = unvisited
	}
	var stack []int
	var sccs [][]int
	next := 0

	type frame struct{ v, ei int }
	for start := range reps {
		if index[start] != unvisited {
			continue
		}
		work := []frame{{v: start}}
		for len(work) > 0 {
			fr := &work[len(work)-1]
			v := fr.v
			if fr.ei == 0 {
				index[v] = next
				low[v] = next
				next++
				stack = append(stack, v)
				onStack[v] = true
			}
			advanced := false
			for fr.ei < len(adj[v]) {
				w := adj[v][fr.ei]
				fr.ei++
				if index[w] == unvisited {
					work = append(work, frame{v: w})
					advanced = true
					break
				}
				if onStack[w] && index[w] < low[v] {
					low[v] = index[w]
				}
			}
			if advanced {
				continue
			}
			if low[v] == index[v] {
				var scc []int
				for {
					w := stack[len(stack)-1]
					stack = stack[:len(stack)-1]
					onStack[w] = false
					scc = append(scc, reps[w])
					if w == v {
						break
					}
				}
				if len(scc) > 1 {
					sccs = append(sccs, scc)
				}
			}
			work = work[:len(work)-1]
			if len(work) > 0 {
				p := work[len(work)-1].v
				if low[v] < low[p] {
					low[p] = low[v]
				}
			}
		}
	}
	return sccs
}
