package mapping

import (
	"errors"
	"reflect"
	"testing"

	"blockpar/internal/analysis"
	"blockpar/internal/apps"
	"blockpar/internal/core"
	"blockpar/internal/geom"
	"blockpar/internal/graph"
	"blockpar/internal/kernel"
	"blockpar/internal/machine"
)

func fleetOf(n int, cycles, mem int64) []Target {
	ts := make([]Target, n)
	for i := range ts {
		ts[i] = Target{Name: string(rune('a' + i)), CyclesPerSec: cycles, MemWords: mem}
	}
	return ts
}

// TestFleetSingleTargetDegenerates pins the degenerate case the
// dispatcher relies on: a one-worker fleet is exactly today's
// whole-session placement — every node, inputs and outputs included,
// on target zero, so no cut edges exist and the partitioned session
// path reduces to the ordinary one.
func TestFleetSingleTargetDegenerates(t *testing.T) {
	g, r := compiledImageApp(t)
	a, err := FleetAssign(g, r, machine.Default(), fleetOf(1, 1, 1), 42)
	if err != nil {
		t.Fatal(err)
	}
	if a.NumPEs != 1 {
		t.Fatalf("NumPEs = %d, want 1", a.NumPEs)
	}
	for _, n := range g.Nodes() {
		tgt, ok := a.PEOf[n]
		if !ok || tgt != 0 {
			t.Fatalf("node %q on target %d (assigned %v), want 0", n.Name(), tgt, ok)
		}
	}
}

// TestFleetInfeasibleMemoryTyped: a fleet whose targets cannot hold
// the graph's memory demand must fail with ErrInfeasible, not panic
// and not return a partial assignment.
func TestFleetInfeasibleMemoryTyped(t *testing.T) {
	g, r := compiledImageApp(t)
	m := machine.Default()
	var total int64
	for _, n := range g.Nodes() {
		total += r.LoadOf(n, m).MemWords
	}
	if total == 0 {
		t.Skip("app has no memory demand")
	}
	a, err := FleetAssign(g, r, m, fleetOf(3, m.PE.CyclesPerSec, 1), 42)
	if err == nil {
		t.Fatalf("tiny fleet accepted: %d targets", a.NumPEs)
	}
	if !errors.Is(err, ErrInfeasible) {
		t.Fatalf("error %v is not tagged ErrInfeasible", err)
	}
}

// TestFleetAssignSound checks the structural guarantees on a real
// compiled application for 2- and 3-worker fleets: total coverage,
// memory budgets, dependence co-location, quotient acyclicity, and
// determinism per seed.
func TestFleetAssignSound(t *testing.T) {
	g, r := compiledImageApp(t)
	m := machine.Default()
	var totalCycles float64
	var totalMem int64
	for _, n := range g.Nodes() {
		l := r.LoadOf(n, m)
		totalCycles += l.CyclesPerSec
		totalMem += l.MemWords
	}
	for _, workers := range []int{2, 3} {
		ts := fleetOf(workers, int64(totalCycles)/int64(workers)+1, totalMem+1)
		a, err := FleetAssign(g, r, m, ts, 7)
		if err != nil {
			t.Fatalf("%d workers: %v", workers, err)
		}
		for _, n := range g.Nodes() {
			tgt, ok := a.PEOf[n]
			if !ok || tgt < 0 || tgt >= workers {
				t.Fatalf("%d workers: node %q on target %d (assigned %v)", workers, n.Name(), tgt, ok)
			}
		}
		for _, d := range g.Deps() {
			if a.PEOf[d.From] != a.PEOf[d.To] {
				t.Errorf("%d workers: dependence %s -> %s cut across targets",
					workers, d.From.Name(), d.To.Name())
			}
		}
		mem := make([]int64, workers)
		for n, tgt := range a.PEOf {
			mem[tgt] += r.LoadOf(n, m).MemWords
		}
		for i, used := range mem {
			if used > ts[i].MemWords {
				t.Errorf("%d workers: target %d holds %d words, budget %d", workers, i, used, ts[i].MemWords)
			}
		}
		if cyc := quotientCycle(g, a); cyc {
			t.Errorf("%d workers: quotient graph has an inter-target cycle", workers)
		}
		b, err := FleetAssign(g, r, m, ts, 7)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(a.PEOf, b.PEOf) {
			t.Errorf("%d workers: same seed produced different assignments", workers)
		}
	}
}

// quotientCycle detects an inter-target cycle over stream + dep edges.
func quotientCycle(g *graph.Graph, a *Assignment) bool {
	adj := make(map[int]map[int]bool)
	add := func(f, t int) {
		if f == t {
			return
		}
		if adj[f] == nil {
			adj[f] = make(map[int]bool)
		}
		adj[f][t] = true
	}
	for _, e := range g.Edges() {
		add(a.PEOf[e.From.Node()], a.PEOf[e.To.Node()])
	}
	for _, d := range g.Deps() {
		add(a.PEOf[d.From], a.PEOf[d.To])
	}
	color := make(map[int]int)
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
	for v := range adj {
		if color[v] == 0 && dfs(v) {
			return true
		}
	}
	return false
}

// TestFleetCoLocatesFeedback: a feedback loop must never straddle a
// cut — the loop's nodes form one co-location group.
func TestFleetCoLocatesFeedback(t *testing.T) {
	g := graph.New("loop")
	in := g.AddInput("Input", geom.Sz(4, 1), geom.Sz(1, 1), geom.FInt(10))
	mk := func(name string, extraIn string) *graph.Node {
		n := graph.NewNode(name, graph.KindKernel)
		n.CreateInput("in", geom.Sz(1, 1), geom.St(1, 1), geom.Off(0, 0))
		if extraIn != "" {
			n.CreateInput(extraIn, geom.Sz(1, 1), geom.St(1, 1), geom.Off(0, 0))
		}
		n.CreateOutput("out", geom.Sz(1, 1), geom.St(1, 1))
		n.RegisterMethod("run", 1, 1)
		n.RegisterMethodInput("run", "in")
		n.RegisterMethodOutput("run", "out")
		return g.Add(n)
	}
	pre := mk("pre", "")
	acc := mk("acc", "fb")
	post := mk("post", "")
	fb := graph.NewNode("fb", graph.KindFeedback)
	fb.CreateInput("in", geom.Sz(1, 1), geom.St(1, 1), geom.Off(0, 0))
	fb.CreateOutput("out", geom.Sz(1, 1), geom.St(1, 1))
	fb.RegisterMethod("pass", 1, 1)
	fb.RegisterMethodInput("pass", "in")
	fb.RegisterMethodOutput("pass", "out")
	g.Add(fb)
	out := g.AddOutput("Output", geom.Sz(1, 1))
	g.Connect(in, "out", pre, "in")
	g.Connect(pre, "out", acc, "in")
	g.Connect(acc, "out", post, "in")
	g.Connect(post, "out", out, "in")
	// Loop: acc -> fb -> acc.
	g.Connect(acc, "out", fb, "in")
	g.Connect(fb, "out", acc, "fb")
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}

	a, err := FleetAssign(g, &analysis.Result{}, machine.Default(), fleetOf(3, 1000, 1000), 99)
	if err != nil {
		t.Fatal(err)
	}
	if a.PEOf[acc] != a.PEOf[fb] {
		t.Errorf("feedback loop cut: acc on %d, fb on %d", a.PEOf[acc], a.PEOf[fb])
	}
}

// TestFleetCutsWhereTheStreamIsThin pins the unit fix in the fleet
// energy on app 4, the conv chain bpbench splits three ways: cut-edge
// traffic and load are both cycles/sec, so communication shapes the
// plan. A §III-B buffer turns a scalar stream into overlapping windows —
// 25 or 49 words out per word in — and every conv replica has its own,
// so a cut belongs before the buffer, never after: no cut edge may leave
// a Buffer whose input edge is thinner. Split three ways the plan must
// still use all three workers (it may not collapse to dodge the cut)
// and moves under 40 KB per frame, down from 411 KB when the cut term
// was noise.
func TestFleetCutsWhereTheStreamIsThin(t *testing.T) {
	app, err := apps.ByID("4")
	if err != nil {
		t.Fatal(err)
	}
	cfg := core.DefaultConfig()
	c, err := core.Compile(app.Graph, cfg)
	if err != nil {
		t.Fatal(err)
	}
	g, r, m := c.Graph, c.Analysis, cfg.Machine
	var cycles float64
	var mem int64
	for _, n := range g.Nodes() {
		l := r.LoadOf(n, m)
		cycles += l.CyclesPerSec
		mem += l.MemWords
	}
	for _, workers := range []int{2, 3} {
		a, err := FleetAssign(g, r, m, fleetOf(workers, int64(cycles)/int64(workers)+1, mem+1), 1)
		if err != nil {
			t.Fatalf("%d workers: %v", workers, err)
		}
		used := make(map[int]bool)
		for _, pe := range a.PEOf {
			used[pe] = true
		}
		if len(used) != workers {
			t.Errorf("%d workers: the plan uses %d of them", workers, len(used))
		}
		var cutWords int64
		for _, e := range g.Edges() {
			from := e.From.Node()
			if a.PEOf[from] == a.PEOf[e.To.Node()] {
				continue
			}
			out := r.Out[e.From].WordsPerFrame()
			cutWords += out
			if _, isBuffer := kernel.BufferPlanOf(from); !isBuffer {
				continue
			}
			if in := g.EdgeTo(from.Input("in")); in != nil && r.Out[in.From].WordsPerFrame() < out {
				t.Errorf("%d workers: cut after %s (%d words/frame out, %d in)",
					workers, from.Name(), out, r.Out[in.From].WordsPerFrame())
			}
		}
		if cutWords*8 >= 40_000 {
			t.Errorf("%d workers: the plan cuts %d bytes/frame, want < 40,000", workers, cutWords*8)
		}
	}
}
