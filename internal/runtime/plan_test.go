package runtime

import (
	"fmt"
	"reflect"
	"sort"
	"testing"
	"time"

	"blockpar/internal/apps"
	"blockpar/internal/core"
	"blockpar/internal/frame"
	"blockpar/internal/geom"
	"blockpar/internal/graph"
	"blockpar/internal/kernel"
	"blockpar/internal/token"
)

// dynamicForward is the token-forwarding rule as the driver used to
// evaluate it per token, straight from the graph: the group of inputs
// that must all head the token, and the outputs it is forwarded to,
// for an unhandled token on input p (a feedback-fed input absorbs it,
// alone). It is the reference the lowered rule's tables are checked
// against.
func dynamicForward(g *graph.Graph, n *graph.Node, p *graph.Port) (group, outs []string, absorb bool) {
	fedBack := func(in string) bool {
		e := g.EdgeTo(n.Input(in))
		return e != nil && e.From.Node().Kind == graph.KindFeedback
	}
	if fedBack(p.Name) {
		return []string{p.Name}, nil, true
	}
	inGroup := map[string]bool{p.Name: true}
	toOut := map[string]bool{}
	for _, m := range n.Methods() {
		onP := false
		for _, t := range m.Triggers {
			if t.IsData() && t.Input == p.Name {
				onP = true
			}
		}
		if !onP {
			continue
		}
		for _, t := range m.Triggers {
			if t.IsData() && !fedBack(t.Input) {
				inGroup[t.Input] = true
			}
		}
		for _, o := range m.Outputs {
			loop := false
			for _, e := range g.EdgesFrom(n.Output(o)) {
				if e.To.Node().Kind == graph.KindFeedback {
					loop = true
				}
			}
			if !loop {
				toOut[o] = true
			}
		}
	}
	for in := range inGroup {
		group = append(group, in)
	}
	sort.Strings(group)
	for _, o := range n.Outputs() {
		if toOut[o.Name] {
			outs = append(outs, o.Name)
		}
	}
	return group, outs, false
}

// checkForwardTables compares every driver-run kernel's plan-time
// forwarding tables with the dynamic rule.
func checkForwardTables(t *testing.T, g *graph.Graph) {
	t.Helper()
	pl := buildPlan(g, 0)
	for i := range pl.nodes {
		pn := &pl.nodes[i]
		if pn.invoker == nil {
			continue
		}
		for k, p := range pn.node.Inputs() {
			wantGroup, wantOuts, wantAbsorb := dynamicForward(g, pn.node, p)
			in := &pn.rule.Ins[k]
			var group, outs []string
			for _, gi := range in.Group {
				group = append(group, pn.ins[gi].name)
			}
			sort.Strings(group)
			for _, o := range in.Fwd {
				outs = append(outs, pn.outs[o].name)
			}
			if in.Absorb != wantAbsorb || !reflect.DeepEqual(group, wantGroup) || !reflect.DeepEqual(outs, wantOuts) {
				t.Errorf("%s.%s: plan forwards group %v to %v (absorb %v); dynamic rule says %v to %v (absorb %v)",
					pn.node.Name(), p.Name, group, outs, in.Absorb, wantGroup, wantOuts, wantAbsorb)
			}
		}
	}
}

func feedbackGraph(w, h int) *graph.Graph {
	g := graph.New("feedback")
	in := g.AddInput("Input", geom.Sz(w, h), geom.Sz(1, 1), geom.FInt(10))
	acc := g.Add(kernel.Accumulator("Acc"))
	fb := g.Add(kernel.Feedback("FB", geom.Sz(1, 1), []frame.Window{frame.Scalar(0)}))
	out := g.AddOutput("Output", geom.Sz(1, 1))
	g.Connect(in, "out", acc, "in")
	g.Connect(fb, "out", acc, "state")
	g.Connect(acc, "loop", fb, "in")
	g.Connect(acc, "out", out, "in")
	return g
}

// TestForwardTablesMatchDynamicRule proves the plan-time token-forward
// groups equal the per-token computation they replaced, on every
// compiled suite app and on the §III-D case that rule exists for: a
// two-input kernel with one feedback-fed input, whose loop input must
// stay out of the group and whose loop output must receive no tokens.
func TestForwardTablesMatchDynamicRule(t *testing.T) {
	checkForwardTables(t, feedbackGraph(4, 3))
	for _, id := range apps.IDs() {
		app, err := apps.ByID(id)
		if err != nil {
			t.Fatal(err)
		}
		c, err := core.Compile(app.Graph, core.DefaultConfig())
		if err != nil {
			t.Fatal(err)
		}
		checkForwardTables(t, c.Graph)
	}
}

// TestFeedbackTokenOrder pins the token order around a feedback loop:
// the accumulator's data input carries EOL/EOF, its state input (fed by
// the loop) never does, and every token must come out of "out" exactly
// once, in stream position — W sums, the row's EOL, and the frame's EOF
// after its last row — while the loop keeps circulating data only.
func TestFeedbackTokenOrder(t *testing.T) {
	const W, H, frames = 4, 3, 2
	var want []string
	for f := 0; f < frames; f++ {
		for y := 0; y < H; y++ {
			for x := 0; x < W; x++ {
				want = append(want, "data")
			}
			want = append(want, token.EOL(int64(f*H+y)).String())
		}
		want = append(want, token.EOF(int64(f)).String())
	}
	res, err := Run(feedbackGraph(W, H), Options{Frames: frames, Timeout: 20 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, it := range res.Outputs["Output"] {
		if it.IsToken {
			got = append(got, it.Tok.String())
		} else {
			got = append(got, "data")
		}
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("output stream\n got %v\nwant %v", got, want)
	}
}

// TestUndersizedRingsUnwedge runs every suite app with rings far too
// small for its skew (1, 2 and 7 items, where the plan gives four rows
// or more). Bounded rings that only ever block would wedge — a join
// starving on one input while the other's producer waits on a full
// ring — so completing at all proves the deadlock detector finds the
// cycle and grows exactly the rings in it; completing with the same
// outputs proves growing loses and reorders nothing.
func TestUndersizedRingsUnwedge(t *testing.T) {
	const frames = 3
	grew := false
	// Beside the suite, a diamond built to wedge: batch-aware kernels take
	// whole rows, so the suite's own skews may all fit in one-item rings.
	type testGraph struct {
		id      string
		g       *graph.Graph
		sources map[string]frame.Generator
	}
	graphs := []testGraph{{id: "lag-diamond", g: lagDiamond()}}
	for _, id := range apps.IDs() {
		app, err := apps.ByID(id)
		if err != nil {
			t.Fatal(err)
		}
		c, err := core.Compile(app.Graph, core.DefaultConfig())
		if err != nil {
			t.Fatal(err)
		}
		graphs = append(graphs, testGraph{id, c.Graph, app.Sources})
	}
	for _, tg := range graphs {
		id := tg.id
		run := func(ringCap int) *Result {
			res, err := Run(tg.g.Clone(), Options{
				Frames: frames, Sources: tg.sources,
				Timeout: 60 * time.Second, ringCap: ringCap,
			})
			if err != nil {
				t.Fatalf("app %s, ring capacity %d: %v", id, ringCap, err)
			}
			return res
		}
		want := run(0)
		caps := []int{1, 2, 7}
		if raceEnabled {
			caps = caps[:1]
		}
		for _, ringCap := range caps {
			got := run(ringCap)
			for name, items := range want.Outputs {
				if err := sameStream(got.Outputs[name], items); err != nil {
					t.Errorf("app %s, ring capacity %d, output %q: %v", id, ringCap, name, err)
				}
			}
			for _, st := range got.Stats {
				for _, r := range st.Rings {
					grew = grew || r.HighWater > r.Capacity
				}
			}
		}
	}
	// A ring grows only through the detector.
	if !grew {
		t.Error("no ring ever grew: the suite did not wedge, so the detector went untested")
	}
}

func sameStream(got, want []graph.Item) error {
	if len(got) != len(want) {
		return fmt.Errorf("%d items, want %d", len(got), len(want))
	}
	for i := range want {
		g, w := got[i], want[i]
		if g.IsToken != w.IsToken || g.Tok != w.Tok || (!g.IsToken && !g.Win.Equal(w.Win)) {
			return fmt.Errorf("item %d is %v, want %v", i, g, w)
		}
	}
	return nil
}
