package graph

import (
	"strings"
	"testing"

	"blockpar/internal/geom"
	"blockpar/internal/token"
)

// makeConv builds a kernel like the paper's 5x5 convolution (Figure 6):
// data input "in", replicated input "coeff", output "out", two methods.
func makeConv(name string, k int) *Node {
	n := NewNode(name, KindKernel)
	half := int64(k / 2)
	n.CreateInput("in", geom.Sz(k, k), geom.St(1, 1), geom.Off(half, half))
	coeff := n.CreateInput("coeff", geom.Sz(k, k), geom.St(k, k), geom.Off(half, half))
	coeff.Replicated = true
	n.CreateOutput("out", geom.Sz(1, 1), geom.St(1, 1))
	n.RegisterMethod("runConvolve", int64(10+3*k*k), 2*int64(k*k))
	n.RegisterMethodInput("runConvolve", "in")
	n.RegisterMethodOutput("runConvolve", "out")
	n.RegisterMethod("loadCoeff", int64(10+2*k*k), int64(k*k))
	n.RegisterMethodInput("loadCoeff", "coeff")
	return n
}

func makeSource(name string) *Node {
	n := NewNode(name, KindKernel)
	n.CreateInput("in", geom.Sz(1, 1), geom.St(1, 1), geom.Off(0, 0))
	n.CreateOutput("out", geom.Sz(1, 1), geom.St(1, 1))
	n.RegisterMethod("run", 1, 0)
	n.RegisterMethodInput("run", "in")
	n.RegisterMethodOutput("run", "out")
	return n
}

func buildSmallApp(t *testing.T) (*Graph, *Node, *Node, *Node) {
	t.Helper()
	g := New("small")
	in := g.AddInput("Input", geom.Sz(16, 16), geom.Sz(1, 1), geom.FInt(50))
	conv := g.Add(makeConv("5x5 Conv", 5))
	coeff := g.AddInput("Coeff", geom.Sz(5, 5), geom.Sz(5, 5), geom.FInt(50))
	out := g.AddOutput("Output", geom.Sz(1, 1))
	g.Connect(in, "out", conv, "in")
	g.Connect(coeff, "out", conv, "coeff")
	g.Connect(conv, "out", out, "in")
	return g, in, conv, out
}

func TestNodeBuilder(t *testing.T) {
	n := makeConv("c", 5)
	if n.Input("in") == nil || n.Input("coeff") == nil || n.Output("out") == nil {
		t.Fatal("ports missing")
	}
	if !n.Input("coeff").Replicated {
		t.Error("coeff should be replicated")
	}
	if n.Input("in").Words() != 25 {
		t.Errorf("in words = %d", n.Input("in").Words())
	}
	m := n.Method("runConvolve")
	if m == nil || len(m.Triggers) != 1 || m.Triggers[0].Input != "in" {
		t.Fatalf("runConvolve triggers wrong: %+v", m)
	}
	if !m.TriggersInput("in") || m.TriggersInput("coeff") {
		t.Error("TriggersInput wrong")
	}
	if len(m.DataTriggers()) != 1 {
		t.Error("DataTriggers wrong")
	}
}

func TestNodeMemoryIncludesPortBuffers(t *testing.T) {
	n := makeConv("c", 5)
	// state = max(50, 25) = 50; ports = in 25 + coeff 25 + out 1 = 51.
	if got := n.Memory(); got != 101 {
		t.Errorf("Memory() = %d, want 101", got)
	}
}

func TestDuplicatePortPanics(t *testing.T) {
	n := NewNode("x", KindKernel)
	n.CreateInput("in", geom.Sz(1, 1), geom.St(1, 1), geom.Off(0, 0))
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate input did not panic")
		}
	}()
	n.CreateInput("in", geom.Sz(1, 1), geom.St(1, 1), geom.Off(0, 0))
}

func TestMethodUnknownInputPanics(t *testing.T) {
	n := NewNode("x", KindKernel)
	n.RegisterMethod("m", 1, 0)
	defer func() {
		if recover() == nil {
			t.Fatal("unknown input did not panic")
		}
	}()
	n.RegisterMethodInput("m", "nope")
}

// testHeads is a Heads over fixed queue contents.
type testHeads [][]token.Token

func (h testHeads) Head(in int32) *token.Token {
	if len(h[in]) == 0 {
		return nil
	}
	return &h[in][0]
}

// TestRuleNext checks the lowered firing rule on a histogram-shaped
// kernel: data fires the data method, end-of-frame the token method
// that handles it, and an end-of-line no method takes is forwarded
// (here to no output: the data method emits nothing) and bumps nothing.
func TestRuleNext(t *testing.T) {
	g := New("rule")
	n := g.Add(NewNode("hist", KindKernel))
	n.CreateInput("in", geom.Sz(1, 1), geom.St(1, 1), geom.Off(0, 0))
	n.CreateOutput("out", geom.Sz(32, 1), geom.St(32, 1))
	n.RegisterMethod("count", 15, 16)
	n.RegisterMethodInput("count", "in")
	n.RegisterMethod("finishCount", 6, 96)
	n.RegisterMethodInputToken("finishCount", "in", token.EndOfFrame, "")
	n.RegisterMethodOutput("finishCount", "out")
	r := LowerRule(g, n)
	s := r.NewState()

	for _, c := range []struct {
		head   token.Token
		method int32
		bump   bool
	}{
		{token.Token{}, 0, false},
		{token.EOF(0), 1, true},
		{token.EOL(0), -1, false},
	} {
		act, change, ok := r.Next(testHeads{{c.head}}, &s)
		if !ok || act.Method != c.method || change.Bump != c.bump {
			t.Errorf("head %v: action %+v, change %+v, ok %v; want method %d, bump %v",
				c.head, act, change, ok, c.method, c.bump)
		}
	}
	if in := r.Ins[0]; len(in.Group) != 1 || len(in.Fwd) != 0 {
		t.Errorf("EOL forwards from group %v to %v, want [0] to none", in.Group, in.Fwd)
	}
	if _, _, ok := r.Next(testHeads{nil}, &s); ok {
		t.Error("fired on an empty queue")
	}
}

func TestConnectAndLookup(t *testing.T) {
	g, in, conv, out := buildSmallApp(t)
	if len(g.Edges()) != 3 {
		t.Fatalf("edges = %d", len(g.Edges()))
	}
	if e := g.EdgeTo(conv.Input("in")); e == nil || e.From.Node() != in {
		t.Error("EdgeTo wrong")
	}
	if es := g.EdgesFrom(conv.Output("out")); len(es) != 1 || es[0].To.Node() != out {
		t.Error("EdgesFrom wrong")
	}
	if len(g.InEdges(conv)) != 2 || len(g.OutEdges(conv)) != 1 {
		t.Error("InEdges/OutEdges wrong")
	}
	nb := g.Neighbors(conv)
	if len(nb) != 3 {
		t.Errorf("Neighbors = %d, want 3", len(nb))
	}
	if len(g.Inputs()) != 2 || len(g.Outputs()) != 1 {
		t.Error("Inputs/Outputs wrong")
	}
}

func TestConnectDoubleProducerPanics(t *testing.T) {
	g, in, conv, _ := buildSmallApp(t)
	defer func() {
		if recover() == nil {
			t.Fatal("double connect did not panic")
		}
	}()
	g.Connect(in, "out", conv, "in")
}

func TestConnectForeignNodePanics(t *testing.T) {
	g, _, _, _ := buildSmallApp(t)
	foreign := makeSource("foreign")
	defer func() {
		if recover() == nil {
			t.Fatal("foreign connect did not panic")
		}
	}()
	g.Connect(foreign, "out", g.Node("Output"), "in")
}

func TestValidateHappyPath(t *testing.T) {
	g, _, _, _ := buildSmallApp(t)
	if err := g.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
}

func TestValidateCatchesUnconnectedInput(t *testing.T) {
	g := New("bad")
	g.AddOutput("Output", geom.Sz(1, 1))
	err := g.Validate()
	if err == nil || !strings.Contains(err.Error(), "unconnected") {
		t.Fatalf("Validate = %v", err)
	}
}

func TestValidateCatchesZeroRateInput(t *testing.T) {
	g := New("bad")
	in := g.AddInput("Input", geom.Sz(8, 8), geom.Sz(1, 1), geom.Frac{})
	out := g.AddOutput("Output", geom.Sz(1, 1))
	g.Connect(in, "out", out, "in")
	err := g.Validate()
	if err == nil || !strings.Contains(err.Error(), "non-positive rate") {
		t.Fatalf("Validate = %v", err)
	}
}

func TestValidateCatchesCycle(t *testing.T) {
	g := New("loop")
	a := g.Add(makeSource("a"))
	b := g.Add(makeSource("b"))
	g.Connect(a, "out", b, "in")
	g.Connect(b, "out", a, "in")
	err := g.Validate()
	if err == nil || !strings.Contains(err.Error(), "cycle") {
		t.Fatalf("Validate = %v", err)
	}
}

func TestValidateAllowsFeedbackCycle(t *testing.T) {
	g := New("loop")
	a := g.Add(makeSource("a"))
	fb := NewNode("fb", KindFeedback)
	fb.CreateInput("in", geom.Sz(1, 1), geom.St(1, 1), geom.Off(0, 0))
	fb.CreateOutput("out", geom.Sz(1, 1), geom.St(1, 1))
	fb.RegisterMethod("pass", 1, 1)
	fb.RegisterMethodInput("pass", "in")
	fb.RegisterMethodOutput("pass", "out")
	g.Add(fb)
	g.Connect(a, "out", fb, "in")
	g.Connect(fb, "out", a, "in")
	if err := g.checkAcyclic(); err != nil {
		t.Fatalf("feedback cycle rejected: %v", err)
	}
}

func TestValidateCustomTokenRates(t *testing.T) {
	g := New("tok")
	in := g.AddInput("Input", geom.Sz(4, 4), geom.Sz(1, 1), geom.FInt(10))
	k := makeSource("k")
	k.RegisterMethod("onReload", 5, 0)
	k.RegisterMethodInputToken("onReload", "in", token.Custom, "reload")
	g.Add(k)
	out := g.AddOutput("Output", geom.Sz(1, 1))
	g.Connect(in, "out", k, "in")
	g.Connect(k, "out", out, "in")

	err := g.Validate()
	if err == nil || !strings.Contains(err.Error(), "reload") {
		t.Fatalf("undeclared custom token not caught: %v", err)
	}
	// Declaring the rate on any node fixes it.
	in.TokenRates = map[string]geom.Frac{"reload": geom.FInt(1)}
	if err := g.Validate(); err != nil {
		t.Fatalf("declared custom token still rejected: %v", err)
	}
}

func TestTopologicalOrder(t *testing.T) {
	g, in, conv, out := buildSmallApp(t)
	order, err := g.Topological()
	if err != nil {
		t.Fatal(err)
	}
	pos := make(map[*Node]int)
	for i, n := range order {
		pos[n] = i
	}
	if !(pos[in] < pos[conv] && pos[conv] < pos[out]) {
		t.Errorf("bad order: %v", order)
	}
	if len(order) != len(g.Nodes()) {
		t.Errorf("order misses nodes: %d vs %d", len(order), len(g.Nodes()))
	}
}

func TestTopologicalCycleError(t *testing.T) {
	g := New("loop")
	a := g.Add(makeSource("a"))
	b := g.Add(makeSource("b"))
	g.Connect(a, "out", b, "in")
	g.Connect(b, "out", a, "in")
	if _, err := g.Topological(); err == nil {
		t.Fatal("cycle not detected")
	}
}

func TestUpstream(t *testing.T) {
	g, in, conv, out := buildSmallApp(t)
	up := g.Upstream(out)
	if !up[in] || !up[conv] || up[out] {
		t.Errorf("Upstream(out) = %v", up)
	}
	if len(g.Upstream(in)) != 0 {
		t.Error("Upstream(input) should be empty")
	}
}

func TestRemoveAndDisconnect(t *testing.T) {
	g, in, conv, _ := buildSmallApp(t)
	e := g.EdgeTo(conv.Input("in"))
	g.Disconnect(e)
	if g.EdgeTo(conv.Input("in")) != nil {
		t.Fatal("Disconnect failed")
	}
	g.Remove(conv)
	if g.Node("5x5 Conv") != nil {
		t.Fatal("Remove failed")
	}
	for _, e := range g.Edges() {
		if e.From.Node() == conv || e.To.Node() == conv {
			t.Fatal("Remove left dangling edges")
		}
	}
	_ = in
}

func TestRename(t *testing.T) {
	g, _, conv, _ := buildSmallApp(t)
	g.Rename(conv, "5x5 Conv_0")
	if g.Node("5x5 Conv_0") != conv || g.Node("5x5 Conv") != nil {
		t.Fatal("Rename failed")
	}
}

func TestCloneNode(t *testing.T) {
	n := makeConv("5x5 Conv", 5)
	n.TokenRates = map[string]geom.Frac{"x": geom.FInt(2)}
	n.Attrs["label"] = "hello"
	c := CloneNode(n, "5x5 Conv_1", 1)
	if c.Name() != "5x5 Conv_1" || c.Base != "5x5 Conv" || c.Instance != 1 {
		t.Fatalf("clone identity wrong: %s %s %d", c.Name(), c.Base, c.Instance)
	}
	if c.Input("coeff") == nil || !c.Input("coeff").Replicated {
		t.Error("clone lost replicated input")
	}
	if c.Method("runConvolve") == nil || len(c.Method("runConvolve").Triggers) != 1 {
		t.Error("clone lost methods")
	}
	if c.TokenRates["x"] != geom.FInt(2) || c.Attrs["label"] != "hello" {
		t.Error("clone lost attrs/token rates")
	}
	// Mutating the clone must not affect the original.
	c.Method("runConvolve").Outputs = append(c.Method("runConvolve").Outputs, "zzz")
	if len(n.Method("runConvolve").Outputs) != 1 {
		t.Error("clone shares method slices with original")
	}
}

func TestInstancesOf(t *testing.T) {
	g := New("inst")
	in := g.AddInput("Input", geom.Sz(8, 8), geom.Sz(1, 1), geom.FInt(1))
	a := CloneNode(makeSource("k"), "k_1", 1)
	b := CloneNode(makeSource("k"), "k_0", 0)
	g.Add(a)
	g.Add(b)
	out := g.AddOutput("Output", geom.Sz(1, 1))
	_ = in
	_ = out
	got := g.InstancesOf("k")
	if len(got) != 2 || got[0].Instance != 0 || got[1].Instance != 1 {
		t.Errorf("InstancesOf = %v", got)
	}
}

func TestDotOutput(t *testing.T) {
	g, _, _, _ := buildSmallApp(t)
	dot := g.Dot()
	for _, want := range []string{"digraph", "5x5 Conv", "style=dashed", "oval"} {
		if !strings.Contains(dot, want) {
			t.Errorf("Dot missing %q:\n%s", want, dot)
		}
	}
}

func TestSummaryAndCounts(t *testing.T) {
	g, _, _, _ := buildSmallApp(t)
	s := g.Summary()
	if !strings.Contains(s, "5x5 Conv") || !strings.Contains(s, "coeff(5x5)[5,5][2,2]*") {
		t.Errorf("Summary:\n%s", s)
	}
	counts := g.CountByKind()
	if counts[KindInput] != 2 || counts[KindKernel] != 1 || counts[KindOutput] != 1 {
		t.Errorf("CountByKind = %v", counts)
	}
}
