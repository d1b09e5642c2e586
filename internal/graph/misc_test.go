package graph

import (
	"strings"
	"testing"

	"blockpar/internal/frame"
	"blockpar/internal/geom"
	"blockpar/internal/token"
)

func TestStringers(t *testing.T) {
	if In.String() != "in" || Out.String() != "out" {
		t.Error("Dir strings wrong")
	}
	for kind, want := range map[NodeKind]string{
		KindKernel: "kernel", KindBuffer: "buffer", KindSplit: "split",
		KindJoin: "join", KindReplicate: "replicate", KindInset: "inset",
		KindPad: "pad", KindFeedback: "feedback", NodeKind(42): "NodeKind(42)",
	} {
		if kind.String() != want {
			t.Errorf("kind %d = %q, want %q", int(kind), kind.String(), want)
		}
	}
	n := NewNode("X", KindBuffer)
	if n.String() != "X(buffer)" {
		t.Errorf("node String = %q", n.String())
	}
	p := n.CreateInput("in", geom.Sz(1, 1), geom.St(1, 1), geom.Off(0, 0))
	if p.String() != "X.in" {
		t.Errorf("port String = %q", p.String())
	}
	g := New("g")
	a := g.AddInput("A", geom.Sz(2, 2), geom.Sz(1, 1), geom.FInt(1))
	b := g.AddOutput("B", geom.Sz(1, 1))
	e := g.Connect(a, "out", b, "in")
	if e.String() != "A.out -> B.in" {
		t.Errorf("edge String = %q", e.String())
	}
}

func TestItemHelpers(t *testing.T) {
	d := DataItem(frame.NewWindow(3, 2))
	if d.IsToken || d.Words() != 6 {
		t.Errorf("data item wrong: %+v", d)
	}
	if d.String() != "Window(3x2)" {
		t.Errorf("data String = %q", d.String())
	}
	tk := TokenItem(token.EOF(4))
	if !tk.IsToken || tk.Words() != 1 {
		t.Errorf("token item wrong: %+v", tk)
	}
	if tk.String() != "EOF#4" {
		t.Errorf("token String = %q", tk.String())
	}
}

func TestMethodDynamicAndAlloc(t *testing.T) {
	m := &Method{Cycles: 10}
	if m.Dynamic() || m.AllocCycles() != 10 {
		t.Error("static method misclassified")
	}
	m.Bound = 40
	if !m.Dynamic() || m.AllocCycles() != 40 {
		t.Error("dynamic method misclassified")
	}
}

func TestRegisterMethodForward(t *testing.T) {
	n := NewNode("K", KindKernel)
	n.CreateInput("in", geom.Sz(1, 1), geom.St(1, 1), geom.Off(0, 0))
	n.CreateOutput("out", geom.Sz(1, 1), geom.St(1, 1))
	n.RegisterMethod("m", 1, 0)
	n.RegisterMethodInputToken("m", "in", token.EndOfFrame, "")
	n.RegisterMethodForward("m", "out")
	if got := n.Method("m").ForwardOnly; len(got) != 1 || got[0] != "out" {
		t.Fatalf("ForwardOnly = %v", got)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("unknown forward output accepted")
		}
	}()
	n.RegisterMethodForward("m", "nope")
}

func TestValidateRejectsBadPortsAndMethods(t *testing.T) {
	g := New("bad-ports")
	in := g.AddInput("Input", geom.Sz(4, 4), geom.Sz(1, 1), geom.FInt(1))
	k := NewNode("K", KindKernel)
	k.CreateInput("in", geom.Sz(1, 1), geom.St(1, 1), geom.Off(0, 0))
	bad := k.CreateOutput("out", geom.Sz(1, 1), geom.St(1, 1))
	bad.Step = geom.St(0, 1) // corrupt the step
	m := k.RegisterMethod("m", -5, 0)
	k.RegisterMethodInput("m", "in")
	k.RegisterMethodOutput("m", "out")
	_ = m
	g.Add(k)
	out := g.AddOutput("Output", geom.Sz(1, 1))
	g.Connect(in, "out", k, "in")
	g.Connect(k, "out", out, "in")

	err := g.Validate()
	if err == nil {
		t.Fatal("bad step/resources accepted")
	}
	for _, want := range []string{"non-positive step", "negative resources"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error missing %q: %v", want, err)
		}
	}
}

func TestValidateRejectsMethodlessKernel(t *testing.T) {
	g := New("no-methods")
	in := g.AddInput("Input", geom.Sz(4, 4), geom.Sz(1, 1), geom.FInt(1))
	k := NewNode("K", KindKernel)
	k.CreateInput("in", geom.Sz(1, 1), geom.St(1, 1), geom.Off(0, 0))
	k.CreateOutput("out", geom.Sz(1, 1), geom.St(1, 1))
	g.Add(k)
	out := g.AddOutput("Output", geom.Sz(1, 1))
	g.Connect(in, "out", k, "in")
	g.Connect(k, "out", out, "in")
	err := g.Validate()
	if err == nil || !strings.Contains(err.Error(), "no methods") {
		t.Fatalf("methodless kernel accepted: %v", err)
	}
}

func TestValidateRejectsCustomTriggerWithoutName(t *testing.T) {
	g := New("anon-custom")
	in := g.AddInput("Input", geom.Sz(4, 1), geom.Sz(1, 1), geom.FInt(1))
	k := NewNode("K", KindKernel)
	k.CreateInput("in", geom.Sz(1, 1), geom.St(1, 1), geom.Off(0, 0))
	k.CreateOutput("out", geom.Sz(1, 1), geom.St(1, 1))
	k.RegisterMethod("m", 1, 0)
	k.RegisterMethodInputToken("m", "in", token.Custom, "")
	k.RegisterMethodOutput("m", "out")
	g.Add(k)
	out := g.AddOutput("Output", geom.Sz(1, 1))
	g.Connect(in, "out", k, "in")
	g.Connect(k, "out", out, "in")
	err := g.Validate()
	if err == nil || !strings.Contains(err.Error(), "missing token name") {
		t.Fatalf("anonymous custom trigger accepted: %v", err)
	}
}

func TestDupNodePanicsAndForeignDep(t *testing.T) {
	g := New("dups")
	g.AddInput("A", geom.Sz(2, 2), geom.Sz(1, 1), geom.FInt(1))
	func() {
		defer func() {
			if recover() == nil {
				t.Error("duplicate node name accepted")
			}
		}()
		g.Add(NewNode("A", KindKernel))
	}()
	// Dep edges referencing foreign nodes are caught by Validate.
	foreign := NewNode("F", KindKernel)
	g.AddDep(g.Node("A"), foreign)
	err := g.Validate()
	if err == nil || !strings.Contains(err.Error(), "foreign node") {
		t.Fatalf("foreign dep accepted: %v", err)
	}
}

func TestRenamePanics(t *testing.T) {
	g := New("ren")
	a := g.AddInput("A", geom.Sz(2, 2), geom.Sz(1, 1), geom.FInt(1))
	g.AddOutput("B", geom.Sz(1, 1))
	func() {
		defer func() {
			if recover() == nil {
				t.Error("rename to taken name accepted")
			}
		}()
		g.Rename(a, "B")
	}()
	foreign := NewNode("X", KindKernel)
	defer func() {
		if recover() == nil {
			t.Error("rename of foreign node accepted")
		}
	}()
	g.Rename(foreign, "Y")
}
