package runtime

import (
	"fmt"
	"strings"
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

// rechunk re-splits every row span it receives into consecutive pieces
// of the given widths (cycled, restarting at each row): a piece of one
// window leaves as a plain view, a wider one as a batch view. Tokens
// pass through. It sets up the heads a two-input method meets when its
// producers batch a row differently.
type rechunk struct{ widths []int }

func (c rechunk) Clone() graph.Behavior     { return c }
func (rechunk) AcceptsBatch(in string) bool { return true }
func (c rechunk) Invoke(_ string, ctx graph.ExecContext) error {
	bc := ctx.(graph.BatchContext)
	w, b := ctx.Input("in"), bc.Batch("in")
	if !b.IsBatch() {
		ctx.Emit("out", w)
		return nil
	}
	for j, k := 0, 0; j < int(b.N); k++ {
		n := min(c.widths[k%len(c.widths)], int(b.N)-j)
		piece := graph.Batch{N: int32(n), Sx: b.Sx, Bw: b.Bw}
		bc.EmitBatch("out", w.View(j*int(b.Sx), 0, piece.SpanW(), w.H), piece)
		j += n
	}
	return nil
}

// lag is a non-batch-aware kernel that holds back the last depth items
// it received, end-of-line tokens included, as clones, and flushes them
// from its end-of-frame method: a branch whose latency exceeds what a
// one-item ring holds.
type lag struct {
	depth int
	held  []graph.Item
}

func (l *lag) Clone() graph.Behavior { return &lag{depth: l.depth} }
func (l *lag) Invoke(method string, ctx graph.ExecContext) error {
	switch method {
	case "pass":
		l.held = append(l.held, graph.DataItem(ctx.Input("in").Clone()))
	case "eol":
		l.held = append(l.held, graph.TokenItem(ctx.Token("in")))
	}
	for len(l.held) > l.depth || (method == "eof" && len(l.held) > 0) {
		if it := l.held[0]; it.IsToken {
			ctx.EmitToken("out", it.Tok)
		} else {
			ctx.Emit("out", it.Win)
		}
		l.held = l.held[1:]
	}
	return nil
}

// lagNode declares a lag kernel: data and end-of-line are held (the
// eol method has no outputs, so the token is not forwarded on its
// own), and end-of-frame follows the flush.
func lagNode(name string, depth int) *graph.Node {
	n := graph.NewNode(name, graph.KindKernel)
	n.CreateInput("in", geom.Sz(1, 1), geom.St(1, 1), geom.Off(0, 0))
	n.CreateOutput("out", geom.Sz(1, 1), geom.St(1, 1))
	n.RegisterMethod("pass", 1, 0)
	n.RegisterMethodInput("pass", "in")
	n.RegisterMethodOutput("pass", "out")
	n.RegisterMethod("eol", 1, 0)
	n.RegisterMethodInputToken("eol", "in", token.EndOfLine, "")
	n.RegisterMethod("eof", 1, 0)
	n.RegisterMethodInputToken("eof", "in", token.EndOfFrame, "")
	n.RegisterMethodOutput("eof", "out")
	n.Behavior = &lag{depth: depth}
	return n
}

// passNode declares a one-in, one-out 1×1 kernel node around behavior b.
func passNode(name string, b graph.Behavior) *graph.Node {
	n := graph.NewNode(name, graph.KindKernel)
	n.CreateInput("in", geom.Sz(1, 1), geom.St(1, 1), geom.Off(0, 0))
	n.CreateOutput("out", geom.Sz(1, 1), geom.St(1, 1))
	n.RegisterMethod("pass", 1, 0)
	n.RegisterMethodInput("pass", "in")
	n.RegisterMethodOutput("pass", "out")
	n.Behavior = b
	return n
}

// subtractOf returns a graph computing A - B with Subtract, its two
// inputs reaching it through a and b.
func subtractOf(name string, w, h int, a, b graph.Behavior) *graph.Graph {
	g := graph.New(name)
	inA := g.AddInput("A", geom.Sz(w, h), geom.Sz(1, 1), geom.FInt(10))
	inB := g.AddInput("B", geom.Sz(w, h), geom.Sz(1, 1), geom.FInt(10))
	ca, cb := g.Add(passNode("CA", a)), g.Add(passNode("CB", b))
	k := g.Add(kernel.Subtract("K"))
	out := g.AddOutput("Out", geom.Sz(1, 1))
	g.Connect(inA, "out", ca, "in")
	g.Connect(inB, "out", cb, "in")
	g.Connect(ca, "out", k, "in0")
	g.Connect(cb, "out", k, "in1")
	g.Connect(k, "out", out, "in")
	return g
}

// lagDiamond is a graph that wedges on one-item rings: Subtract's in0
// arrives through a lag two windows deep, its in1 straight from the
// input, so the input blocks on in1 while the lag waits for the input.
func lagDiamond() *graph.Graph {
	g := graph.New("lag-diamond")
	in := g.AddInput("A", geom.Sz(6, 3), geom.Sz(1, 1), geom.FInt(10))
	l := g.Add(lagNode("Lag", 2))
	k := g.Add(kernel.Subtract("K"))
	out := g.AddOutput("Out", geom.Sz(1, 1))
	g.Connect(in, "out", l, "in")
	g.Connect(l, "out", k, "in0")
	g.Connect(in, "out", k, "in1")
	g.Connect(k, "out", out, "in")
	return g
}

// panicky is a batch-aware kernel that panics on its first firing.
type panicky struct{}

func (panicky) Clone() graph.Behavior       { return panicky{} }
func (panicky) AcceptsBatch(in string) bool { return true }
func (panicky) Invoke(string, graph.ExecContext) error {
	panic("kernel fault on a prefix firing")
}

// pooled returns gen's frames in arena storage, so the run's reference
// counting is observable in frame.Stats().Live.
func pooled(gen frame.Generator) frame.Generator {
	return func(seq int64, w, h int) frame.Window {
		p := frame.Alloc(w, h)
		copy(p.Pix, gen(seq, w, h).Pix)
		return p
	}
}

// TestBatchPrefixFiring drives a two-input batch-aware kernel (Subtract)
// with every way its producers can split a row: whole spans, spans of
// different lengths, a span against single windows, and single windows
// throughout, with end-of-line and end-of-frame tokens between rows.
// The method fires on the common prefix of its heads, so every split
// must produce the all-scalar output stream byte for byte, count
// exactly the logical firings, and return every pooled window to the
// arena — at the planned ring size and on rings of 1, 2 and 7 items.
// A kernel that panics on a prefix firing must leak neither the
// prefix's reference nor the suffix left in its ring.
func TestBatchPrefixFiring(t *testing.T) {
	const w, h, frames = 8, 3, 2
	sources := map[string]frame.Generator{"A": pooled(frame.Gradient), "B": pooled(frame.LCG)}
	run := func(a, b []int, ringCap int) *Result {
		t.Helper()
		g := subtractOf("prefix", w, h, rechunk{a}, rechunk{b})
		res, err := Run(g, Options{Frames: frames, Sources: sources, Timeout: 60 * time.Second, ringCap: ringCap})
		if err != nil {
			t.Fatalf("splits %v against %v, ring capacity %d: %v", a, b, ringCap, err)
		}
		return res
	}
	want := run([]int{1}, []int{1}, 0)
	splits := [][2][]int{
		{{w}, {w}},
		{{3, 5}, {5, 3}},
		{{2}, {3}},
		{{1, 7}, {4, 4}},
		{{w}, {1}},
		{{1}, {w}},
		{{1}, {1}},
	}
	caps := []int{0, 1, 2, 7}
	if raceEnabled {
		caps = caps[:2]
	}
	for _, s := range splits {
		for _, ringCap := range caps {
			live := frame.Stats().Live
			got := run(s[0], s[1], ringCap)
			where := fmt.Sprintf("splits %v against %v, ring capacity %d", s[0], s[1], ringCap)
			if err := sameStream(got.Outputs["Out"], want.Outputs["Out"]); err != nil {
				t.Errorf("%s: %v", where, err)
			}
			if n := got.Firings["K"]["subtract"]; n != w*h*frames {
				t.Errorf("%s: %d subtract firings, want %d", where, n, w*h*frames)
			}
			if now := frame.Stats().Live; now != live {
				t.Errorf("%s: %d pooled windows live after the run, want %d", where, now, live)
			}
		}
	}

	// A panic on the first firing, a prefix of A's whole-row head.
	live := frame.Stats().Live
	g := subtractOf("prefix-panic", w, h, rechunk{[]int{w}}, rechunk{[]int{3, 5}})
	g.Node("K").Behavior = panicky{}
	sess, err := NewSession(g, SessionOptions{Sources: sources})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sess.Feed(nil); err != nil {
		t.Fatalf("feed: %v", err)
	}
	if _, err := sess.Collect(10 * time.Second); err == nil || !strings.Contains(err.Error(), "panicked") {
		t.Fatalf("collect err = %v, want kernel panic error", err)
	}
	sess.Close()
	if now := frame.Stats().Live; now != live {
		t.Errorf("after a panic on a prefix firing %d pooled windows are live, want %d", now, live)
	}
}

// TestApp5TailFiresPerSpan pins the delivery counts of the per-sample
// tail of app 5 (Figure 1(b): Subtract → Histogram). Both kernels take
// row spans, so a frame's 1,232 logical firings of each arrive in a few
// hundred deliveries, not one per sample, while the logical firings
// still equal the analysis' prediction.
func TestApp5TailFiresPerSpan(t *testing.T) {
	const frames = 4
	app, err := apps.ByID("5")
	if err != nil {
		t.Fatal(err)
	}
	c, err := core.Compile(app.Graph, core.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(c.Graph.Clone(), Options{Frames: frames, Sources: app.Sources, Timeout: 60 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	maxPerFrame := map[string]int64{"Subtract": 200, "Histogram": 100}
	for _, st := range res.Stats {
		limit, ok := maxPerFrame[st.Node]
		if !ok {
			continue
		}
		delete(maxPerFrame, st.Node)
		if per := st.Deliveries / frames; per > limit {
			t.Errorf("%s: %d deliveries per frame, want at most %d", st.Node, per, limit)
		}
		n := c.Graph.Node(st.Node)
		ni := c.Analysis.NodeInfoOf(n)
		for _, m := range n.Methods() {
			if want := ni.Methods[m.Name].Invocations() * frames; st.Firings[m.Name] != want {
				t.Errorf("%s.%s fired %d times, analysis predicts %d", st.Node, m.Name, st.Firings[m.Name], want)
			}
		}
	}
	for name := range maxPerFrame {
		t.Errorf("compiled app 5 has no node %q", name)
	}
}
