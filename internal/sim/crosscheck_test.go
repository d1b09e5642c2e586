package sim

import (
	"strings"
	"testing"
	"time"

	"blockpar/internal/apps"
	"blockpar/internal/core"
	"blockpar/internal/frame"
	"blockpar/internal/geom"
	"blockpar/internal/graph"
	"blockpar/internal/kernel"
	"blockpar/internal/machine"
	"blockpar/internal/mapping"
	"blockpar/internal/runtime"
	"blockpar/internal/token"
)

// feedbackGraph is the §III-D loop of the runtime's token-order test:
// Input → Accumulator ⇄ Feedback → Output, where the accumulator's
// loop-fed input must stay out of its token-forwarding group and its
// loop output must receive no tokens.
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

// TestSimMatchesRuntimeStreamStructure is the engine-consistency
// property: for every compiled suite benchmark, and for a feedback
// loop, the value-free timing simulation and the value-carrying
// functional runtime must deliver exactly the same number of data
// items, end-of-line, and end-of-frame tokens at every application
// output. A divergence means one engine's firing rules drifted from the
// other's.
func TestSimMatchesRuntimeStreamStructure(t *testing.T) {
	const frames = 2
	type input struct {
		id      string
		g       *graph.Graph
		sources map[string]frame.Generator
	}
	var inputs []input
	for _, b := range apps.Figure13Suite() {
		c, err := core.Compile(b.App.Graph, core.DefaultConfig())
		if err != nil {
			t.Fatal(err)
		}
		inputs = append(inputs, input{b.ID, c.Graph, b.App.Sources})
	}
	const fbW, fbH = 4, 3
	inputs = append(inputs, input{"feedback", feedbackGraph(fbW, fbH), nil})
	for _, in := range inputs {
		t.Run(in.id, func(t *testing.T) {
			simRes, err := Simulate(in.g, mapping.OneToOne(in.g),
				Options{Machine: machine.Embedded(), Frames: frames})
			if err != nil {
				t.Fatal(err)
			}
			runRes, err := runtime.Run(in.g, runtime.Options{Frames: frames, Sources: in.sources})
			if err != nil {
				t.Fatal(err)
			}
			for _, out := range in.g.Outputs() {
				var rt OutputCount
				for _, it := range runRes.Outputs[out.Name()] {
					switch {
					case !it.IsToken:
						rt.Data++
					case it.Tok.Kind == token.EndOfLine:
						rt.EOL++
					case it.Tok.Kind == token.EndOfFrame:
						rt.EOF++
					}
				}
				sm := simRes.OutputCounts[out.Name()]
				if sm != rt {
					t.Errorf("%s output %q: sim %+v vs runtime %+v", in.id, out.Name(), sm, rt)
				}
			}
			if in.id != "feedback" {
				return
			}
			// Only data circulates: the feedback kernel fires once for its
			// initial value and once per sample, and receives one item per
			// sample.
			if got, want := simRes.Nodes["FB"].Firings, int64(1+frames*fbW*fbH); got != want {
				t.Errorf("sim fired the feedback kernel %d times, want %d", got, want)
			}
			for _, st := range runRes.Stats {
				if st.Node == "FB" && st.Deliveries != frames*fbW*fbH {
					t.Errorf("runtime delivered %d items to the feedback kernel, want %d", st.Deliveries, frames*fbW*fbH)
				}
			}
		})
	}
}

// TestSimMatchesRuntimeSharedBufferVariant repeats the cross-check for
// the Figure 9(a) structure, which exercises the round-robin split and
// join automata on whole-window streams.
func TestSimMatchesRuntimeSharedBufferVariant(t *testing.T) {
	app := apps.ImagePreset(apps.Preset{ID: "SF", W: apps.SmallW, H: apps.SmallH, Samples: apps.FastRate})
	cfg := core.DefaultConfig()
	cfg.BufferStriping = false
	c, err := core.Compile(app.Graph, cfg)
	if err != nil {
		t.Fatal(err)
	}
	simRes, err := Simulate(c.Graph, mapping.OneToOne(c.Graph),
		Options{Machine: machine.Embedded(), Frames: 2})
	if err != nil {
		t.Fatal(err)
	}
	if !simRes.RealTimeMet() {
		t.Error("shared-buffer variant missed real time")
	}
	runRes, err := runtime.Run(c.Graph, runtime.Options{Frames: 2, Sources: app.Sources})
	if err != nil {
		t.Fatal(err)
	}
	var rt OutputCount
	for _, it := range runRes.Outputs["result"] {
		switch {
		case !it.IsToken:
			rt.Data++
		case it.Tok.Kind == token.EndOfLine:
			rt.EOL++
		case it.Tok.Kind == token.EndOfFrame:
			rt.EOF++
		}
	}
	if sm := simRes.OutputCounts["result"]; sm != rt {
		t.Errorf("sim %+v vs runtime %+v", sm, rt)
	}
}

// marker is a test FSM step that passes its stream through and sends
// a custom token after the first data item it sees.
type marker struct{ sent, pend bool }

func (m *marker) Clone() graph.Behavior { return &marker{} }

func (m *marker) Next(h graph.StepHeads, p *graph.StepPlan) (bool, error) {
	tok := h.Head(0)
	if tok == nil {
		return false, nil
	}
	p.View(0, 0, 0, h.Span(0))
	m.pend = m.sent || tok.Kind == token.None
	if m.pend && !m.sent {
		p.Token(0, token.NewCustom("mark", 0))
	}
	return true, nil
}

func (m *marker) Apply() { m.sent = m.pend }

// TestSimMatchesRuntimeCustomTokenError sends a custom token through a
// column split and its join. The split broadcasts it to both stripes
// and the join, which has no rule for a custom token in a row, must
// fail — in the simulator with the runtime's very error, since both run
// the join's one step.
func TestSimMatchesRuntimeCustomTokenError(t *testing.T) {
	const w, h = 6, 2
	g := graph.New("custom-token")
	in := g.AddInput("Input", geom.Sz(w, h), geom.Sz(1, 1), geom.FInt(10))
	m := graph.NewNode("Mark", graph.KindKernel)
	m.CreateInput("in", geom.Sz(1, 1), geom.St(1, 1), geom.Off(0, 0))
	m.CreateOutput("out", geom.Sz(1, 1), geom.St(1, 1))
	m.RegisterMethod("mark", 2, 0)
	m.RegisterMethodInput("mark", "in")
	m.RegisterMethodOutput("mark", "out")
	m.Behavior = &marker{}
	g.Add(m)
	stripes := kernel.ColumnStripes(w, 3, 1, 2)
	split := g.Add(kernel.SplitColumns("S", stripes, w))
	join := g.Add(kernel.JoinColumns("J", []int{stripes[0].InWidth(), stripes[1].InWidth()}, geom.Sz(1, 1)))
	out := g.AddOutput("Output", geom.Sz(1, 1))
	g.Connect(in, "out", m, "in")
	g.Connect(m, "out", split, "in")
	g.Connect(split, "out0", join, "in0")
	g.Connect(split, "out1", join, "in1")
	g.Connect(join, "out", out, "in")

	_, runErr := runtime.Run(g.Clone(), runtime.Options{Frames: 1, Timeout: 10 * time.Second})
	_, simErr := Simulate(g, mapping.OneToOne(g), Options{Machine: machine.Embedded(), Frames: 1})
	if runErr == nil || !strings.Contains(runErr.Error(), `column join "J" unexpected custom(mark)`) {
		t.Fatalf("runtime error = %v, want the column join's", runErr)
	}
	if simErr == nil || simErr.Error() != runErr.Error() {
		t.Fatalf("sim error = %v\nwant the runtime's: %v", simErr, runErr)
	}
}

// TestBinPackMappingMeetsRealTime checks the locality-blind bin-packed
// mapping (the §V ablation) still honors capacity: the packed
// application keeps real time in simulation.
func TestBinPackMappingMeetsRealTime(t *testing.T) {
	app := apps.ImagePreset(apps.Preset{ID: "SF", W: apps.SmallW, H: apps.SmallH, Samples: apps.FastRate})
	c, err := core.Compile(app.Graph, core.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	bp, err := mapping.BinPack(c.Graph, c.Analysis, machine.Embedded())
	if err != nil {
		t.Fatal(err)
	}
	res, err := Simulate(c.Graph, bp, Options{Machine: machine.Embedded(), Frames: 2})
	if err != nil {
		t.Fatal(err)
	}
	if !res.RealTimeMet() {
		t.Errorf("bin-packed mapping missed real time: %d stalls", res.InputStalls)
	}
}
