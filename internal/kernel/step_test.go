package kernel

import (
	"fmt"
	"strings"
	"testing"

	"blockpar/internal/frame"
	"blockpar/internal/geom"
	"blockpar/internal/graph"
	"blockpar/internal/token"
)

// stepHarness runs a node's graph.Step over scripted input queues the
// way the runtime's driver does: decide, apply, hand the taken data
// heads to StepValues, then build the emits in order. A script is the
// whole stream, so an empty queue has ended.
type stepHarness struct {
	n    *graph.Node
	step graph.Step
	in   [][]graph.Item
	out  [][]graph.Item
	plan graph.StepPlan
	// discard drops emitted items instead of recording them, releasing
	// fresh windows to the arena (the allocation gate).
	discard bool
}

func newStepHarness(t testing.TB, n *graph.Node) *stepHarness {
	t.Helper()
	st, ok := n.Behavior.(graph.Step)
	if !ok {
		t.Fatalf("%s is not a Step", n.Name())
	}
	return &stepHarness{
		n: n, step: st,
		in:   make([][]graph.Item, len(n.Inputs())),
		out:  make([][]graph.Item, len(n.Outputs())),
		plan: graph.NewStepPlan(len(n.Inputs())),
	}
}

func (h *stepHarness) Head(in int32) *token.Token {
	if len(h.in[in]) == 0 {
		return nil
	}
	return &h.in[in][0].Tok
}

func (h *stepHarness) Span(in int32) int { return h.in[in][0].BatchN() }
func (h *stepHarness) Ended() bool       { return true }
func (h *stepHarness) Node() *graph.Node { return h.n }

func (h *stepHarness) Show(in int32) fmt.Stringer {
	if len(h.in[in]) == 0 {
		return graph.Item{}
	}
	return h.in[in][0]
}

func (h *stepHarness) port(ports []*graph.Port, name string) int {
	for i, p := range ports {
		if p.Name == name {
			return i
		}
	}
	panic("no port " + name)
}

func (h *stepHarness) feed(input string, items ...graph.Item) {
	k := h.port(h.n.Inputs(), input)
	h.in[k] = append(h.in[k], items...)
}

func (h *stepHarness) output(name string) []graph.Item {
	return h.out[h.port(h.n.Outputs(), name)]
}

// feedFrame scripts a scan-order frame of 1×1 samples with EOL/EOF.
func (h *stepHarness) feedFrame(input string, f frame.Window, seq int64) {
	for y := 0; y < f.H; y++ {
		for x := 0; x < f.W; x++ {
			h.feed(input, graph.DataItem(frame.Scalar(f.At(x, y))))
		}
		h.feed(input, graph.TokenItem(token.EOL(int64(y))))
	}
	h.feed(input, graph.TokenItem(token.EOF(seq)))
}

// feedRows scripts the same frame as one row span per row.
func (h *stepHarness) feedRows(input string, f frame.Window, seq int64) {
	for y := 0; y < f.H; y++ {
		h.feed(input, rowSpan(f.View(0, y, f.W, 1)),
			graph.TokenItem(token.EOL(int64(y))))
	}
	h.feed(input, graph.TokenItem(token.EOF(seq)))
}

// rowSpan is a one-row window as a batch of its 1×1 samples.
func rowSpan(row frame.Window) graph.Item {
	return graph.BatchItem(row, graph.Batch{N: int32(row.W), Sx: 1, Bw: 1})
}

// stepOnce takes one step; ok is false when nothing can move.
func (h *stepHarness) stepOnce() (bool, error) {
	h.plan.Reset()
	ok, err := h.step.Next(h, &h.plan)
	if !ok || err != nil {
		return false, err
	}
	h.step.Apply()
	vals, _ := h.step.(graph.StepValues)
	for k, take := range h.plan.Take {
		if take && !h.in[k][0].IsToken && vals != nil {
			if err := vals.Take(h.n, int32(k), &h.in[k][0]); err != nil {
				return false, err
			}
		}
	}
	for i := range h.plan.Emits {
		e := &h.plan.Emits[i]
		var it graph.Item
		switch e.Kind {
		case graph.EmitView:
			it = h.in[e.In][0].Windows(int(e.J0), int(e.J1))
		case graph.EmitToken:
			it = graph.TokenItem(e.Tok)
		case graph.EmitFresh:
			it = vals.Fresh(e)
		}
		if h.discard {
			if e.Kind == graph.EmitFresh {
				it.Win.Release()
			}
			continue
		}
		for o := range h.out {
			if e.Out == graph.AllOutputs || e.Out == int32(o) {
				h.out[o] = append(h.out[o], it)
			}
		}
	}
	for k, take := range h.plan.Take {
		if take {
			h.in[k] = h.in[k][1:]
		}
	}
	return true, nil
}

func dataOf(items []graph.Item) []frame.Window {
	var out []frame.Window
	for _, it := range items {
		if !it.IsToken {
			out = append(out, it.Win)
		}
	}
	return out
}

// run steps until nothing can move.
func (h *stepHarness) run() error {
	for {
		if ok, err := h.stepOnce(); err != nil || !ok {
			return err
		}
	}
}

func TestBufferRunnerProducesWindows(t *testing.T) {
	const W, H, K = 6, 5, 3
	n := Buffer("B", BufferPlan{DataW: W, DataH: H, WinW: K, WinH: K, StepX: 1, StepY: 1})
	h := newStepHarness(t, n)
	img := frame.LCG(1, W, H)
	h.feedFrame("in", img, 0)
	if err := h.run(); err != nil {
		t.Fatal(err)
	}
	wins := dataOf(h.output("out"))
	nX, nY := W-K+1, H-K+1
	if len(wins) != nX*nY {
		t.Fatalf("windows = %d, want %d", len(wins), nX*nY)
	}
	for i, w := range wins {
		x, y := i%nX, i/nX
		if !w.Equal(img.Sub(x, y, K, K)) {
			t.Fatalf("window %d contents wrong", i)
		}
	}
}

func TestBufferRunnerRejectsShortRow(t *testing.T) {
	n := Buffer("B", BufferPlan{DataW: 4, DataH: 2, WinW: 2, WinH: 2, StepX: 1, StepY: 1})
	h := newStepHarness(t, n)
	// Only 3 samples before the EOL (row should have 4).
	for i := 0; i < 3; i++ {
		h.feed("in", graph.DataItem(frame.Scalar(1)))
	}
	h.feed("in", graph.TokenItem(token.EOL(0)))
	err := h.run()
	if err == nil || !strings.Contains(err.Error(), "EOL after 3 of 4") {
		t.Fatalf("short row not rejected: %v", err)
	}
}

func TestBufferRunnerRejectsOversizedItems(t *testing.T) {
	n := Buffer("B", BufferPlan{DataW: 4, DataH: 2, WinW: 2, WinH: 2, StepX: 1, StepY: 1})
	h := newStepHarness(t, n)
	h.feed("in", graph.DataItem(frame.NewWindow(2, 2)))
	if err := h.run(); err == nil {
		t.Fatal("oversized item accepted")
	}
}

func TestBufferRunnerRejectsOverflow(t *testing.T) {
	n := Buffer("B", BufferPlan{DataW: 2, DataH: 1, WinW: 1, WinH: 1, StepX: 1, StepY: 1})
	h := newStepHarness(t, n)
	for i := 0; i < 3; i++ { // one sample too many before EOL
		h.feed("in", graph.DataItem(frame.Scalar(1)))
	}
	if err := h.run(); err == nil {
		t.Fatal("row overflow accepted")
	}
}

func TestJoinRRRunnerTokenSkew(t *testing.T) {
	n := JoinRR("J", 2, geom.Sz(1, 1))
	h := newStepHarness(t, n)
	// Branch 0 delivers EOF; branch 1 delivers a mismatched token.
	h.feed("in0", graph.TokenItem(token.EOF(0)))
	h.feed("in1", graph.TokenItem(token.EOL(0)))
	err := h.run()
	if err == nil || !strings.Contains(err.Error(), "token skew") {
		t.Fatalf("token skew not detected: %v", err)
	}
}

func TestJoinRRRunnerBranchClosedMidToken(t *testing.T) {
	n := JoinRR("J", 2, geom.Sz(1, 1))
	h := newStepHarness(t, n)
	h.feed("in0", graph.TokenItem(token.EOF(0)))
	// in1 empty: closed.
	err := h.run()
	if err == nil || !strings.Contains(err.Error(), "closed mid-token") {
		t.Fatalf("mid-token close not detected: %v", err)
	}
}

func TestSplitColumnsRunnerShortRow(t *testing.T) {
	stripes := ColumnStripes(6, 3, 1, 2)
	n := SplitColumns("S", stripes, 6)
	h := newStepHarness(t, n)
	for i := 0; i < 5; i++ {
		h.feed("in", graph.DataItem(frame.Scalar(1)))
	}
	h.feed("in", graph.TokenItem(token.EOL(0)))
	err := h.run()
	if err == nil || !strings.Contains(err.Error(), "EOL after 5 of 6") {
		t.Fatalf("short row not detected: %v", err)
	}
}

func TestJoinColumnsRunnerMissingEOL(t *testing.T) {
	n := JoinColumns("J", []int{2, 2}, geom.Sz(1, 1))
	h := newStepHarness(t, n)
	// Branch 0 delivers its two items but then data instead of EOL.
	for i := 0; i < 3; i++ {
		h.feed("in0", graph.DataItem(frame.Scalar(1)))
	}
	err := h.run()
	if err == nil || !strings.Contains(err.Error(), "missing EOL") {
		t.Fatalf("missing EOL not detected: %v", err)
	}
}

func TestJoinColumnsRunnerEOFSkew(t *testing.T) {
	n := JoinColumns("J", []int{1, 1}, geom.Sz(1, 1))
	h := newStepHarness(t, n)
	h.feed("in0", graph.TokenItem(token.EOF(0)))
	// Branch 1 has data where EOF is required.
	h.feed("in1", graph.DataItem(frame.Scalar(1)))
	err := h.run()
	if err == nil || !strings.Contains(err.Error(), "EOF skew") {
		t.Fatalf("EOF skew not detected: %v", err)
	}
}

func TestInsetRunnerRegeneratesRows(t *testing.T) {
	n := Inset("I", InsetPlan{InW: 4, InH: 3, L: 1, R: 1, T: 1, B: 1}, geom.Sz(1, 1))
	h := newStepHarness(t, n)
	img := frame.Gradient(0, 4, 3)
	h.feedFrame("in", img, 0)
	if err := h.run(); err != nil {
		t.Fatal(err)
	}
	data := dataOf(h.output("out"))
	if len(data) != 2 {
		t.Fatalf("kept = %d, want 2", len(data))
	}
	if data[0].Value() != img.At(1, 1) || data[1].Value() != img.At(2, 1) {
		t.Error("inset kept wrong samples")
	}
	// EOL regenerated once, EOF forwarded once.
	var eols, eofs int
	for _, it := range h.output("out") {
		if it.IsToken {
			switch it.Tok.Kind {
			case token.EndOfLine:
				eols++
			case token.EndOfFrame:
				eofs++
			}
		}
	}
	if eols != 1 || eofs != 1 {
		t.Errorf("tokens = %d EOL, %d EOF", eols, eofs)
	}
}

func TestPadRunnerShortRow(t *testing.T) {
	n := Pad("P", PadPlan{InW: 3, InH: 2, L: 1, R: 1, T: 0, B: 0})
	h := newStepHarness(t, n)
	h.feed("in", graph.DataItem(frame.Scalar(1)),
		graph.TokenItem(token.EOL(0)))
	err := h.run()
	if err == nil || !strings.Contains(err.Error(), "EOL after 1 of 3") {
		t.Fatalf("short row not detected: %v", err)
	}
}

func TestReplicateRunnerCopiesEverything(t *testing.T) {
	n := Replicate("R", 2, geom.Sz(2, 2))
	h := newStepHarness(t, n)
	h.feed("in", graph.DataItem(frame.NewWindow(2, 2)),
		graph.TokenItem(token.EOF(0)))
	if err := h.run(); err != nil {
		t.Fatal(err)
	}
	for _, out := range []string{"out0", "out1"} {
		if len(h.output(out)) != 2 {
			t.Errorf("%s got %d items, want 2", out, len(h.output(out)))
		}
	}
}

func TestSplitRRRunnerRoundRobin(t *testing.T) {
	n := SplitRR("S", 3, geom.Sz(1, 1))
	h := newStepHarness(t, n)
	for i := 0; i < 7; i++ {
		h.feed("in", graph.DataItem(frame.Scalar(float64(i))))
	}
	if err := h.run(); err != nil {
		t.Fatal(err)
	}
	// Items 0,3,6 to out0; 1,4 to out1; 2,5 to out2.
	if len(h.output("out0")) != 3 || len(h.output("out1")) != 2 || len(h.output("out2")) != 2 {
		t.Fatalf("distribution wrong: %d/%d/%d",
			len(h.output("out0")), len(h.output("out1")), len(h.output("out2")))
	}
	if h.output("out0")[1].Win.Value() != 3 {
		t.Error("round-robin order wrong")
	}
}

func TestFeedbackRunnerInitialValues(t *testing.T) {
	n := Feedback("F", geom.Sz(1, 1), []frame.Window{frame.Scalar(7), frame.Scalar(8)})
	h := newStepHarness(t, n)
	h.feed("in", graph.DataItem(frame.Scalar(9)))
	if err := h.run(); err != nil {
		t.Fatal(err)
	}
	got := dataOf(h.output("out"))
	if len(got) != 3 || got[0].Value() != 7 || got[1].Value() != 8 || got[2].Value() != 9 {
		t.Fatalf("feedback emissions wrong: %v", got)
	}
}

func TestFeedbackInitialSizeMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("mismatched initial window accepted")
		}
	}()
	Feedback("F", geom.Sz(1, 1), []frame.Window{frame.NewWindow(2, 2)})
}

func TestBufferCustomTokenPassThrough(t *testing.T) {
	n := Buffer("B", BufferPlan{DataW: 2, DataH: 1, WinW: 1, WinH: 1, StepX: 1, StepY: 1})
	h := newStepHarness(t, n)
	h.feed("in", graph.DataItem(frame.Scalar(1)),
		graph.TokenItem(token.NewCustom("mark", 0)),
		graph.DataItem(frame.Scalar(2)),
		graph.TokenItem(token.EOL(0)),
		graph.TokenItem(token.EOF(0)))
	if err := h.run(); err != nil {
		t.Fatal(err)
	}
	// Custom token passes through in order between the two windows.
	var sawCustom bool
	for _, it := range h.output("out") {
		if it.IsToken && it.Tok.Kind == token.Custom {
			sawCustom = true
		}
	}
	if !sawCustom {
		t.Error("custom token dropped by buffer")
	}
}
