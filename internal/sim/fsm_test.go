package sim

import (
	"fmt"
	"reflect"
	"testing"

	"blockpar/internal/conn"
	"blockpar/internal/fifo"
	"blockpar/internal/frame"
	"blockpar/internal/geom"
	"blockpar/internal/graph"
	"blockpar/internal/kernel"
	"blockpar/internal/token"
)

// autoHarness drives a node's automaton — the shared graph.Step of an
// FSM kernel, the lowered rule of any other — directly: feed items into
// queues, repeatedly fire (checking output space is irrelevant here),
// and collect produced items per output.
type autoHarness struct {
	t    *testing.T
	n    *graph.Node
	auto automaton
	qs   []fifo.Ring[item]
	f    firing
	out  [][]item
}

func newHarness(t *testing.T, n *graph.Node) *autoHarness {
	t.Helper()
	g := graph.New("harness")
	g.Add(n)
	h := &autoHarness{
		t: t, n: n, auto: newAutomaton(g, n),
		qs:  make([]fifo.Ring[item], len(n.Inputs())),
		f:   newFiring(len(n.Inputs()), len(n.Outputs())),
		out: make([][]item, len(n.Outputs())),
	}
	for i := range h.qs {
		h.qs[i] = fifo.New[item](0, 1<<20)
	}
	return h
}

func (h *autoHarness) queue(input string) *fifo.Ring[item] {
	return &h.qs[portIndex(h.n.Inputs(), input)]
}

func (h *autoHarness) output(name string) []item { return h.out[portIndex(h.n.Outputs(), name)] }

func (h *autoHarness) feed(input string, items ...item) {
	deliver(h.queue(input), items)
}

// propose asks the automaton for its next firing into h.f.
func (h *autoHarness) propose() bool {
	h.f.reset()
	ok, err := h.auto.next(h.qs, &h.f)
	if err != nil {
		h.t.Fatal(err)
	}
	return ok
}

// drain fires the automaton until it stalls, applying consumes and
// collecting produces.
func (h *autoHarness) drain() {
	for h.propose() {
		for in, cnt := range h.f.consume {
			for i := 0; i < cnt; i++ {
				h.qs[in].Drop()
			}
		}
		h.auto.commit()
		for out, items := range h.f.produce {
			h.out[out] = append(h.out[out], items...)
		}
	}
}

// countKinds tallies data items, EOLs, and EOFs on an output.
func countKinds(items []item) (data, eol, eof int) {
	for _, it := range items {
		switch {
		case !it.isTok:
			data++
		case it.tok.Kind == token.EndOfLine:
			eol++
		case it.tok.Kind == token.EndOfFrame:
			eof++
		}
	}
	return data, eol, eof
}

// feedFrame pushes a scan-order frame of 1x1 samples with EOL/EOF.
func (h *autoHarness) feedFrame(input string, w, hgt int, frameSeq int64) {
	for y := 0; y < hgt; y++ {
		for x := 0; x < w; x++ {
			h.feed(input, dataItem(1))
		}
		h.feed(input, tokenItem(token.EOL(int64(y))))
	}
	h.feed(input, tokenItem(token.EOF(frameSeq)))
}

func TestBufferAutoEmissionCounts(t *testing.T) {
	const W, H, K = 10, 8, 3
	n := kernel.Buffer("B", kernel.BufferPlan{DataW: W, DataH: H, WinW: K, WinH: K, StepX: 1, StepY: 1})
	h := newHarness(t, n)
	for f := int64(0); f < 2; f++ {
		h.feedFrame("in", W, H, f)
	}
	h.drain()
	data, eol, eof := countKinds(h.output("out"))
	wantData := 2 * (W - K + 1) * (H - K + 1)
	wantEOL := 2 * (H - K + 1)
	if data != wantData || eol != wantEOL || eof != 2 {
		t.Errorf("buffer emitted %d/%d/%d, want %d/%d/2", data, eol, eof, wantData, wantEOL)
	}
	// Windows carry the full window words.
	for _, it := range h.output("out") {
		if !it.isTok && it.words != K*K {
			t.Fatalf("window words = %d", it.words)
		}
	}
}

// TestSplitJoinRRAutoRoundTrip deals a tagged stream (each data item's
// words are its stream index) through a split and its join: the plain
// round robin and Liu, Barford & Bhattacharyya's strided scatter/gather,
// which deals runs of Stride items per branch. The split must send each
// branch its schedule's items and the join must restore stream order.
func TestSplitJoinRRAutoRoundTrip(t *testing.T) {
	for _, c := range []struct {
		name        string
		split, join *graph.Node
		w           int
		out0, out1  []int64 // the first data items dealt to out0 and out1
	}{
		{"rr", kernel.SplitRR("S", 3, geom.Sz(1, 1)), kernel.JoinRR("J", 3, geom.Sz(1, 1)), 7, []int64{0, 3}, []int64{1, 4}},
		{"stride2", kernel.Scatter("S", conn.Schedule{Ways: 3, Stride: 2}, geom.Sz(1, 1)),
			kernel.Gather("J", conn.Schedule{Ways: 3, Stride: 2}, geom.Sz(1, 1)), 12, []int64{0, 1}, []int64{2, 3}},
	} {
		t.Run(c.name, func(t *testing.T) {
			hs, hj := newHarness(t, c.split), newHarness(t, c.join)
			var want []int64
			for y := 0; y < 2; y++ {
				for x := 0; x < c.w; x++ {
					want = append(want, int64(len(want)))
					hs.feed("in", dataItem(want[len(want)-1]))
				}
				hs.feed("in", tokenItem(token.EOL(int64(y))))
			}
			hs.feed("in", tokenItem(token.EOF(0)))
			hs.drain()
			for out, first := range map[string][]int64{"out0": c.out0, "out1": c.out1} {
				if got := dataWords(hs.output(out))[:2]; !reflect.DeepEqual(got, first) {
					t.Errorf("%s got items %v first, want %v", out, got, first)
				}
			}
			// Pipe each split branch into the join.
			for i := range c.split.Outputs() {
				hj.feed(fmt.Sprintf("in%d", i), hs.output(fmt.Sprintf("out%d", i))...)
			}
			hj.drain()
			joined := hj.output("out")
			if got := dataWords(joined); !reflect.DeepEqual(got, want) {
				t.Errorf("join restored %v, want %v", got, want)
			}
			if data, eol, eof := countKinds(joined); data != 2*c.w || eol != 2 || eof != 1 {
				t.Errorf("join emitted %d/%d/%d, want %d/2/1", data, eol, eof, 2*c.w)
			}
			// Order: data items precede their frame's EOF.
			if last := joined[len(joined)-1]; !last.isTok || last.tok.Kind != token.EndOfFrame {
				t.Errorf("stream does not end with EOF: %v", last)
			}
		})
	}
}

// dataWords lists the words of the data items of a stream.
func dataWords(items []item) []int64 {
	var out []int64
	for _, it := range items {
		if !it.isTok {
			out = append(out, it.words)
		}
	}
	return out
}

func TestColumnSplitAutoOverlapReplication(t *testing.T) {
	const W, H = 12, 4
	stripes := kernel.ColumnStripes(W, 3, 1, 2)
	split := kernel.SplitColumns("S", stripes, W)
	h := newHarness(t, split)
	h.feedFrame("in", W, H, 0)
	h.drain()
	d0, _, _ := countKinds(h.output("out0"))
	d1, _, _ := countKinds(h.output("out1"))
	// Stripe widths 7 + 7 = 14 per row; 2 overlap columns replicated.
	if d0 != stripes[0].InWidth()*H || d1 != stripes[1].InWidth()*H {
		t.Errorf("stripe data = %d/%d, want %d/%d", d0, d1, stripes[0].InWidth()*H, stripes[1].InWidth()*H)
	}
	if d0+d1 != (W+2)*H {
		t.Errorf("total = %d, want %d (overlap replicated)", d0+d1, (W+2)*H)
	}
}

func TestJoinColumnsAutoReassembly(t *testing.T) {
	counts := []int{3, 2}
	join := kernel.JoinColumns("J", counts, geom.Sz(1, 1))
	h := newHarness(t, join)
	// Two rows, then EOF on both branches.
	for row := int64(0); row < 2; row++ {
		for i, c := range counts {
			in := "in" + string(rune('0'+i))
			for j := 0; j < c; j++ {
				h.feed(in, dataItem(1))
			}
			h.feed(in, tokenItem(token.EOL(row)))
		}
	}
	h.feed("in0", tokenItem(token.EOF(0)))
	h.feed("in1", tokenItem(token.EOF(0)))
	h.drain()
	data, eol, eof := countKinds(h.output("out"))
	if data != 10 || eol != 2 || eof != 1 {
		t.Errorf("join emitted %d/%d/%d, want 10/2/1", data, eol, eof)
	}
}

func TestInsetAutoTrims(t *testing.T) {
	plan := kernel.InsetPlan{InW: 6, InH: 5, L: 1, R: 1, T: 1, B: 1}
	n := kernel.Inset("I", plan, geom.Sz(1, 1))
	h := newHarness(t, n)
	h.feedFrame("in", 6, 5, 0)
	h.drain()
	data, eol, eof := countKinds(h.output("out"))
	if data != 12 || eol != 3 || eof != 1 {
		t.Errorf("inset emitted %d/%d/%d, want 12/3/1", data, eol, eof)
	}
}

func TestPadAutoGrows(t *testing.T) {
	plan := kernel.PadPlan{InW: 4, InH: 3, L: 1, R: 2, T: 1, B: 1}
	n := kernel.Pad("P", plan)
	h := newHarness(t, n)
	h.feedFrame("in", 4, 3, 0)
	h.drain()
	data, eol, eof := countKinds(h.output("out"))
	wantData := plan.OutW() * plan.OutH() // 7*5
	if data != wantData || eol != plan.OutH() || eof != 1 {
		t.Errorf("pad emitted %d/%d/%d, want %d/%d/1", data, eol, eof, wantData, plan.OutH())
	}
}

func TestReplicateAutoBroadcasts(t *testing.T) {
	n := kernel.Replicate("R", 3, geom.Sz(5, 5))
	h := newHarness(t, n)
	h.feed("in", dataItem(25), tokenItem(token.EOF(0)))
	h.drain()
	for i := 0; i < 3; i++ {
		data, _, eof := countKinds(h.output(fmt.Sprintf("out%d", i)))
		if data != 1 || eof != 1 {
			t.Errorf("branch %d got %d data, %d EOF", i, data, eof)
		}
	}
}

func TestGenericAutoHistogramTokens(t *testing.T) {
	n := kernel.Histogram("H", 8)
	h := newHarness(t, n)
	// Configure bins first (replicated input), then a 3x2 frame.
	h.feed("bins", dataItem(8), tokenItem(token.EOL(0)), tokenItem(token.EOF(0)))
	h.feedFrame("in", 3, 2, 0)
	h.drain()
	data, _, eof := countKinds(h.output("out"))
	// One partial histogram (8 words) and the EOF forwarded after it.
	if data != 1 || eof != 1 {
		t.Errorf("histogram emitted %d data, %d EOF; want 1, 1", data, eof)
	}
	if h.output("out")[0].words != 8 {
		t.Errorf("partial words = %d", h.output("out")[0].words)
	}
	// EOLs are absorbed (count has no outputs).
	_, eol, _ := countKinds(h.output("out"))
	if eol != 0 {
		t.Errorf("unexpected EOLs forwarded: %d", eol)
	}
}

func TestGenericAutoConfigBarrier(t *testing.T) {
	n := kernel.Histogram("H", 4)
	h := newHarness(t, n)
	// Data before bins: nothing may fire.
	h.feed("in", dataItem(1))
	if h.propose() {
		t.Fatalf("data method fired before configuration: %v", h.f.label)
	}
	// Bins arrive: configureBins then count.
	h.feed("bins", dataItem(4))
	h.drain()
	if h.queue("in").Len() != 0 {
		t.Error("count did not fire after configuration")
	}
}

func TestFeedbackAutoInitialThenPass(t *testing.T) {
	n := kernel.Feedback("F", geom.Sz(1, 1), initialWindows(2))
	h := newHarness(t, n)
	h.drain() // emits initial values without input
	if d, _, _ := countKinds(h.output("out")); d != 2 {
		t.Fatalf("initial emissions = %d, want 2", d)
	}
	h.feed("in", dataItem(1))
	h.drain()
	if d, _, _ := countKinds(h.output("out")); d != 3 {
		t.Errorf("after passthrough = %d, want 3", d)
	}
}

func initialWindows(n int) []frame.Window {
	out := make([]frame.Window, n)
	for i := range out {
		out[i] = frame.Scalar(0)
	}
	return out
}
