package kernel

import (
	"fmt"

	"blockpar/internal/frame"
	"blockpar/internal/geom"
	"blockpar/internal/graph"
	"blockpar/internal/token"
)

// Buffer builds the compiler-inserted 2-D circular buffer kernel
// (paper §III-B): it converts a scan-order stream of 1×1 samples
// covering a plan.DataW×plan.DataH region into the scan-order stream
// of plan-sized windows. The buffer emits its own end-of-line token
// after the last window of each output row and forwards the
// end-of-frame token after the frame completes, so downstream token
// structure always matches downstream data structure.
//
// The buffer accepts row batches on its input (whole sample rows as
// one item) and emits row batches on its output (a whole row of
// windows packed as one dense span item): it is the pivot of the
// batched data plane, collapsing the per-sample and per-window channel
// traffic into per-row traffic. The logical streams are unchanged —
// the emitted span covers exactly the windows the scalar path would
// emit, in the same order — and a scalar producer degrades to the
// per-sample behavior sample by sample.
//
// Memory is sized to double-buffer the larger of input and output
// (plan.MemoryWords), which is what makes buffers the memory-bound
// kernels that the buffer-splitting transformation targets (§IV-C).
func Buffer(name string, plan BufferPlan) *graph.Node {
	if plan.WinW < 1 || plan.WinH < 1 || plan.StepX < 1 || plan.StepY < 1 {
		panic(fmt.Sprintf("kernel: invalid buffer plan %+v", plan))
	}
	n := graph.NewNode(name, graph.KindBuffer)
	n.CreateInput("in", geom.Sz(1, 1), geom.St(1, 1), geom.Off(0, 0))
	n.CreateOutput("out", geom.Sz(plan.WinW, plan.WinH), geom.St(plan.StepX, plan.StepY))
	n.RegisterMethod("buffer", fsmPerItem, plan.MemoryWords())
	n.RegisterMethodInput("buffer", "in")
	n.RegisterMethodOutput("buffer", "out")
	n.Attrs["label"] = plan.Label()
	n.Behavior = &bufferBehavior{plan: plan}
	return n
}

// bufferBehavior is the one window-buffer step, behind both Buffer and
// ShareBuffer: every output carries the same scan-order window stream.
type bufferBehavior struct {
	plan BufferPlan
	// ways is a ShareBuffer's fan-out, zero for a Buffer.
	ways int
	// ring holds the last WinH input rows (modular by row index) as one
	// dense window of the stream's element kind, allocated on the first
	// data item.
	ring frame.Window
	x, y int
	// pend is the step proposed last: where its samples land (column x0
	// of row y), the cursor it leaves, and the window row it completes.
	pend struct{ x0, y, nx, ny, wy int }
}

func (b *bufferBehavior) Clone() graph.Behavior {
	return &bufferBehavior{plan: b.plan, ways: b.ways}
}

// AcceptsBatch implements graph.BatchAware: sample rows arrive whole.
func (b *bufferBehavior) AcceptsBatch(input string) bool { return input == "in" }

// Next implements graph.Step. A data head of n samples lands at
// columns [x, x+n) of the current row; every window whose bottom-right
// sample lies in that range leaves as one fresh span (a scalar head
// completes at most one), followed by the row's end-of-line when the
// range completes the window row. Input end-of-line is consumed (the
// buffer regenerates its own); end-of-frame and custom tokens pass.
func (b *bufferBehavior) Next(h graph.StepHeads, p *graph.StepPlan) (bool, error) {
	tok := h.Head(0)
	if tok == nil {
		return false, nil
	}
	pl := b.plan
	b.pend.x0, b.pend.y, b.pend.nx, b.pend.ny = b.x, b.y, b.x, b.y
	switch tok.Kind {
	case token.None:
		n := h.Span(0)
		if b.x+n > pl.DataW || b.y >= pl.DataH {
			return false, fmt.Errorf("kernel: buffer %q overflow at (%d,%d)+%d for %dx%d region",
				h.Node().Name(), b.x, b.y, n, pl.DataW, pl.DataH)
		}
		p.Take[0] = true
		b.pend.nx = b.x + n
		b.completed(p, b.x, b.x+n)
	case token.EndOfLine:
		if b.x != pl.DataW {
			return false, fmt.Errorf("kernel: buffer %q got EOL after %d of %d samples",
				h.Node().Name(), b.x, pl.DataW)
		}
		p.Take[0] = true
		b.pend.nx, b.pend.ny = 0, b.y+1
	case token.EndOfFrame:
		if b.y != pl.DataH {
			return false, fmt.Errorf("kernel: buffer %q got EOF after %d of %d rows",
				h.Node().Name(), b.y, pl.DataH)
		}
		p.View(graph.AllOutputs, 0, 0, 1)
		b.pend.nx, b.pend.ny = 0, 0
	default:
		p.View(graph.AllOutputs, 0, 0, 1)
	}
	return true, nil
}

// completed plans the windows whose bottom-right sample lies in the
// column range [x0, x1) of row b.y. Window wx completes at sample
// x = wx+WinW-1, so the completed range is step-aligned wx in
// [x0-WinW+1, x1-WinW], clamped to the row's window positions.
func (b *bufferBehavior) completed(p *graph.StepPlan, x0, x1 int) {
	pl := b.plan
	wy := b.y - pl.WinH + 1
	nwin := pl.WindowsPerRow()
	if wy < 0 || wy%pl.StepY != 0 || wy/pl.StepY >= pl.OutputRows() || nwin == 0 {
		return
	}
	first := max(x0-pl.WinW+1, 0)
	if r := first % pl.StepX; r != 0 {
		first += pl.StepX - r
	}
	last := min(x1-pl.WinW, (nwin-1)*pl.StepX)
	if first > last {
		return
	}
	last -= (last - first) % pl.StepX
	b.pend.wy = wy
	p.Fresh(graph.AllOutputs, first/pl.StepX, last/pl.StepX+1)
	if last == (nwin-1)*pl.StepX {
		p.Token(graph.AllOutputs, token.EOL(int64(wy/pl.StepY)))
	}
}

func (b *bufferBehavior) Apply() { b.x, b.y = b.pend.nx, b.pend.ny }

// Take implements graph.StepValues: the head's samples are copied into
// the ring row at the columns the step placed them.
func (b *bufferBehavior) Take(n *graph.Node, _ int32, it *graph.Item) error {
	k := it.BatchN()
	if it.Win.H != 1 || (k == 1 && it.Win.W != 1) || (k > 1 && it.B.Bw != 1) {
		return fmt.Errorf("kernel: buffer %q expects 1x1 samples, got %v", n.Name(), *it)
	}
	if b.ring.W == 0 {
		b.ring = frame.NewWindowKind(it.Win.Kind, b.plan.DataW, b.plan.WinH)
	} else if b.ring.Kind != it.Win.Kind {
		return fmt.Errorf("kernel: buffer %q element kind changed mid-stream (%v -> %v)",
			n.Name(), b.ring.Kind, it.Win.Kind)
	}
	es, x := b.ring.Kind.Bytes(), b.pend.x0
	dst := b.ring.RowBytes(b.pend.y % b.plan.WinH)
	if k == 1 || int(it.B.Sx) == 1 {
		copy(dst[x*es:(x+k)*es], it.Win.RowBytes(0))
		return nil
	}
	// Strided batch of 1×1 samples (does not occur on the standard
	// producers, but the descriptor allows it).
	for j := 0; j < k; j++ {
		copy(dst[(x+j)*es:(x+j+1)*es], it.B.Window(it.Win, j).RowBytes(0))
	}
	return nil
}

// Fresh implements graph.StepValues: windows e.J0..e.J1-1 of the
// completed window row, copied out of the ring as one dense span.
func (b *bufferBehavior) Fresh(e *graph.StepEmit) graph.Item {
	pl := b.plan
	count := int(e.J1 - e.J0)
	first := int(e.J0) * pl.StepX
	spanW := (count-1)*pl.StepX + pl.WinW
	win := frame.AllocKind(b.ring.Kind, spanW, pl.WinH)
	es := b.ring.Kind.Bytes()
	for dy := 0; dy < pl.WinH; dy++ {
		src := b.ring.RowBytes((b.pend.wy + dy) % pl.WinH)
		copy(win.RowBytes(dy), src[first*es:(first+spanW)*es])
	}
	return graph.BatchItem(win, graph.Batch{N: int32(count), Sx: int32(pl.StepX), Bw: int32(pl.WinW)})
}

// BufferPlanOf returns the plan of a buffer node built by Buffer, for
// transform and simulator introspection.
func BufferPlanOf(n *graph.Node) (BufferPlan, bool) {
	b, ok := n.Behavior.(*bufferBehavior)
	if !ok || b.ways > 0 {
		return BufferPlan{}, false
	}
	return b.plan, true
}
