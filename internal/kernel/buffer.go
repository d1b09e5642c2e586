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
	n.Behavior = &bufferBehavior{plan: plan, outs: []string{"out"}}
	return n
}

// bufferBehavior is the one window-buffer FSM, behind both Buffer and
// ShareBuffer: every output carries the same scan-order window stream.
type bufferBehavior struct {
	plan BufferPlan
	// ways is a ShareBuffer's fan-out, zero for a Buffer; outs names the
	// outputs ("out", or out0..out{ways-1}).
	ways int
	outs []string
	// ring holds the last WinH input rows (modular by row index) as one
	// dense window of the stream's element kind, allocated on the first
	// data item.
	ring frame.Window
	x, y int
}

func (b *bufferBehavior) Clone() graph.Behavior {
	return &bufferBehavior{plan: b.plan, ways: b.ways, outs: b.outs}
}

// AcceptsBatch implements graph.BatchAware: sample rows arrive whole.
func (b *bufferBehavior) AcceptsBatch(input string) bool { return input == "in" }

func (b *bufferBehavior) reset() {
	b.x, b.y = 0, 0
	for y := 0; y < b.ring.H; y++ {
		clear(b.ring.RowBytes(y))
	}
}

// send delivers one item to every output. A data window gains one
// retained reference per extra consumer; the held reference covers the
// first.
func (b *bufferBehavior) send(ctx graph.RunContext, it graph.Item) {
	if !it.IsToken && len(b.outs) > 1 {
		it.Win.Retain(len(b.outs) - 1)
	}
	for _, out := range b.outs {
		ctx.Send(out, it)
	}
}

func (b *bufferBehavior) Run(ctx graph.RunContext) error {
	p := b.plan
	for {
		it, ok := ctx.Recv("in")
		if !ok {
			return nil
		}
		if it.IsToken {
			switch it.Tok.Kind {
			case token.EndOfLine:
				// Input row boundary: consumed silently; the buffer
				// regenerates EOL at its own output-row boundaries.
				if b.x != p.DataW {
					return fmt.Errorf("kernel: buffer %q got EOL after %d of %d samples",
						ctx.Node().Name(), b.x, p.DataW)
				}
				b.x = 0
				b.y++
			case token.EndOfFrame:
				if b.y != p.DataH {
					return fmt.Errorf("kernel: buffer %q got EOF after %d of %d rows",
						ctx.Node().Name(), b.y, p.DataH)
				}
				b.reset()
				b.send(ctx, it)
			default:
				// Custom tokens pass through in order.
				b.send(ctx, it)
			}
			continue
		}
		n := it.BatchN()
		if it.Win.H != 1 || (n == 1 && it.Win.W != 1) || (n > 1 && it.B.Bw != 1) {
			return fmt.Errorf("kernel: buffer %q expects 1x1 samples, got %v",
				ctx.Node().Name(), it)
		}
		if b.x+n > p.DataW || b.y >= p.DataH {
			return fmt.Errorf("kernel: buffer %q overflow at (%d,%d)+%d for %dx%d region",
				ctx.Node().Name(), b.x, b.y, n, p.DataW, p.DataH)
		}
		if b.ring.W == 0 {
			b.ring = frame.NewWindowKind(it.Win.Kind, p.DataW, p.WinH)
		} else if b.ring.Kind != it.Win.Kind {
			return fmt.Errorf("kernel: buffer %q element kind changed mid-stream (%v -> %v)",
				ctx.Node().Name(), b.ring.Kind, it.Win.Kind)
		}
		x0 := b.x
		b.ingest(it, n)
		it.Win.Release()
		b.emitCompleted(ctx, x0, b.x)
	}
}

// ingest copies the item's n samples into the ring row at columns
// [b.x, b.x+n) and advances the column cursor.
func (b *bufferBehavior) ingest(it graph.Item, n int) {
	es := b.ring.Kind.Bytes()
	dst := b.ring.RowBytes(b.y % b.plan.WinH)
	if n == 1 || int(it.B.Sx) == 1 {
		copy(dst[b.x*es:(b.x+n)*es], it.Win.RowBytes(0))
	} else {
		// Strided batch of 1×1 samples (does not occur on the standard
		// producers, but the descriptor allows it).
		for j := 0; j < n; j++ {
			copy(dst[(b.x+j)*es:(b.x+j+1)*es], it.B.Window(it.Win, j).RowBytes(0))
		}
	}
	b.x += n
}

// emitCompleted emits every window whose bottom-right sample lies in
// the just-ingested column range [x0, x1) of row b.y — as one batched
// span item (one window degrades to a plain item) — plus the row's
// end-of-line token when the range completes the window row. For
// scalar ingest (x1 == x0+1) this reproduces the per-sample emission
// of the unbatched buffer exactly.
func (b *bufferBehavior) emitCompleted(ctx graph.RunContext, x0, x1 int) {
	p := b.plan
	wy := b.y - p.WinH + 1
	if wy < 0 || wy%p.StepY != 0 || wy/p.StepY >= p.OutputRows() {
		return
	}
	nwin := p.WindowsPerRow()
	if nwin == 0 {
		return
	}
	// Window wx completes at sample x = wx+WinW-1, so the completed
	// range is step-aligned wx in [x0-WinW+1, x1-WinW], clamped to the
	// row's window positions.
	first := x0 - p.WinW + 1
	if first < 0 {
		first = 0
	}
	if r := first % p.StepX; r != 0 {
		first += p.StepX - r
	}
	last := x1 - p.WinW
	if m := (nwin - 1) * p.StepX; last > m {
		last = m
	}
	if first > last {
		return
	}
	last -= (last - first) % p.StepX
	count := (last-first)/p.StepX + 1
	spanW := (count-1)*p.StepX + p.WinW
	win := frame.AllocKind(b.ring.Kind, spanW, p.WinH)
	es := b.ring.Kind.Bytes()
	for dy := 0; dy < p.WinH; dy++ {
		src := b.ring.RowBytes((wy + dy) % p.WinH)
		copy(win.RowBytes(dy), src[first*es:(first+spanW)*es])
	}
	b.send(ctx, graph.BatchItem(win, graph.Batch{
		N: int32(count), Sx: int32(p.StepX), Bw: int32(p.WinW),
	}))
	if last == (nwin-1)*p.StepX {
		b.send(ctx, graph.TokenItem(token.EOL(int64(wy/p.StepY))))
	}
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
