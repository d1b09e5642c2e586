// Package runtime executes block-parallel application graphs
// functionally: kernel instances exchange items over stream FIFOs with
// control tokens in-band. It is the semantic reference for the system —
// every compiler transformation is verified by running the transformed
// graph here and comparing with the untransformed golden output
// (DESIGN.md §5).
//
// Every kernel runs by one execution model: a rule decides, over its
// input ring heads and under the node's lock, what the next action
// takes and sends, and the action runs outside the lock (driver.go).
// The rules are the ones the timing simulator steps:
//
//   - Invoker kernels fire by their lowered graph.Rule: a method fires
//     when every trigger input's queue head matches (data for data
//     triggers, the right token for token triggers). Unhandled control
//     tokens are forwarded in order to the outputs of the methods fed
//     by that input, once the token has arrived on all of those
//     methods' data inputs (paper §II-C).
//   - The compiler's FSM kernels (buffers, splits, joins, replicates,
//     insets, pads, feedback) step their graph.Step (step.go).
//
// Application inputs and outputs and the cluster's boundary shims are
// endpoints: each runs its own loop over the feed, the result
// collection or the transport.
//
// Replicated inputs act as a configuration barrier: a kernel's data
// methods do not fire until every replicated input has delivered at
// least one item, making coefficient/bin loading deterministic.
//
// The graph is lowered once, at newExecutor, into an index-addressed
// execution plan (plan.go), and every input port is fed through a
// bounded ring whose capacity the plan computes from the compiler's
// analysis (ring.go): the firing path looks nothing up by name, takes
// no global lock, and allocates nothing.
//
// Every node runs on its own goroutine. The rings are the pipeline's
// elasticity and backpressure: a producer that finds a ring full parks
// until its consumer has drained it, and only the deadlock detector
// (executor.unwedge) ever grows a ring past its planned capacity.
//
// Items follow the zero-copy ownership protocol of internal/frame:
// windows travel as stride-aware views over pooled storage, the sender
// retains one reference per consumer at fan-out, and the driver
// releases a kernel's data inputs after each firing. Results are
// compacted into slab storage so callers never pin pool buffers.
package runtime

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"blockpar/internal/fifo"
	"blockpar/internal/frame"
	"blockpar/internal/graph"
	"blockpar/internal/token"
)

// Options configures a functional run.
type Options struct {
	// Frames is how many input frames to generate (default 1).
	Frames int
	// Timeout aborts the run if the outputs have not completed within
	// this wall-clock duration — a watchdog against misbehaving custom
	// kernels deadlocking the pipeline. Zero means no watchdog.
	Timeout time.Duration
	// Sources maps application input node names to frame generators.
	// Inputs without an entry produce frame.Gradient frames.
	Sources map[string]frame.Generator

	// ringCap, when positive, overrides the capacity in items of every
	// input ring the plan sizes (plan.go, "ring capacity"); tests set it
	// to starve the rings and exercise the deadlock detector.
	ringCap int
}

// Result holds everything the application outputs produced.
type Result struct {
	// Outputs maps output node name to the full item stream received,
	// tokens included, in arrival order.
	Outputs map[string][]graph.Item
	// Firings counts logical method invocations per kernel: an FSM
	// kernel's one method counts the data items it took. Used to
	// cross-check the data-flow analysis' predicted iteration counts
	// against actual execution. It is Stats' firing counters keyed by
	// node and method name.
	Firings map[string]map[string]int64
	// Stats is every node's counter block at the end of the run.
	Stats []NodeStats
}

// DataWindows returns just the data windows received by the named
// output, in order.
func (r *Result) DataWindows(output string) []frame.Window {
	var out []frame.Window
	for _, it := range r.Outputs[output] {
		if !it.IsToken {
			out = append(out, it.Win)
		}
	}
	return out
}

// FrameSlices splits the named output's data windows into per-frame
// groups using the end-of-frame tokens.
func (r *Result) FrameSlices(output string) [][]frame.Window {
	var frames [][]frame.Window
	var cur []frame.Window
	for _, it := range r.Outputs[output] {
		if it.IsToken {
			if it.Tok.Kind == token.EndOfFrame {
				frames = append(frames, cur)
				cur = nil
			}
			continue
		}
		cur = append(cur, it.Win)
	}
	if len(cur) > 0 {
		frames = append(frames, cur)
	}
	return frames
}

// executor holds the shared state of one run.
type executor struct {
	opts Options

	// plan is the index-addressed form of the graph; boxes holds each
	// node's rings and counters, indexed like plan.nodes.
	plan  *plan
	boxes []inbox

	stop     chan struct{}
	stopped  atomic.Bool
	stopOnce sync.Once
	// blocked counts producers parked on a full ring; while it is zero
	// a parking consumer skips deadlock detection.
	blocked atomic.Int32

	errMu sync.Mutex
	err   error

	// Output collection (guarded by outMu), indexed like plan.outputs.
	outMu sync.Mutex
	slab  slabAlloc
	outs  []outState

	// Streaming mode (sessions): inputs read frames from feeds (indexed
	// like plan.inputs) instead of generating them, outputs assemble
	// per-frame results onto ready instead of accumulating the raw item
	// stream, and node panics are converted to errors so a bad kernel
	// cannot take down the process. assembled counts completed frame
	// sets (guarded by outMu).
	stream    bool
	feeds     []chan frame.Window
	ready     chan StreamResult
	assembled int64

	wg sync.WaitGroup
}

// outState is one application output's collection state.
type outState struct {
	name string
	// items is the batch-mode stream; eofSeen its end-of-frame count.
	items   []graph.Item
	eofSeen int
	// cur and done are the stream-mode frame assembly: done queues
	// finished frames until every output has one. A blocking Feed does
	// not bound the frames in flight, so done may outgrow MaxInFlight.
	// Batch mode reuses cur as the list a span's windows are cut into.
	cur  []frame.Window
	done fifo.Ring[[]frame.Window]
}

// newExecutor validates the graph and lowers it into the execution
// plan; readyCap > 0 selects streaming mode with that many buffered
// frame results.
func newExecutor(g *graph.Graph, opts Options, readyCap int) (*executor, error) {
	if err := g.Validate(); err != nil {
		return nil, fmt.Errorf("runtime: invalid graph: %w", err)
	}
	ex := &executor{opts: opts, stop: make(chan struct{})}
	ex.plan = buildPlan(g, opts.ringCap)
	ex.boxes = make([]inbox, len(ex.plan.nodes))
	for i := range ex.boxes {
		ex.boxes[i].init(ex, &ex.plan.nodes[i])
	}
	ex.outs = make([]outState, len(ex.plan.outputs))
	for i, id := range ex.plan.outputs {
		ex.outs[i].name = ex.plan.nodes[id].node.Name()
		ex.outs[i].done = fifo.New[[]frame.Window](readyCap, fifo.Unbounded)
	}
	if readyCap > 0 {
		ex.stream = true
		ex.ready = make(chan StreamResult, readyCap)
		ex.feeds = make([]chan frame.Window, len(ex.plan.inputs))
		for i := range ex.feeds {
			ex.feeds[i] = make(chan frame.Window, readyCap)
		}
	}
	return ex, nil
}

// start launches one goroutine per node and returns a channel closed
// when all of them have exited.
func (ex *executor) start() chan struct{} {
	for i := range ex.plan.nodes {
		ex.wg.Add(1)
		go ex.nodeGoroutine(&ex.plan.nodes[i])
	}
	done := make(chan struct{})
	go func() {
		ex.wg.Wait()
		close(done)
	}()
	return done
}

// nodeGoroutine runs one node to completion and retires it: in
// streaming mode a kernel panic becomes the session's error instead of
// crashing the process.
func (ex *executor) nodeGoroutine(pn *planNode) {
	defer func() {
		if ex.stream {
			if r := recover(); r != nil {
				ex.fail(fmt.Errorf("node %q panicked: %v", pn.node.Name(), r))
			}
		}
		// This node will consume and produce nothing more.
		ex.nodeDone(pn)
		ex.wg.Done()
	}()
	if err := ex.runNode(pn); err != nil {
		ex.fail(fmt.Errorf("node %q: %w", pn.node.Name(), err))
	}
}

// runErr returns the first error recorded by fail, if any.
func (ex *executor) runErr() error {
	ex.errMu.Lock()
	defer ex.errMu.Unlock()
	return ex.err
}

// Run executes the graph for opts.Frames frames and returns the
// collected outputs. The graph must Validate cleanly.
func Run(g *graph.Graph, opts Options) (*Result, error) {
	if opts.Frames <= 0 {
		opts.Frames = 1
	}
	ex, err := newExecutor(g, opts, 0)
	if err != nil {
		return nil, err
	}
	done := ex.start()
	if opts.Timeout > 0 {
		select {
		case <-done:
		case <-time.After(opts.Timeout):
			ex.fail(fmt.Errorf("runtime: watchdog: outputs incomplete after %v", opts.Timeout))
			// Give unblocked goroutines a moment to notice the stop
			// signal; a kernel stuck inside a firing is leaked.
			select {
			case <-done:
			case <-time.After(time.Second):
			}
		}
	} else {
		<-done
	}
	if err := ex.runErr(); err != nil {
		return nil, err
	}
	res := &Result{
		Outputs: make(map[string][]graph.Item, len(ex.outs)),
		Firings: make(map[string]map[string]int64),
		Stats:   ex.stats(),
	}
	// The run only succeeded if every output saw its full frame budget
	// (a kernel that silently swallows its stream must not pass).
	for i := range ex.outs {
		o := &ex.outs[i]
		if o.eofSeen < opts.Frames {
			return nil, fmt.Errorf("runtime: output %q completed %d of %d frames",
				o.name, o.eofSeen, opts.Frames)
		}
		res.Outputs[o.name] = o.items
	}
	for _, st := range res.Stats {
		if st.Firings != nil {
			res.Firings[st.Node] = st.Firings
		}
	}
	return res, nil
}

func (ex *executor) fail(err error) {
	ex.errMu.Lock()
	if ex.err == nil {
		ex.err = err
	}
	ex.errMu.Unlock()
	ex.stopAll()
}

// stopAll ends the run: the stop channel releases the session's feed
// and collect selects, and every party parked on a ring is woken to
// observe the flag — the firing path itself never selects.
func (ex *executor) stopAll() {
	ex.stopOnce.Do(func() {
		ex.stopped.Store(true)
		close(ex.stop)
		for i := range ex.boxes {
			ib := &ex.boxes[i]
			ib.mu.Lock()
			ib.avail.Broadcast()
			ib.space.Broadcast()
			ib.mu.Unlock()
		}
	})
}

// acceptsBatch reports whether the edge's consumer handles batched
// items natively: application outputs unbatch at collection, and
// behaviors opt in per input via graph.BatchAware.
func acceptsBatch(e *graph.Edge) bool {
	n := e.To.Node()
	if n.Kind == graph.KindOutput {
		return true
	}
	ba, ok := n.Behavior.(graph.BatchAware)
	return ok && ba.AcceptsBatch(e.To.Name)
}

// send delivers an item to every consumer of output o of node pn,
// adding one pool reference per extra consumer (ownership protocol:
// the caller's reference covers the first consumer). Once the run is
// stopping deliveries are dropped and their references released.
func (ex *executor) send(pn *planNode, o int32, it graph.Item) {
	edges := pn.outs[o].edges
	if !it.IsToken && it.B.IsBatch() {
		ex.sendBatch(pn.id, edges, it)
		return
	}
	if !it.IsToken && len(edges) > 1 {
		it.Win.Retain(len(edges) - 1)
	}
	for i := range edges {
		ex.put(pn.id, &edges[i], &it)
	}
}

// sendBatch fans a row batch out: batch-accepting consumers receive the
// one physical item; everyone else receives its N logical windows as
// view items in stream order, so non-batch-aware kernels (and the wire
// transport behind boundary sinks) observe the exact scalar stream they
// always did. Reference math: every delivered item — batch or view — is
// one consumer-side release, so the total retained is (deliveries - 1)
// on top of the caller's reference.
func (ex *executor) sendBatch(from int32, edges []planEdge, it graph.Item) {
	n := int(it.B.N)
	total := 0
	for i := range edges {
		if edges[i].batchOK {
			total++
		} else {
			total += n
		}
	}
	if total == 0 {
		it.Win.Release()
		return
	}
	it.Win.Retain(total - 1)
	for i := range edges {
		e := &edges[i]
		if e.batchOK {
			ex.put(from, e, &it)
			continue
		}
		for j := 0; j < n; j++ {
			view := graph.DataItem(it.B.Window(it.Win, j))
			ex.put(from, e, &view)
		}
	}
}

// runNode executes one node to completion on the calling goroutine.
func (ex *executor) runNode(pn *planNode) error {
	n := pn.node
	switch n.Kind {
	case graph.KindInput:
		if ex.stream {
			return ex.runInputStream(pn)
		}
		return ex.runInput(pn)
	case graph.KindOutput:
		if ex.stream {
			return ex.runOutputStream(pn)
		}
		return ex.runOutput(pn)
	case graph.KindBoundary:
		return ex.runBoundary(pn)
	}
	switch {
	case pn.step != nil:
		return ex.drive(&ex.boxes[pn.id], newStepper(ex, pn))
	case pn.invoker != nil:
		return ex.drive(&ex.boxes[pn.id], newDriver(ex, pn))
	case n.Behavior == nil:
		return fmt.Errorf("runtime: node %q has no behavior", n.Name())
	}
	return fmt.Errorf("runtime: node %q behavior implements neither Invoker nor Step", n.Name())
}

// nodeDone retires a node that has finished: its own rings are
// released and every consumer loses a producer.
func (ex *executor) nodeDone(pn *planNode) {
	ex.boxes[pn.id].finish()
	for _, c := range pn.consumers {
		ex.boxes[c].producerDone()
	}
}

// emitFrame chunks one frame into scan-order items with end-of-line
// and end-of-frame tokens (paper §II-C: these two tokens are generated
// automatically by the data inputs). The chunks are stride-aware views
// of img — zero allocations per item — so img must stay immutable while
// the frame is in flight.
//
// emitFrame takes ownership of img when it is pooled (a frame decoded
// off the cluster wire, for instance): each emitted view carries its
// own reference to the shared backing — the chunk count minus one
// retained here plus the caller's original — so the standard
// release-after-consume protocol returns the storage to the arena
// exactly when the last chunk has been consumed.
func (ex *executor) emitFrame(pn *planNode, fw, fh, cw, ch int, img frame.Window, f int64) {
	const out = 0 // an application input's one port
	cols, rows := fw/cw, fh/ch
	if cols > 1 {
		// Row-batched chunking: one physical item per chunk row instead
		// of one per chunk. Each batch carries one reference; send
		// retains whatever extra its fan-out (or per-edge splitting)
		// needs, so the backing returns to the arena exactly when the
		// last logical chunk is consumed.
		if rows > 1 {
			img.Retain(rows - 1)
		}
		row := f * int64(rows)
		b := graph.Batch{N: int32(cols), Sx: int32(cw), Bw: int32(cw)}
		for y := 0; y+ch <= fh; y += ch {
			ex.send(pn, out, graph.BatchItem(img.View(0, y, fw, ch), b))
			ex.send(pn, out, graph.TokenItem(token.EOL(row)))
			row++
		}
		ex.send(pn, out, graph.TokenItem(token.EOF(f)))
		return
	}
	if chunks := rows * cols; chunks > 1 {
		img.Retain(chunks - 1)
	}
	row := f * int64(rows)
	for y := 0; y+ch <= fh; y += ch {
		for x := 0; x+cw <= fw; x += cw {
			ex.send(pn, out, graph.DataItem(img.View(x, y, cw, ch)))
		}
		ex.send(pn, out, graph.TokenItem(token.EOL(row)))
		row++
	}
	ex.send(pn, out, graph.TokenItem(token.EOF(f)))
}

// runInput generates opts.Frames frames of scan-order chunks.
func (ex *executor) runInput(pn *planNode) error {
	n := pn.node
	gen := ex.opts.Sources[n.Name()]
	if gen == nil {
		gen = frame.Gradient
	}
	chunk := n.Output("out").Size
	fs := n.FrameSize
	if fs.W%chunk.W != 0 || fs.H%chunk.H != 0 {
		return fmt.Errorf("runtime: input %q frame %v not divisible by chunk %v", n.Name(), fs, chunk)
	}
	for f := 0; f < ex.opts.Frames; f++ {
		if ex.stopped.Load() {
			return nil
		}
		img := gen(int64(f), fs.W, fs.H)
		ex.emitFrame(pn, fs.W, fs.H, chunk.W, chunk.H, img, int64(f))
	}
	return nil
}

// collectOutput ingests one data window into the result slab: the
// samples are copied into append-only slab blocks and the original is
// released, so the caller-visible result never pins pooled storage.
// Must be called with outMu held.
func (ex *executor) collectOutput(w frame.Window) frame.Window {
	placed := ex.slab.place(w)
	w.Release()
	return placed
}

// collectBatch unbatches a row batch into per-window slab views —
// application outputs always present the logical stream. The batch's
// span is placed into the slab with one copy and the logical windows
// are cut from that dense copy in one pass, so unbatching costs one
// memmove per row and one header store per window. Must be called
// with outMu held.
func (ex *executor) collectBatch(dst []frame.Window, it graph.Item) []frame.Window {
	dense := ex.collectOutput(it.Win)
	return dense.AppendColumns(dst, int(it.B.N), int(it.B.Sx), int(it.B.Bw))
}

// runOutput collects the stream and stops the run once every output
// has seen the full frame budget.
func (ex *executor) runOutput(pn *planNode) error {
	ib := &ex.boxes[pn.id]
	o := &ex.outs[pn.io]
	for {
		it, ok := ib.take()
		if !ok {
			return nil
		}
		ex.outMu.Lock()
		switch {
		case it.IsToken:
			o.items = append(o.items, it)
		case it.B.IsBatch():
			// Unbatch in place: one slab placement for the span, cut
			// into its logical windows through cur, one append each.
			o.cur = ex.collectBatch(o.cur[:0], it)
			for i := range o.cur {
				o.items = append(o.items, graph.DataItem(o.cur[i]))
			}
		default:
			it.Win = ex.collectOutput(it.Win)
			o.items = append(o.items, it)
		}
		if it.IsToken && it.Tok.Kind == token.EndOfFrame {
			o.eofSeen++
			if o.eofSeen == 1 && ex.opts.Frames > 1 {
				// The first frame fixes the per-frame item count; reserve
				// the whole run's worth in one allocation instead of
				// doubling through growslice for every remaining frame.
				if need := len(o.items)*ex.opts.Frames + 8; cap(o.items) < need {
					grown := make([]graph.Item, len(o.items), need)
					copy(grown, o.items)
					o.items = grown
				}
			}
			done := true
			for i := range ex.outs {
				if ex.outs[i].eofSeen < ex.opts.Frames {
					done = false
					break
				}
			}
			if done {
				ex.outMu.Unlock()
				ex.stopAll()
				return nil
			}
		}
		ex.outMu.Unlock()
	}
}

// slabAlloc packs output windows into append-only blocks. Blocks are
// never reallocated — when one fills, a fresh block starts and the old
// one stays alive exactly as long as the result windows placed in it —
// so placing is a copy plus slice arithmetic, with one allocation per
// block instead of one per window. F64 windows pack into a float64
// slab; typed windows pack into a byte slab (8-aligned blocks, offsets
// rounded to 8 so f32 views stay aligned), preserving their kind.
type slabAlloc struct {
	buf []float64
	raw []byte
}

// slabBlock is the block granularity in samples (128 KiB blocks).
const slabBlock = 1 << 14

// place copies w into slab storage and returns the dense copy.
func (s *slabAlloc) place(w frame.Window) frame.Window {
	if w.Kind != frame.F64 {
		return s.placeTyped(w)
	}
	n := w.W * w.H
	if n == 0 {
		return frame.Window{W: w.W, H: w.H}
	}
	if len(s.buf)+n > cap(s.buf) {
		c := slabBlock
		if n > c {
			c = n
		}
		s.buf = make([]float64, 0, c)
	}
	off := len(s.buf)
	s.buf = s.buf[:off+n]
	dst := s.buf[off : off+n : off+n]
	stride := w.RowStride()
	for y := 0; y < w.H; y++ {
		copy(dst[y*w.W:(y+1)*w.W], w.Pix[y*stride:y*stride+w.W])
	}
	return frame.Window{W: w.W, H: w.H, Pix: dst}
}

func (s *slabAlloc) placeTyped(w frame.Window) frame.Window {
	es := w.Kind.Bytes()
	nb := w.W * w.H * es
	if nb == 0 {
		return frame.NewWindowKind(w.Kind, w.W, w.H)
	}
	// Round the write offset up to 8 bytes so f32 views are aligned.
	off := (len(s.raw) + 7) &^ 7
	if off+nb > cap(s.raw) {
		c := slabBlock * 8
		if nb > c {
			c = nb
		}
		s.raw = frame.AlignedBytes(c)
		off = 0
	}
	s.raw = s.raw[:off+nb]
	dst := s.raw[off : off+nb : off+nb]
	for y := 0; y < w.H; y++ {
		copy(dst[y*w.W*es:(y+1)*w.W*es], w.RowBytes(y))
	}
	return frame.WrapBytes(w.Kind, w.W, w.H, dst)
}
