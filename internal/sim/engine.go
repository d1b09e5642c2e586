package sim

import (
	"fmt"
	"sort"

	"blockpar/internal/fifo"
	"blockpar/internal/graph"
	"blockpar/internal/machine"
	"blockpar/internal/mapping"
	"blockpar/internal/token"
)

// Options configures a simulation run.
type Options struct {
	Machine machine.Machine
	// Frames is how many input frames to simulate (default 2).
	Frames int
	// QueueCap bounds each input port's FIFO. Zero selects an
	// analysis-free default generous enough for the pipeline skew of
	// windowed diamonds (a few input rows).
	QueueCap int
	// TraceLimit, when positive, records up to that many firings into
	// Result.Trace for inspection (CSV export, Gantt rendering).
	TraceLimit int
	// WarmupFrames excludes the first N frames from the utilization
	// statistics, measuring steady state only. Latencies and output
	// counts still cover the whole run.
	WarmupFrames int
}

// PEStats aggregates one PE's busy time, split the way Figure 13
// reports it.
type PEStats struct {
	Run, Read, Write float64 // seconds busy
	Firings          int64
}

// Busy returns total busy seconds.
func (s PEStats) Busy() float64 { return s.Run + s.Read + s.Write }

// Result is the outcome of a simulation.
type Result struct {
	// Time is the simulated makespan in seconds.
	Time float64
	PEs  []PEStats
	// FramesOut counts frames delivered at every output.
	FramesOut int
	// InputStalls counts samples that could not be accepted on time;
	// StallTime is their cumulative lateness in seconds.
	InputStalls int64
	StallTime   float64
	// Throughput is output frames per second.
	Throughput float64
	// Exceptions counts runtime resource exceptions per kernel:
	// dynamic-method invocations whose actual cost exceeded their
	// declared bound and were truncated (§VII extension).
	Exceptions map[string]int64
	// Nodes aggregates busy time per kernel (across its PE's share),
	// for identifying which kernels dominate a mapping.
	Nodes map[string]PEStats
	// Latencies records, per output node, each frame's completion
	// latency: the time between the frame's first input sample being
	// due and its end-of-frame token reaching the output. The paper
	// notes communication delay "will only increase the latency for
	// the first output, but will not impact the throughput" — this is
	// the quantity it refers to.
	Latencies map[string][]float64
	// OutputCounts tallies the items each output received, used to
	// cross-check the timing simulation against the functional runtime
	// (both engines must agree on stream structure exactly).
	OutputCounts map[string]OutputCount
	// Trace holds the recorded firings when Options.TraceLimit > 0.
	Trace *Trace
	// MeasuredFrom is the simulated time utilization statistics start
	// (0 unless WarmupFrames was set).
	MeasuredFrom float64
}

// OutputCount is the item tally of one application output.
type OutputCount struct {
	Data, EOL, EOF int64
}

// MaxLatency returns the worst frame latency across outputs.
func (r *Result) MaxLatency() float64 {
	var max float64
	for _, ls := range r.Latencies {
		for _, l := range ls {
			if l > max {
				max = l
			}
		}
	}
	return max
}

// TotalExceptions sums resource exceptions across kernels.
func (r *Result) TotalExceptions() int64 {
	var total int64
	for _, c := range r.Exceptions {
		total += c
	}
	return total
}

// RealTimeMet reports whether the inputs were always accepted on time
// (the paper's criterion: the application keeps up with the input
// rate).
func (r *Result) RealTimeMet() bool { return r.InputStalls == 0 }

// measuredSpan is the window utilization statistics cover: the whole
// run, or the post-warmup steady state when WarmupFrames was set.
func (r *Result) measuredSpan() float64 { return r.Time - r.MeasuredFrom }

// MeanUtilization returns the mean PE busy fraction over the measured
// window.
func (r *Result) MeanUtilization() float64 {
	span := r.measuredSpan()
	if len(r.PEs) == 0 || span <= 0 {
		return 0
	}
	var sum float64
	for _, pe := range r.PEs {
		sum += pe.Busy() / span
	}
	return sum / float64(len(r.PEs))
}

// Breakdown returns the mean run/read/write utilization fractions
// across PEs (the Figure 13 stack) over the measured window.
func (r *Result) Breakdown() (run, read, write float64) {
	span := r.measuredSpan()
	if len(r.PEs) == 0 || span <= 0 {
		return 0, 0, 0
	}
	for _, pe := range r.PEs {
		run += pe.Run / span
		read += pe.Read / span
		write += pe.Write / span
	}
	n := float64(len(r.PEs))
	return run / n, read / n, write / n
}

// event is a heap entry.
type event struct {
	t    float64
	seq  int64
	kind int // 0 = input emission, 1 = PE completion
	idx  int
}

// eventHeap is a binary min-heap of events in (t, seq) order; seq is
// unique, so the order is total and the pop sequence deterministic.
type eventHeap []event

func (h eventHeap) less(i, j int) bool {
	if h[i].t != h[j].t {
		return h[i].t < h[j].t
	}
	return h[i].seq < h[j].seq
}

func (h *eventHeap) push(ev event) {
	*h = append(*h, ev)
	s := *h
	for i := len(s) - 1; i > 0; {
		p := (i - 1) / 2
		if !s.less(i, p) {
			break
		}
		s[i], s[p] = s[p], s[i]
		i = p
	}
}

// pop removes and returns the earliest event. The heap must be
// non-empty.
func (h *eventHeap) pop() event {
	s := *h
	top, n := s[0], len(s)-1
	s[0] = s[n]
	s = s[:n]
	for i := 0; ; {
		c := 2*i + 1
		if c >= n {
			break
		}
		if r := c + 1; r < n && s.less(r, c) {
			c = r
		}
		if !s.less(c, i) {
			break
		}
		s[i], s[c] = s[c], s[i]
		i = c
	}
	*h = s
	return top
}

// dest is one fan-out delivery: the consumer and its input index.
type dest struct {
	ns *nodeState
	in int
}

type nodeState struct {
	node *graph.Node
	auto automaton
	// qs holds one queue per input and outs the destinations of each
	// output, both in port order.
	qs   []fifo.Ring[item]
	outs [][]dest
	// f is the node's firing, rebuilt for every proposal.
	f firing
}

type peState struct {
	kernels []*nodeState
	rr      int
	busy    bool
	// pending is the node whose firing is in flight.
	pending *nodeState
	stats   PEStats
}

type inputState struct {
	ns  *nodeState
	idx int
	// cursor
	x, y, frame int
	chunkW      int
	chunkH      int
	interval    float64 // seconds per chunk
	due         float64
	stalled     bool
	done        bool
}

type engine struct {
	g     *graph.Graph
	opts  Options
	nodes map[*graph.Node]*nodeState
	pes   []*peState
	ins   []*inputState
	// outNodes lists the application outputs in graph order; eofs
	// counts the end-of-frame tokens each has received.
	outNodes []*graph.Node
	eofs     []int

	events eventHeap
	seq    int64
	now    float64

	stalls     int64
	stallTime  float64
	processed  int64
	exceptions map[string]int64
	nodeStats  map[string]*PEStats
	latencies  map[string][]float64
	outCounts  map[string]*OutputCount
	// frameStart is when each frame's first input sample is due (from
	// the first application input).
	frameStart []float64

	trace *Trace
	// err is a kernel's malformed-stream error; it ends the run.
	err error
	// measuring turns on statistics accumulation; warmupLeft counts
	// frames still to complete at the outputs before it flips on.
	measuring    bool
	measuredFrom float64
	warmupLeft   int
}

// maxEvents aborts a runaway simulation.
const maxEvents = 50_000_000

// Simulate runs the mapped application for opts.Frames frames.
func Simulate(g *graph.Graph, assign *mapping.Assignment, opts Options) (*Result, error) {
	if err := opts.Machine.Validate(); err != nil {
		return nil, err
	}
	if err := g.Validate(); err != nil {
		return nil, fmt.Errorf("sim: %w", err)
	}
	if opts.Frames <= 0 {
		opts.Frames = 2
	}
	if opts.QueueCap <= 0 {
		maxW := 64
		for _, in := range g.Inputs() {
			if in.FrameSize.W > maxW {
				maxW = in.FrameSize.W
			}
		}
		opts.QueueCap = 8 * maxW
	}

	e := &engine{
		g:          g,
		opts:       opts,
		nodes:      make(map[*graph.Node]*nodeState),
		outNodes:   g.Outputs(),
		exceptions: make(map[string]int64),
		nodeStats:  make(map[string]*PEStats),
		latencies:  make(map[string][]float64),
		outCounts:  make(map[string]*OutputCount),
		measuring:  opts.WarmupFrames <= 0,
		warmupLeft: opts.WarmupFrames,
	}
	if opts.TraceLimit > 0 {
		e.trace = &Trace{}
	}
	if opts.WarmupFrames >= opts.Frames {
		return nil, fmt.Errorf("sim: warmup %d must be below frames %d", opts.WarmupFrames, opts.Frames)
	}
	e.eofs = make([]int, len(e.outNodes))
	e.pes = make([]*peState, assign.NumPEs)
	for i := range e.pes {
		e.pes[i] = &peState{}
	}

	for _, n := range g.Nodes() {
		ns := &nodeState{
			node: n,
			qs:   make([]fifo.Ring[item], len(n.Inputs())),
			outs: make([][]dest, len(n.Outputs())),
			f:    newFiring(len(n.Inputs()), len(n.Outputs())),
		}
		for k := range ns.qs {
			ns.qs[k] = fifo.New[item](0, opts.QueueCap)
		}
		e.nodes[n] = ns
		switch n.Kind {
		case graph.KindInput:
			chunk := n.Output("out").Size
			chunksPerFrame := float64((n.FrameSize.W / chunk.W) * (n.FrameSize.H / chunk.H))
			ins := &inputState{
				ns: ns, idx: len(e.ins), chunkW: chunk.W, chunkH: chunk.H,
				interval: 1 / (n.Rate.Float() * chunksPerFrame),
			}
			e.ins = append(e.ins, ins)
		case graph.KindOutput: // drained by sweep
		default:
			ns.auto = newAutomaton(g, n)
			pe, ok := assign.PEOf[n]
			if !ok {
				return nil, fmt.Errorf("sim: node %q has no PE assignment", n.Name())
			}
			e.pes[pe].kernels = append(e.pes[pe].kernels, ns)
		}
	}
	for _, edge := range g.Edges() {
		from, to := e.nodes[edge.From.Node()], e.nodes[edge.To.Node()]
		o := portIndex(from.node.Outputs(), edge.From.Name)
		from.outs[o] = append(from.outs[o], dest{ns: to, in: portIndex(to.node.Inputs(), edge.To.Name)})
	}
	// Frame start times from the first input's schedule, for latency
	// accounting.
	if len(e.ins) > 0 {
		first := e.ins[0]
		fs := first.ns.node.FrameSize
		chunksPerFrame := float64((fs.W / first.chunkW) * (fs.H / first.chunkH))
		period := first.interval * chunksPerFrame
		for f := 0; f < opts.Frames; f++ {
			e.frameStart = append(e.frameStart, float64(f)*period)
		}
	}

	// Keep per-PE kernel order deterministic.
	for _, pe := range e.pes {
		sort.Slice(pe.kernels, func(i, j int) bool {
			return pe.kernels[i].node.Name() < pe.kernels[j].node.Name()
		})
	}

	for i := range e.ins {
		e.push(event{t: 0, kind: 0, idx: i})
	}

	if err := e.run(); err != nil {
		return nil, err
	}

	res := &Result{
		Time:         e.now,
		FramesOut:    opts.Frames,
		InputStalls:  e.stalls,
		StallTime:    e.stallTime,
		Exceptions:   e.exceptions,
		Nodes:        make(map[string]PEStats, len(e.nodeStats)),
		Latencies:    e.latencies,
		OutputCounts: make(map[string]OutputCount, len(e.outCounts)),
		Trace:        e.trace,
		MeasuredFrom: e.measuredFrom,
	}
	for name, st := range e.nodeStats {
		res.Nodes[name] = *st
	}
	for name, oc := range e.outCounts {
		res.OutputCounts[name] = *oc
	}
	for _, pe := range e.pes {
		res.PEs = append(res.PEs, pe.stats)
	}
	if e.now > 0 {
		res.Throughput = float64(opts.Frames) / e.now
	}
	return res, nil
}

func (e *engine) push(ev event) {
	ev.seq = e.seq
	e.seq++
	e.events.push(ev)
}

func (e *engine) done() bool {
	for _, c := range e.eofs {
		if c < e.opts.Frames {
			return false
		}
	}
	return true
}

func (e *engine) run() error {
	for len(e.events) > 0 {
		ev := e.events.pop()
		e.now = ev.t
		e.processed++
		if e.processed > maxEvents {
			return fmt.Errorf("sim: exceeded %d events at t=%g", maxEvents, e.now)
		}
		switch ev.kind {
		case 0:
			e.tryEmit(e.ins[ev.idx])
		case 1:
			e.complete(e.pes[ev.idx])
		}
		e.sweep()
		if e.err != nil {
			return e.err
		}
		if e.done() {
			return nil
		}
	}
	if e.done() {
		return nil
	}
	return fmt.Errorf("sim: deadlock at t=%g: outputs saw %v of %d frames\n%s",
		e.now, e.eofs, e.opts.Frames, e.queueDump())
}

// queueDump renders the non-empty input queues for deadlock diagnosis.
func (e *engine) queueDump() string {
	s := "stuck queues:\n"
	for _, n := range e.g.Nodes() {
		ns := e.nodes[n]
		for k, p := range n.Inputs() {
			q := &ns.qs[k]
			if q.Len() == 0 {
				continue
			}
			s += fmt.Sprintf("  %s.%s: %d queued, head %v\n", n.Name(), p.Name, q.Len(), *q.Peek())
		}
	}
	return s
}

// sweep drains outputs, retries stalled inputs, and starts work on idle
// PEs until nothing changes at the current timestamp.
func (e *engine) sweep() {
	for {
		progress := false
		for i := range e.outNodes {
			if e.drainOutput(i) {
				progress = true
			}
		}
		for _, in := range e.ins {
			if in.stalled {
				if e.tryEmit(in) {
					progress = true
				}
			}
		}
		for idx, pe := range e.pes {
			if !pe.busy && e.startWork(pe, idx) {
				progress = true
			}
		}
		if !progress || e.err != nil {
			return
		}
	}
}

func (e *engine) drainOutput(i int) bool {
	n := e.outNodes[i]
	q := &e.nodes[n].qs[0]
	progress := false
	oc := e.outCounts[n.Name()]
	if oc == nil {
		oc = &OutputCount{}
		e.outCounts[n.Name()] = oc
	}
	for q.Len() > 0 {
		it := q.Pop()
		switch {
		case !it.isTok:
			oc.Data++
		case it.tok.Kind == token.EndOfLine:
			oc.EOL++
		case it.tok.Kind == token.EndOfFrame:
			oc.EOF++
			frameIdx := e.eofs[i]
			e.eofs[i]++
			start := 0.0
			if frameIdx < len(e.frameStart) {
				start = e.frameStart[frameIdx]
			}
			e.latencies[n.Name()] = append(e.latencies[n.Name()], e.now-start)
			if !e.measuring {
				done := true
				for _, c := range e.eofs {
					if c < e.warmupLeft {
						done = false
						break
					}
				}
				if done {
					e.measuring = true
					e.measuredFrom = e.now
				}
			}
		}
		progress = true
	}
	return progress
}

// emission is what one input step delivers: the chunk plus any tokens.
func (in *inputState) emission() []item {
	chunkWords := int64(in.chunkW) * int64(in.chunkH)
	items := []item{dataItem(chunkWords)}
	fs := in.ns.node.FrameSize
	lastX := in.x+in.chunkW >= fs.W
	lastY := in.y+in.chunkH >= fs.H
	if lastX {
		items = append(items, tokenItem(token.EOL(int64(in.frame*(fs.H/in.chunkH)+in.y/in.chunkH))))
		if lastY {
			items = append(items, tokenItem(token.EOF(int64(in.frame))))
		}
	}
	return items
}

func (in *inputState) advance() {
	fs := in.ns.node.FrameSize
	in.x += in.chunkW
	if in.x+in.chunkW > fs.W {
		in.x = 0
		in.y += in.chunkH
		if in.y+in.chunkH > fs.H {
			in.y = 0
			in.frame++
		}
	}
}

// tryEmit delivers the input's due chunk if every fan-out destination
// has room; otherwise it records the stall and waits for a delivery to
// retry. Returns whether it emitted.
func (e *engine) tryEmit(in *inputState) bool {
	if in.done {
		return false
	}
	items := in.emission()
	for _, d := range in.ns.outs[0] {
		if space(&d.ns.qs[d.in]) < len(items) {
			if !in.stalled {
				in.stalled = true
			}
			return false
		}
	}
	if in.stalled {
		e.stalls++
		e.stallTime += e.now - in.due
		in.stalled = false
	}
	for _, d := range in.ns.outs[0] {
		deliver(&d.ns.qs[d.in], items)
	}
	in.advance()
	if in.frame >= e.opts.Frames {
		in.done = true
		return true
	}
	in.due += in.interval
	next := in.due
	if next < e.now {
		next = e.now
	}
	e.push(event{t: next, kind: 0, idx: in.idx})
	return true
}

// startWork picks the PE's next runnable kernel round-robin and starts
// its firing: inputs are consumed and the automaton committed at start;
// outputs are delivered at completion.
func (e *engine) startWork(pe *peState, peIdx int) bool {
	n := len(pe.kernels)
	for off := 0; off < n; off++ {
		ns := pe.kernels[(pe.rr+off)%n]
		f := &ns.f
		f.reset()
		ok, err := ns.auto.next(ns.qs, f)
		if err != nil {
			// The runtime's words for the same failure.
			e.err = fmt.Errorf("node %q: %w", ns.node.Name(), err)
			return false
		}
		if !ok || !ns.hasSpace() {
			continue
		}
		// Consume inputs and commit state now.
		var readW int64
		for in, cnt := range f.consume {
			for ; cnt > 0; cnt-- {
				readW += ns.qs[in].Pop().words
			}
		}
		ns.auto.commit()
		if f.exceeded {
			e.exceptions[ns.node.Name()]++
		}
		m := e.opts.Machine.PE
		dur := float64(readW*m.ReadCost+f.cycles+f.writeWords()*m.WriteCost) / float64(m.CyclesPerSec)
		pe.busy = true
		pe.pending = ns
		pe.rr = (pe.rr + off + 1) % n
		if e.measuring {
			pe.stats.Firings++
			pe.stats.Read += float64(readW*m.ReadCost) / float64(m.CyclesPerSec)
			pe.stats.Run += float64(f.cycles) / float64(m.CyclesPerSec)
			pe.stats.Write += float64(f.writeWords()*m.WriteCost) / float64(m.CyclesPerSec)
			nst := e.nodeStats[ns.node.Name()]
			if nst == nil {
				nst = &PEStats{}
				e.nodeStats[ns.node.Name()] = nst
			}
			nst.Firings++
			nst.Read += float64(readW*m.ReadCost) / float64(m.CyclesPerSec)
			nst.Run += float64(f.cycles) / float64(m.CyclesPerSec)
			nst.Write += float64(f.writeWords()*m.WriteCost) / float64(m.CyclesPerSec)
		}
		if e.trace != nil {
			const traceHardCap = 1 << 22
			if len(e.trace.Events) < e.opts.TraceLimit && len(e.trace.Events) < traceHardCap {
				e.trace.Events = append(e.trace.Events, TraceEvent{
					Start: e.now, Duration: dur, PE: peIdx,
					Node: ns.node.Name(), Label: f.label,
				})
			} else {
				e.trace.Dropped++
			}
		}
		e.push(event{t: e.now + dur, kind: 1, idx: peIdx})
		return true
	}
	return false
}

// hasSpace reports whether every destination of the node's proposed
// firing has room for what it produces.
func (ns *nodeState) hasSpace() bool {
	for o, items := range ns.f.produce {
		for _, d := range ns.outs[o] {
			if space(&d.ns.qs[d.in]) < len(items) {
				return false
			}
		}
	}
	return true
}

// complete delivers the finished firing's outputs.
func (e *engine) complete(pe *peState) {
	ns := pe.pending
	pe.busy, pe.pending = false, nil
	for o, items := range ns.f.produce {
		for _, d := range ns.outs[o] {
			deliver(&d.ns.qs[d.in], items)
		}
	}
}

func portIndex(ports []*graph.Port, name string) int {
	for i, p := range ports {
		if p.Name == name {
			return i
		}
	}
	return -1
}
