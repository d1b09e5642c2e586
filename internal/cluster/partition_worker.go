package cluster

// Worker-side partition execution: every worker session runs one
// member subset of a pipeline's compiled graph — all of it, when the
// session's plan has one partition — with boundary shims splicing its
// cut edges onto the wire. Inbound cut edges queue decoded items for a
// runtime.BoundarySource and return credits as the partition consumes;
// outbound cut edges drain a runtime.BoundarySink through a batching
// sender paced by the peer's credits.

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"

	"blockpar/internal/fifo"
	"blockpar/internal/graph"
	"blockpar/internal/runtime"
	"blockpar/internal/wire"
)

// edgeBatchItems caps the items per EdgeFrame so one frame never
// approaches the wire's frame bound regardless of window size.
const edgeBatchItems = 256

// partitionAbortGrace bounds the natural drain after an abort: once
// the cut edges are released the pipeline should run dry on its own
// (that is what returns every arena reference); if it wedges anyway,
// the runtime is stopped hard as a last resort.
const partitionAbortGrace = 2 * time.Second

// openPartition places one partition of a session here. A resuming
// open (ResumeResults/Resume set: the previous worker died or drained)
// takes the same path: the runtime re-executes the stream from frame
// zero to rebuild its deterministic state, while the boundary shims and
// collector suppress the prefix the rest of the fleet already saw.
func (c *workerConn) openPartition(m *wire.OpenPartition) {
	if c.w.isDraining() {
		c.send(&wire.SessionOpened{SID: m.SID, Err: "worker draining"})
		return
	}
	p, ok := c.w.reg.Get(m.Pipeline)
	if !ok {
		c.send(&wire.SessionOpened{SID: m.SID, Err: fmt.Sprintf("unknown pipeline %q", m.Pipeline)})
		return
	}
	maxInFlight := int(m.MaxInFlight)
	if maxInFlight <= 0 || maxInFlight > 1024 {
		c.send(&wire.SessionOpened{SID: m.SID, Err: fmt.Sprintf("max-in-flight %d out of range", m.MaxInFlight)})
		return
	}
	s := &workerSession{
		conn:          c,
		sid:           m.SID,
		resumeResults: m.ResumeResults,
		feedq:         make(chan *wire.Feed, maxInFlight+1),
		abortc:        make(chan struct{}),
		feederDone:    make(chan struct{}),
		collectorDone: make(chan struct{}),
		inEdges:       make(map[uint32]*inEdge),
		outEdges:      make(map[uint32]*outEdge),
	}
	g, err := partitionGraph(p.Graph(), m, s)
	if err != nil {
		c.send(&wire.SessionOpened{SID: m.SID, Err: err.Error()})
		return
	}
	// A partition with no graph outputs never produces results, so the
	// ordinary result-driven credit return would starve the frontend's
	// feed window. Grant the credit at feed acceptance instead — the
	// bound (frames resident in the feed queue plus the runtime) is the
	// same one MaxInFlight already enforces.
	s.creditFeeds = len(g.Outputs()) == 0
	for _, out := range g.Outputs() {
		s.outNames = append(s.outNames, out.Name())
	}
	sort.Strings(s.outNames)
	for _, er := range m.Resume {
		oe := s.outEdges[er.Edge]
		if oe == nil {
			c.send(&wire.SessionOpened{SID: m.SID, Err: fmt.Sprintf("resume mark for unknown out edge %d", er.Edge)})
			return
		}
		oe.skip = er.SkipItems
	}
	rt, err := runtime.NewSession(g, runtime.SessionOptions{
		MaxInFlight: maxInFlight,
		Sources:     p.Sources(),
	})
	if err != nil {
		c.send(&wire.SessionOpened{SID: m.SID, Err: err.Error()})
		return
	}
	s.rt = rt
	c.mu.Lock()
	if _, dup := c.sessions[m.SID]; dup {
		c.mu.Unlock()
		rt.Close()
		c.send(&wire.SessionOpened{SID: m.SID, Err: "session id already in use"})
		return
	}
	c.sessions[m.SID] = s
	c.mu.Unlock()
	if m.DeadlineMs > 0 {
		s.ttl = time.AfterFunc(time.Duration(m.DeadlineMs)*time.Millisecond, func() {
			s.beginAbort(errors.New("session deadline exceeded"), true)
		})
	}
	for _, oe := range s.outEdges {
		go oe.sender()
	}
	go s.feeder()
	go s.collector()
	c.send(&wire.SessionOpened{SID: m.SID})
}

// partitionGraph builds the sub-graph a partition executes: a clone of
// the compiled template with the cut edges replaced by boundary shims
// and every non-member node removed. The returned graph still passes
// graph validation — an OpenPartition that leaves a member input
// dangling (a plan/spec mismatch) fails the session open instead of
// executing nonsense.
func partitionGraph(template *graph.Graph, m *wire.OpenPartition, s *workerSession) (*graph.Graph, error) {
	g := template.Clone()
	resumed := make(map[uint32]bool, len(m.Resume))
	for _, er := range m.Resume {
		resumed[er.Edge] = true
	}
	member := make(map[string]bool, len(m.Nodes))
	for _, name := range m.Nodes {
		if g.Node(name) == nil {
			return nil, fmt.Errorf("partition names unknown node %q", name)
		}
		member[name] = true
	}
	for _, spec := range m.Edges {
		if _, dup := s.inEdges[spec.ID]; dup {
			return nil, fmt.Errorf("duplicate cut edge %d", spec.ID)
		}
		if _, dup := s.outEdges[spec.ID]; dup {
			return nil, fmt.Errorf("duplicate cut edge %d", spec.ID)
		}
		if spec.Credit == 0 {
			// A resumed outbound edge may legitimately start with zero
			// credits: the dead instance had the peer's whole window in
			// flight, so the new one waits for returns before producing.
			if !resumed[spec.ID] || spec.Dir != wire.EdgeOut {
				return nil, fmt.Errorf("cut edge %d has no credit window", spec.ID)
			}
		}
		switch spec.Dir {
		case wire.EdgeIn:
			to := g.Node(spec.ToNode)
			if to == nil || !member[spec.ToNode] {
				return nil, fmt.Errorf("cut edge %d consumer %q not a member", spec.ID, spec.ToNode)
			}
			tp := to.Input(spec.ToPort)
			if tp == nil {
				return nil, fmt.Errorf("cut edge %d: %q has no input %q", spec.ID, spec.ToNode, spec.ToPort)
			}
			e := g.EdgeTo(tp)
			if e == nil || e.From.Node().Name() != spec.FromNode || e.From.Name != spec.FromPort {
				return nil, fmt.Errorf("cut edge %d does not match an edge into %s.%s",
					spec.ID, spec.ToNode, spec.ToPort)
			}
			g.Disconnect(e)
			ie := newInEdge(s, spec)
			s.inEdges[spec.ID] = ie
			b := graph.NewNode(fmt.Sprintf("__cut%d_src", spec.ID), graph.KindBoundary)
			b.CreateOutput("out", e.From.Size, e.From.Step)
			b.Behavior = &runtime.BoundarySource{Pull: ie.pull, Ack: ie.ack}
			g.Add(b)
			g.Connect(b, "out", to, spec.ToPort)
			member[b.Name()] = true
		case wire.EdgeOut:
			from := g.Node(spec.FromNode)
			if from == nil || !member[spec.FromNode] {
				return nil, fmt.Errorf("cut edge %d producer %q not a member", spec.ID, spec.FromNode)
			}
			fp := from.Output(spec.FromPort)
			if fp == nil {
				return nil, fmt.Errorf("cut edge %d: %q has no output %q", spec.ID, spec.FromNode, spec.FromPort)
			}
			var cut *graph.Edge
			for _, e := range g.EdgesFrom(fp) {
				if e.To.Node().Name() == spec.ToNode && e.To.Name == spec.ToPort {
					cut = e
					break
				}
			}
			if cut == nil {
				return nil, fmt.Errorf("cut edge %d does not match an edge %s.%s -> %s.%s",
					spec.ID, spec.FromNode, spec.FromPort, spec.ToNode, spec.ToPort)
			}
			g.Disconnect(cut)
			oe := newOutEdge(s, spec)
			s.outEdges[spec.ID] = oe
			b := graph.NewNode(fmt.Sprintf("__cut%d_sink", spec.ID), graph.KindBoundary)
			b.CreateInput("in", cut.To.Size, cut.To.Step, cut.To.Offset)
			b.Behavior = &runtime.BoundarySink{Push: oe.push, Close: oe.eos}
			g.Add(b)
			g.Connect(from, spec.FromPort, b, "in")
			member[b.Name()] = true
		default:
			return nil, fmt.Errorf("cut edge %d has direction %d", spec.ID, spec.Dir)
		}
	}
	nodes := append([]*graph.Node(nil), g.Nodes()...)
	for _, n := range nodes {
		if !member[n.Name()] {
			g.Remove(n)
		}
	}
	return g, nil
}

// abortEdges releases every cut edge so the partition can drain
// without its peers: inbound streams turn into immediate end-of-stream
// (queued items released), outbound pushes stop blocking for credit
// and sink their items back to the arena. Idempotent and safe to call
// from any goroutine.
func (s *workerSession) abortEdges() {
	for _, ie := range s.inEdges {
		ie.abort()
	}
	for _, oe := range s.outEdges {
		oe.abort()
	}
}

func (s *workerSession) edgeFrame(m *wire.EdgeFrame) {
	ie := s.inEdges[m.Edge]
	if ie == nil {
		err := fmt.Errorf("edge frame for unknown cut edge %d", m.Edge)
		m.Release()
		s.beginAbort(err, true)
		return
	}
	ie.deliver(m)
}

func (s *workerSession) edgeCredit(m *wire.EdgeCredit) {
	oe := s.outEdges[m.Edge]
	if oe == nil {
		s.beginAbort(fmt.Errorf("edge credit for unknown cut edge %d", m.Edge), true)
		return
	}
	oe.addCredits(int(m.N))
}

func releaseWireItems(items []wire.Item) {
	for _, it := range items {
		if !it.IsToken {
			it.Win.Release()
		}
	}
}

// inEdge is the consuming end of a cut edge: a bounded in-order item
// ring between the wire read loop and the partition's boundary source,
// granting credits back as items are handed downstream. The ring's
// bound is the edge's credit window — the producer holds a credit per
// item in flight — so it is sized by what placement computed, not
// discovered by append.
type inEdge struct {
	s      *workerSession
	id     uint32
	credit int
	// items is the list each received frame's slab decodes into, reused
	// from frame to frame; only the read loop touches it.
	items []wire.Item

	mu      sync.Mutex
	cond    *sync.Cond
	queue   fifo.Ring[graph.Item]
	eos     bool
	aborted bool
	pending int // consumed items not yet credited back
	// grant is the one EdgeCredit this edge ever sends, refilled per
	// flush: ack runs on the boundary source's goroutine only and the
	// connection encodes before send returns.
	grant wire.EdgeCredit
}

func newInEdge(s *workerSession, spec wire.EdgeSpec) *inEdge {
	ie := &inEdge{s: s, id: spec.ID, credit: int(spec.Credit), queue: fifo.New[graph.Item](0, int(spec.Credit))}
	ie.cond = sync.NewCond(&ie.mu)
	ie.grant = wire.EdgeCredit{SID: s.sid, Edge: spec.ID}
	return ie
}

// deliver decodes one received EdgeFrame and queues its items, ending
// the frame. The producer holds a credit per item, so the ring never
// fills; an item that does not fit is a protocol violation. It runs on
// the connection's read loop.
func (ie *inEdge) deliver(m *wire.EdgeFrame) {
	items, err := m.Slab.Items(ie.items)
	eos := m.EOS
	m.Release()
	ie.items = items
	defer clear(items)
	if err != nil {
		ie.s.beginAbort(fmt.Errorf("cut edge %d: %w", ie.id, err), true)
		return
	}
	ie.mu.Lock()
	if ie.aborted {
		ie.mu.Unlock()
		releaseWireItems(items)
		return
	}
	queued := 0
	for _, it := range items {
		// The wire decoder validated the batch descriptor against the
		// window (protocol v6), so it re-enters the runtime as-is.
		if !ie.queue.Push(&graph.Item{
			IsToken: it.IsToken, Win: it.Win, Tok: it.Tok,
			B: graph.Batch{N: it.B.N, Sx: it.B.Sx, Bw: it.B.Bw},
		}) {
			break
		}
		queued++
	}
	if eos {
		ie.eos = true
	}
	ie.cond.Broadcast()
	ie.mu.Unlock()
	if queued < len(items) {
		releaseWireItems(items[queued:])
		ie.s.beginAbort(fmt.Errorf("cut edge %d overran its credit window", ie.id), true)
	}
}

// pull is the BoundarySource stream: the next item in order, or false
// at end-of-stream or abort.
func (ie *inEdge) pull() (graph.Item, bool) {
	ie.mu.Lock()
	for ie.queue.Len() == 0 && !ie.eos && !ie.aborted {
		ie.cond.Wait()
	}
	if ie.aborted || ie.queue.Len() == 0 {
		ie.mu.Unlock()
		return graph.Item{}, false
	}
	it := ie.queue.Pop()
	ie.mu.Unlock()
	return it, true
}

// ack grants a credit for one consumed item, batched to a quarter of
// the window so the return path is not one message per pixel.
//
// The flush points MUST be a deterministic function of the consumption
// count alone (every batch-th ack, nothing else): the frontend's
// partition recovery swallows exactly the credits the dead instance had
// flushed before re-crediting the producer, and a reopened instance
// replaying the same stream reaches the same flush boundaries — so the
// swallow debt always drains to zero. A timing-dependent flush (e.g.
// on queue drain) would let the old instance flush further than its
// replacement ever does at the same consumption point, wedging the
// recovery.
func (ie *inEdge) ack() {
	ie.mu.Lock()
	ie.pending++
	batch := ie.credit / 4
	if batch < 1 {
		batch = 1
	}
	if ie.pending < batch || ie.aborted {
		ie.mu.Unlock()
		return
	}
	ie.grant.N = uint32(ie.pending)
	ie.pending = 0
	ie.mu.Unlock()
	ie.s.conn.send(&ie.grant)
}

func (ie *inEdge) abort() {
	ie.mu.Lock()
	if !ie.aborted {
		ie.aborted = true
		for ie.queue.Len() > 0 {
			if it := ie.queue.Pop(); !it.IsToken {
				it.Win.Release()
			}
		}
		ie.cond.Broadcast()
	}
	ie.mu.Unlock()
}

// outEdge is the producing end of a cut edge: the boundary sink's Push
// blocks for a credit and queues the item; a sender goroutine batches
// whatever accumulated into EdgeFrames, so the edge naturally coalesces
// under load without adding latency when idle. The credit gate bounds
// the ring to the peer's window.
type outEdge struct {
	s  *workerSession
	id uint32

	mu      sync.Mutex
	cond    *sync.Cond
	queue   fifo.Ring[wire.Item]
	credits int
	closed  bool // end-of-stream requested by the sink
	aborted bool
	// skip discards the first N produced items after a reopen: the dead
	// instance already shipped them, so re-emitting would duplicate the
	// consumer's stream. Skipped items consume no credits — the initial
	// credit window already accounts for the in-flight suffix.
	skip uint64

	// senderDone closes when the sender goroutine exits — after the
	// end-of-stream frame is on the wire (or the edge aborted). The
	// close path waits on it so SessionClosed never overtakes a cut
	// edge's final frames on the connection.
	senderDone chan struct{}
}

func newOutEdge(s *workerSession, spec wire.EdgeSpec) *outEdge {
	oe := &outEdge{
		s: s, id: spec.ID, credits: int(spec.Credit),
		queue: fifo.New[wire.Item](0, fifo.Unbounded), senderDone: make(chan struct{}),
	}
	oe.cond = sync.NewCond(&oe.mu)
	return oe
}

// push takes ownership of the item: queued for the wire, or released
// immediately once the edge is aborted so the partition keeps draining.
func (oe *outEdge) push(it graph.Item) {
	oe.mu.Lock()
	if oe.skip > 0 {
		oe.skip--
		oe.mu.Unlock()
		if !it.IsToken {
			it.Win.Release()
		}
		return
	}
	for oe.credits <= 0 && !oe.aborted {
		oe.cond.Wait()
	}
	if oe.aborted {
		oe.mu.Unlock()
		if !it.IsToken {
			it.Win.Release()
		}
		return
	}
	oe.credits--
	oe.queue.Push(&wire.Item{
		IsToken: it.IsToken, Win: it.Win, Tok: it.Tok,
		B: wire.Batch{N: it.B.N, Sx: it.B.Sx, Bw: it.B.Bw},
	})
	oe.cond.Broadcast()
	oe.mu.Unlock()
}

// eos marks the stream complete; the sender flushes the tail and then
// announces end-of-stream to the peer.
func (oe *outEdge) eos() {
	oe.mu.Lock()
	oe.closed = true
	oe.cond.Broadcast()
	oe.mu.Unlock()
}

func (oe *outEdge) addCredits(n int) {
	oe.mu.Lock()
	oe.credits += n
	oe.cond.Broadcast()
	oe.mu.Unlock()
}

func (oe *outEdge) abort() {
	oe.mu.Lock()
	if !oe.aborted {
		oe.aborted = true
		for oe.queue.Len() > 0 {
			if it := oe.queue.Pop(); !it.IsToken {
				it.Win.Release()
			}
		}
		oe.cond.Broadcast()
	}
	oe.mu.Unlock()
}

// sender drains the queue into EdgeFrames. Encoded windows are
// released after the write — the wire copies their bytes — and the one
// frame and its item batch are reused for every send.
func (oe *outEdge) sender() {
	defer close(oe.senderDone)
	ef := wire.EdgeFrame{SID: oe.s.sid, Edge: oe.id}
	for {
		oe.mu.Lock()
		for oe.queue.Len() == 0 && !oe.closed && !oe.aborted {
			oe.cond.Wait()
		}
		if oe.aborted {
			oe.mu.Unlock()
			return
		}
		ef.Items = oe.queue.PopInto(ef.Items[:0], edgeBatchItems)
		ef.EOS = oe.closed && oe.queue.Len() == 0
		oe.mu.Unlock()
		if len(ef.Items) > 0 || ef.EOS {
			oe.s.conn.send(&ef)
			releaseWireItems(ef.Items)
			clear(ef.Items)
		}
		if ef.EOS {
			return
		}
	}
}

// drainAndClose stops the feeds, then lets the pipeline run dry
// naturally — boundary sources end on peer EOS (or abort), every
// in-flight window flows to a collector result, a sinkhole, or normal
// consumption, and the collector exits once the runtime winds down.
// Only a wedged drain after an abort escalates to a hard runtime stop;
// the graceful path waits indefinitely (the dispatcher's close timeout
// escalates to an abort from outside if the session never drains).
func (s *workerSession) drainAndClose(report bool) {
	s.qmu.Lock()
	if !s.closing {
		s.closing = true
		close(s.feedq)
	}
	s.qmu.Unlock()
	<-s.feederDone
	s.rt.Finish()

	abortc := s.abortc
	var watchdog <-chan time.Time
	for waiting := true; waiting; {
		select {
		case <-s.collectorDone:
			waiting = false
		case <-abortc:
			abortc = nil
			s.abortEdges()
			t := time.NewTimer(partitionAbortGrace)
			defer t.Stop()
			watchdog = t.C
		case <-watchdog:
			watchdog = nil
			s.rt.Abort(errors.New("cluster: partition drain wedged"))
		}
	}
	s.rt.Close()

	// The collector and the edge senders are separate goroutines; wait
	// for every sender to flush its end-of-stream frame so SessionClosed
	// is the last thing this session puts on the wire. The dispatcher
	// deregisters the partition on SessionClosed — an EOS frame behind
	// it would be dropped and wedge the consuming partition's drain.
	// Bounded: the runtime is down, so every sink has signalled
	// end-of-stream (or the edge aborted) and the senders exit on their
	// own.
	for _, oe := range s.outEdges {
		<-oe.senderDone
	}

	if s.ttl != nil {
		s.ttl.Stop()
	}
	if report {
		msg, _ := s.failed()
		s.conn.send(&wire.SessionClosed{SID: s.sid, Completed: s.collected.Load(), Err: msg})
	}
	s.conn.removeSession(s.sid)
}
