package cluster

// The connection manager: one workerRef per fleet member owns its
// connection lifecycle (dial, handshake, health pings, read loop,
// jittered reconnect) and the table of partitions currently placed over
// it. Everything session-shaped the read loop sees is routed to the
// partitionHalf registered under the frame's SID.

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"blockpar/internal/fifo"
	"blockpar/internal/registry"
	"blockpar/internal/serve"
	"blockpar/internal/wire"
)

// workerRef is the dispatcher's view of one worker: a managed
// connection with reconnection and health pings, plus the sessions
// currently placed on it.
type workerRef struct {
	d      *Dispatcher
	addr   string
	member string // ring identity (registration name; the address on a fixed list)

	// stop cancels the manage loop: closed when the member deregisters
	// (or the dispatcher closes it out of the fleet), so a removed
	// worker's backoff never pings its dead address again.
	stop     chan struct{}
	stopOnce sync.Once

	mu       sync.Mutex
	capacity float64    // declared cycles/sec (0 on a fixed list)
	conn     *wire.Conn // nil while disconnected
	name     string     // from Welcome
	draining bool       // saw Goaway
	known    map[string]bool
	sessions map[uint64]*partitionHalf
	pending  map[uint64]chan *wire.SessionOpened
	ensure   map[string][]chan *wire.PipelineReady

	lastPong     atomic.Int64
	framesRouted atomic.Int64
	resultsRecv  atomic.Int64
	reconnects   atomic.Int64
	flushesPast  atomic.Int64 // writes issued on connections since lost
}

// halt cancels the manage loop. Idempotent; a live connection is left
// to finish on its own (sessions drain or fail over when it dies), but
// no redial ever follows.
func (w *workerRef) halt() {
	w.stopOnce.Do(func() { close(w.stop) })
}

// halted reports whether the member was removed.
func (w *workerRef) halted() bool {
	select {
	case <-w.stop:
		return true
	default:
		return false
	}
}

// manage owns the connection lifecycle: dial + handshake with
// exponential backoff, then read until the connection dies, failing
// that connection's sessions and starting over. Deregistration (halt)
// cancels the loop: a removed worker's address is never redialed.
func (w *workerRef) manage() {
	backoff := w.d.opts.ReconnectMin
	connected := false
	for {
		select {
		case <-w.d.closed:
			return
		case <-w.stop:
			return
		default:
		}
		conn, welcome, err := w.dial()
		if err != nil {
			select {
			case <-w.d.closed:
				return
			case <-w.stop:
				return
			case <-time.After(backoff):
			}
			// Decorrelated jitter: frontends that lost the same worker at
			// the same instant spread their redials instead of thundering
			// back in lockstep.
			backoff = registry.JitterBackoff(backoff, w.d.opts.ReconnectMin, w.d.opts.ReconnectMax)
			continue
		}
		if connected {
			w.reconnects.Add(1)
		}
		connected = true
		backoff = w.d.opts.ReconnectMin
		w.attach(conn, welcome)

		pingStop := make(chan struct{})
		go w.pingLoop(conn, pingStop)
		err = w.readLoop(conn)
		close(pingStop)
		conn.Close()
		w.detach(conn, err)
	}
}

func (w *workerRef) dial() (*wire.Conn, *wire.Welcome, error) {
	nc, err := w.d.opts.Dial(w.addr)
	if err != nil {
		return nil, nil, err
	}
	conn := wire.NewConn(nc)
	// Bound the handshake: a Welcome lost in transit must surface as a
	// dial failure and a backoff retry, not a manager wedged forever on
	// the read.
	conn.SetReadDeadline(time.Now().Add(w.d.opts.OpenTimeout))
	welcome, err := conn.Handshake()
	if err != nil {
		conn.Close()
		return nil, nil, err
	}
	conn.SetReadDeadline(time.Time{})
	return conn, welcome, nil
}

func (w *workerRef) attach(conn *wire.Conn, welcome *wire.Welcome) {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.conn = conn
	w.name = welcome.Worker
	w.draining = false
	w.known = make(map[string]bool, len(welcome.Pipelines))
	for _, id := range welcome.Pipelines {
		w.known[id] = true
	}
	w.sessions = make(map[uint64]*partitionHalf)
	w.pending = make(map[uint64]chan *wire.SessionOpened)
	w.ensure = make(map[string][]chan *wire.PipelineReady)
	w.lastPong.Store(time.Now().UnixNano())
}

// detach hands every partition placed over the dead connection to the
// recovery path (or fails its session, when it cannot be replayed). The cause
// names the worker, so a client whose session could not be recovered
// sees exactly why its stream died while unrelated sessions keep
// running.
func (w *workerRef) detach(conn *wire.Conn, cause error) {
	w.mu.Lock()
	if w.conn != conn {
		w.mu.Unlock()
		return
	}
	w.conn = nil
	sessions := w.sessions
	pending := w.pending
	ensure := w.ensure
	w.sessions = nil
	w.pending = nil
	w.ensure = nil
	name := w.name
	w.mu.Unlock()
	w.flushesPast.Add(conn.Flushes())

	err := fmt.Errorf("cluster: worker %s at %s lost: %v", name, w.addr, cause)
	for _, h := range sessions {
		h.connLost(err)
	}
	for _, ch := range pending {
		close(ch)
	}
	for _, chs := range ensure {
		for _, ch := range chs {
			close(ch)
		}
	}
}

// placeable reports whether new sessions may land here: connected, not
// draining, not removed from the fleet.
func (w *workerRef) placeable() bool {
	if w.halted() {
		return false
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.conn != nil && !w.draining
}

// remainingCyc reports the declared capacity left after the
// analysis-priced demand of every session currently placed here — the
// keyless placement signal.
func (w *workerRef) remainingCyc() float64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	rem := w.capacity
	for _, h := range w.sessions {
		rem -= h.demandCyc()
	}
	return rem
}

func (w *workerRef) sessionCount() int {
	w.mu.Lock()
	defer w.mu.Unlock()
	return len(w.sessions)
}

func (w *workerRef) pingLoop(conn *wire.Conn, stop chan struct{}) {
	t := time.NewTicker(w.d.opts.PingInterval)
	defer t.Stop()
	nonce := uint64(0)
	for {
		select {
		case <-stop:
			return
		case <-t.C:
			nonce++
			if conn.Write(&wire.Ping{Nonce: nonce}) != nil {
				conn.Close()
				return
			}
			last := time.Unix(0, w.lastPong.Load())
			if time.Since(last) > w.d.opts.PingTimeout {
				// Health check failed: the worker stopped answering.
				conn.Close()
				return
			}
		}
	}
}

func (w *workerRef) readLoop(conn *wire.Conn) error {
	for {
		m, err := conn.Read()
		if err != nil {
			return err
		}
		switch m := m.(type) {
		case *wire.Pong:
			w.lastPong.Store(time.Now().UnixNano())
		case *wire.PipelineReady:
			w.mu.Lock()
			chs := w.ensure[m.ID]
			delete(w.ensure, m.ID)
			if m.Err == "" && w.known != nil {
				w.known[m.ID] = true
			}
			w.mu.Unlock()
			for _, ch := range chs {
				ch <- m
			}
		case *wire.SessionOpened:
			w.mu.Lock()
			ch := w.pending[m.SID]
			delete(w.pending, m.SID)
			w.mu.Unlock()
			if ch != nil {
				ch <- m
			}
			if err := w.drainedHangup(); err != nil {
				return err
			}
		case *wire.Result:
			w.resultsRecv.Add(1)
			if h := w.session(m.SID); h != nil {
				h.deliver(m)
			} else {
				releaseResult(m)
			}
		case *wire.Credit:
			if h := w.session(m.SID); h != nil {
				h.addCredits(int(m.N))
			}
		case *wire.SessionClosed:
			w.mu.Lock()
			h := w.sessions[m.SID]
			delete(w.sessions, m.SID)
			w.mu.Unlock()
			if h != nil {
				h.onClosed(m)
			}
			if err := w.drainedHangup(); err != nil {
				return err
			}
		case *wire.Error:
			if m.SID == 0 {
				return fmt.Errorf("worker error: %s", m.Msg)
			}
			if h := w.session(m.SID); h != nil {
				// A worker-reported execution error is deterministic:
				// replaying the partition elsewhere would only fail again.
				h.ps.fail(fmt.Errorf("cluster: worker %s: %s", w.addr, m.Msg))
			}
		case *wire.EdgeFrame:
			if h := w.session(m.SID); h != nil {
				h.edgeFrame(m)
			} else {
				m.Release()
			}
		case *wire.EdgeCredit:
			if h := w.session(m.SID); h != nil {
				h.edgeCredit(m)
			}
		case *wire.Goaway:
			w.drain()
			if err := w.drainedHangup(); err != nil {
				return err
			}
		default:
			return fmt.Errorf("unexpected %s frame", m.Type())
		}
	}
}

// errDrained ends the read loop of a fully-drained connection: the
// frontend hangs up so the worker sees a clean EOF with nothing unread
// (closing from the worker side could RST the final SessionClosed away).
var errDrained = errors.New("worker drained")

// drainedHangup reports errDrained once a draining worker has no
// sessions or opens left on this connection.
func (w *workerRef) drainedHangup() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.draining && len(w.sessions) == 0 && len(w.pending) == 0 && len(w.ensure) == 0 {
		return errDrained
	}
	return nil
}

func (w *workerRef) session(sid uint64) *partitionHalf {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.sessions[sid]
}

// residents snapshots the partitions currently placed here, for callers
// that must act on them without holding w.mu.
func (w *workerRef) residents() []*partitionHalf {
	w.mu.Lock()
	defer w.mu.Unlock()
	hs := make([]*partitionHalf, 0, len(w.sessions))
	for _, h := range w.sessions {
		hs = append(hs, h)
	}
	return hs
}

// drain stops placing here and moves every resident partition to a
// survivor (falling back to a quiesce-and-close when migration is
// impossible) — the reaction to the worker's Goaway and the
// /drain-worker admin endpoint alike.
func (w *workerRef) drain() {
	w.mu.Lock()
	w.draining = true
	w.mu.Unlock()
	for _, h := range w.residents() {
		h.drainClose()
	}
}

// resumeMarks are the watermarks a re-placed partition resumes from:
// the session's result-delivery watermark and, per outbound cut edge,
// the items already relayed (skip) and the credit window the new
// instance inherits. A nil *resumeMarks is a fresh open.
type resumeMarks struct {
	results int64
	edges   map[uint32]edgeAttempt
}

// placePartition opens partition idx of ps's plan on this worker —
// fresh, or resuming from marks — and returns its half without
// installing it in ps.halves. The half is registered in the worker's
// table before the OpenPartition frame hits the wire, so any event
// naming its sid afterwards (an unsolicited SessionClosed, a Goaway
// drain) finds it instead of landing in an unregistered gap where it
// would be silently dropped.
func (w *workerRef) placePartition(ps *session, idx int, marks *resumeMarks) (*partitionHalf, error) {
	w.mu.Lock()
	conn := w.conn
	needEnsure := !w.known[ps.p.ID]
	w.mu.Unlock()
	if conn == nil {
		return nil, fmt.Errorf("cluster: worker %s not connected", w.addr)
	}
	if needEnsure {
		if err := w.ensurePipeline(conn, ps.p); err != nil {
			return nil, err
		}
	}
	var deadlineMs uint32
	if !ps.deadline.IsZero() {
		rem := time.Until(ps.deadline)
		if rem <= 0 {
			return nil, fmt.Errorf("cluster: session deadline exceeded before open on %s", w.addr)
		}
		ms := int64((rem + time.Millisecond - 1) / time.Millisecond)
		if ms > int64(^uint32(0)) {
			ms = int64(^uint32(0))
		}
		deadlineMs = uint32(ms)
	}

	sid := w.d.nextSID.Add(1)
	h := &partitionHalf{
		ps: ps, idx: idx, w: w, sid: sid, conn: conn, lastProgress: time.Now(),
		relayq: fifo.New[wire.Msg](0, fifo.Unbounded),
	}
	h.rcond = sync.NewCond(&h.rmu)
	reply := make(chan *wire.SessionOpened, 1)
	w.mu.Lock()
	if w.conn != conn {
		w.mu.Unlock()
		return nil, fmt.Errorf("cluster: worker %s reconnected during open", w.addr)
	}
	w.pending[sid] = reply
	w.sessions[sid] = h
	w.mu.Unlock()

	m := &wire.OpenPartition{
		SID:         sid,
		Pipeline:    ps.p.ID,
		Partition:   uint32(idx),
		MaxInFlight: uint32(ps.maxInFlight),
		DeadlineMs:  deadlineMs,
		Nodes:       ps.plan.Partitions[idx].Nodes,
	}
	if marks != nil {
		m.ResumeResults = marks.results
	}
	for _, c := range ps.plan.Cuts {
		spec := wire.EdgeSpec{
			ID: c.ID, Credit: uint32(c.Credit),
			FromNode: c.FromNode, FromPort: c.FromPort,
			ToNode: c.ToNode, ToPort: c.ToPort,
		}
		switch idx {
		case c.To:
			spec.Dir = wire.EdgeIn
		case c.From:
			spec.Dir = wire.EdgeOut
			if marks != nil {
				mark := marks.edges[c.ID]
				spec.Credit = mark.credit
				m.Resume = append(m.Resume, wire.EdgeResume{Edge: c.ID, SkipItems: mark.skip})
			}
		default:
			continue
		}
		m.Edges = append(m.Edges, spec)
	}
	if err := conn.Write(m); err != nil {
		w.unregister(conn, sid)
		conn.Close()
		return nil, fmt.Errorf("cluster: open partition on %s: %w", w.addr, err)
	}
	select {
	case r, ok := <-reply:
		if !ok {
			return nil, fmt.Errorf("cluster: worker %s lost during open", w.addr)
		}
		if r.Err != "" {
			w.unregister(conn, sid)
			return nil, fmt.Errorf("cluster: worker %s refused partition: %s", w.addr, r.Err)
		}
	case <-time.After(w.d.opts.OpenTimeout):
		w.unregister(conn, sid)
		return nil, fmt.Errorf("cluster: open on %s timed out after %v", w.addr, w.d.opts.OpenTimeout)
	}
	go h.relay() // until stopRelay, which every teardown path reaches
	return h, nil
}

// unregister drops a failed open's session and pending entries. When
// that leaves a draining connection fully idle it hangs the connection
// up here: the read loop's drained-hangup check only runs on frame
// arrival, and no further frame may ever come.
func (w *workerRef) unregister(conn *wire.Conn, sid uint64) {
	w.mu.Lock()
	if w.conn != conn {
		w.mu.Unlock()
		return
	}
	delete(w.pending, sid)
	delete(w.sessions, sid)
	hangup := w.draining && len(w.sessions) == 0 && len(w.pending) == 0 && len(w.ensure) == 0
	w.mu.Unlock()
	if hangup {
		conn.Close()
	}
}

// ensurePipeline asks the worker to register p, shipping the JSON
// descriptor when the pipeline has one; suite pipelines compile from
// their ID alone.
func (w *workerRef) ensurePipeline(conn *wire.Conn, p *serve.Pipeline) error {
	reply := make(chan *wire.PipelineReady, 1)
	w.mu.Lock()
	if w.conn != conn {
		w.mu.Unlock()
		return fmt.Errorf("cluster: worker %s reconnected during ensure", w.addr)
	}
	first := len(w.ensure[p.ID]) == 0
	w.ensure[p.ID] = append(w.ensure[p.ID], reply)
	w.mu.Unlock()

	if first {
		m := &wire.EnsurePipeline{ID: p.ID, Source: p.Source, Desc: p.Descriptor()}
		if err := conn.Write(m); err != nil {
			conn.Close()
			return fmt.Errorf("cluster: ensure %q on %s: %w", p.ID, w.addr, err)
		}
	}
	select {
	case m, ok := <-reply:
		if !ok {
			return fmt.Errorf("cluster: worker %s lost during ensure", w.addr)
		}
		if m.Err != "" {
			return fmt.Errorf("cluster: worker %s cannot serve %q: %s", w.addr, p.ID, m.Err)
		}
		return nil
	case <-time.After(w.d.opts.OpenTimeout):
		w.abandonEnsure(p.ID, reply)
		return fmt.Errorf("cluster: ensure %q on %s timed out", p.ID, w.addr)
	}
}

// abandonEnsure removes a timed-out waiter from the ensure list so one
// unanswered EnsurePipeline cannot wedge every later ensure of the same
// pipeline: once the list drains back to empty, the next caller sends a
// fresh EnsurePipeline frame instead of waiting on the dead request.
func (w *workerRef) abandonEnsure(id string, ch chan *wire.PipelineReady) {
	w.mu.Lock()
	defer w.mu.Unlock()
	chs := w.ensure[id]
	for i, c := range chs {
		if c == ch {
			chs = append(chs[:i], chs[i+1:]...)
			break
		}
	}
	if len(chs) == 0 {
		delete(w.ensure, id)
	} else {
		w.ensure[id] = chs
	}
}

func (w *workerRef) stats() WorkerStats {
	w.mu.Lock()
	state := "down"
	if w.conn != nil {
		state = "connected"
	}
	if w.halted() {
		state = "removed"
	}
	credits := 0
	demand := 0.0
	for _, h := range w.sessions {
		credits += h.creditsOut()
		demand += h.demandCyc()
	}
	s := WorkerStats{
		Addr:            w.addr,
		Name:            w.name,
		Member:          w.member,
		State:           state,
		Draining:        w.draining,
		Sessions:        len(w.sessions),
		CapacityCyc:     w.capacity,
		DemandCyc:       demand,
		CreditsInFlight: credits,
		ConnFlushes:     w.flushesPast.Load(),
	}
	if w.conn != nil {
		s.ConnFlushes += w.conn.Flushes()
	}
	w.mu.Unlock()
	s.FramesRouted = w.framesRouted.Load()
	s.ResultsReceived = w.resultsRecv.Load()
	s.Reconnects = w.reconnects.Load()
	return s
}
