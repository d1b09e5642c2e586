// Package cluster is the multi-process execution layer: a bpserve
// frontend places streaming sessions on bpworker processes and proxies
// frames over TCP using the internal/wire codec, with credit-based
// backpressure mirroring the runtime's bounded frame queues.
//
// The two halves are Worker (this file and partition_worker.go) — owns
// a serve.Registry of compiled pipelines and executes partitions of
// sessions on behalf of remote frontends — and Dispatcher, the frontend
// side implementing serve.Backend: membership and stats
// (dispatcher.go), one managed connection per worker with health
// checks and reconnection (workerref.go), placement
// and admission (placement.go), the session (session.go), and its
// recovery (recover.go).
//
// There is one session model: a session executes a placement.Plan of
// N >= 1 partitions, one per worker, with the cut edges between them
// relayed through the dispatcher; a session that runs whole is the plan
// with one partition and no cuts.
//
// Failure semantics: when a worker dies, drains, or silently stalls
// mid-stream the dispatcher re-homes just the partitions it hosted onto
// surviving workers, replaying each one's logged inputs so outputs stay
// byte-identical and clients observe at-most-once delivery with no
// error. Sessions that cannot be recovered (no surviving capacity,
// replay budget exceeded, recovery disabled) fail with a typed
// serve.ErrSessionLost naming the worker; the frontend keeps serving
// everything else, and the worker may rejoin at the same address. See
// docs/cluster.md and docs/robustness.md.
package cluster

import (
	"context"
	"errors"
	"fmt"
	"net"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"blockpar/internal/frame"
	"blockpar/internal/registry"
	"blockpar/internal/runtime"
	"blockpar/internal/serve"
	"blockpar/internal/wire"
)

// collectPoll is the worker collector's wake-up interval: how often a
// blocked collect re-checks for session teardown. It bounds only
// shutdown latency, never result latency (results unblock collect
// immediately).
const collectPoll = 50 * time.Millisecond

// WorkerOptions configures a Worker.
type WorkerOptions struct {
	// Name identifies the worker in handshakes, errors, and metrics
	// (default "worker-<pid>").
	Name string
}

// Worker executes streaming sessions for remote frontends. Pipelines
// come from its own registry — pre-compiled at startup (bpworker
// -apps) or compiled on demand when a frontend's EnsurePipeline frame
// names a suite benchmark or carries a JSON descriptor.
type Worker struct {
	opts WorkerOptions
	reg  *serve.Registry

	mu       sync.Mutex
	ln       net.Listener
	conns    map[*workerConn]struct{}
	draining bool
	closed   bool
}

// NewWorker creates a worker serving sessions over reg's pipelines.
func NewWorker(reg *serve.Registry, opts WorkerOptions) *Worker {
	if opts.Name == "" {
		opts.Name = fmt.Sprintf("worker-%d", os.Getpid())
	}
	return &Worker{opts: opts, reg: reg, conns: make(map[*workerConn]struct{})}
}

// Name returns the worker's handshake identity.
func (w *Worker) Name() string { return w.opts.Name }

// Serve accepts frontend connections on ln until the listener closes.
// Each connection is independent: a frontend failure tears down only
// the sessions opened over that connection.
func (w *Worker) Serve(ln net.Listener) error {
	w.mu.Lock()
	if w.closed {
		w.mu.Unlock()
		return errors.New("cluster: worker closed")
	}
	w.ln = ln
	w.mu.Unlock()
	for {
		c, err := ln.Accept()
		if err != nil {
			w.mu.Lock()
			stopped := w.draining || w.closed
			w.mu.Unlock()
			if stopped {
				return nil
			}
			return err
		}
		go w.handleConn(c)
	}
}

// Close abruptly tears the worker down: listener and every connection
// close immediately, failing in-flight sessions (the frontend sees a
// connection error). Tests use it to simulate a crashed worker; use
// Shutdown for graceful drain.
func (w *Worker) Close() error {
	w.mu.Lock()
	w.closed = true
	ln := w.ln
	conns := make([]*workerConn, 0, len(w.conns))
	for c := range w.conns {
		conns = append(conns, c)
	}
	w.mu.Unlock()
	if ln != nil {
		ln.Close()
	}
	for _, c := range conns {
		c.conn.Close()
	}
	return nil
}

// Shutdown drains gracefully: stop accepting connections and sessions
// and announce Goaway. The frontend reacts by quiescing its feeds and
// closing each session, which lets every frame already on the wire
// land, run to completion, and flush its result — the worker cannot
// close feed intake unilaterally without racing feeds in TCP flight.
// The context bounds the wait; on expiry remaining sessions are cut
// off with a connection close.
func (w *Worker) Shutdown(ctx context.Context) error {
	w.mu.Lock()
	w.draining = true
	ln := w.ln
	conns := make([]*workerConn, 0, len(w.conns))
	for c := range w.conns {
		conns = append(conns, c)
	}
	w.mu.Unlock()
	if ln != nil {
		ln.Close()
	}
	for _, c := range conns {
		c.send(&wire.Goaway{Reason: "worker draining"})
	}

	// Wait for every session to finish flushing and report closed, then
	// for the frontends to hang up. The frontend closes a drained
	// connection once its last SessionClosed arrives; closing from this
	// side first could RST unread pings and destroy that delivery.
	tick := time.NewTicker(10 * time.Millisecond)
	defer tick.Stop()
	var err error
wait:
	for {
		w.mu.Lock()
		conns := len(w.conns)
		w.mu.Unlock()
		if conns == 0 && w.openSessions() == 0 {
			break
		}
		select {
		case <-ctx.Done():
			sessions, frames := w.abandonedWork()
			err = fmt.Errorf("cluster: worker drain interrupted: %w (%d sessions with %d frames abandoned)",
				ctx.Err(), sessions, frames)
			break wait
		case <-tick.C:
		}
	}
	w.Close()
	return err
}

// DrainAndLeave is a worker's one drain sequence. Shutdown announces
// Goaway on every data connection, so each frontend migrates the
// worker's sessions to survivors and hangs up once nothing is left;
// then Leave deregisters, so fleets drop the member at once instead of
// waiting out its lease. A nil j (a worker on a fixed -cluster list)
// skips the Leave. The error is Shutdown's: non-nil when work was
// abandoned.
func DrainAndLeave(ctx context.Context, w *Worker, j *registry.Joiner) error {
	err := w.Shutdown(ctx)
	if j != nil {
		j.Leave("drained")
	}
	return err
}

// abandonedWork counts what an interrupted drain leaves behind: open
// sessions and the frames they accepted but never flushed (queued plus
// fed-minus-collected). bpworker -drain-timeout exits nonzero on it.
func (w *Worker) abandonedWork() (sessions int, frames int64) {
	w.mu.Lock()
	conns := make([]*workerConn, 0, len(w.conns))
	for c := range w.conns {
		conns = append(conns, c)
	}
	w.mu.Unlock()
	for _, c := range conns {
		c.mu.Lock()
		for _, s := range c.sessions {
			sessions++
			frames += s.fed.Load() - s.collected.Load() + int64(len(s.feedq))
		}
		c.mu.Unlock()
	}
	return sessions, frames
}

func (w *Worker) openSessions() int {
	w.mu.Lock()
	defer w.mu.Unlock()
	n := 0
	for c := range w.conns {
		n += c.sessionCount()
	}
	return n
}

func (w *Worker) isDraining() bool {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.draining
}

// handleConn owns one frontend connection: handshake, then a demux
// loop routing session frames to per-session feeder/collector
// goroutines. Any read error tears down this connection's sessions.
func (w *Worker) handleConn(nc net.Conn) {
	c := &workerConn{
		w:        w,
		conn:     wire.NewConn(nc),
		sessions: make(map[uint64]*workerSession),
	}
	var ids []string
	for _, p := range w.reg.List() {
		ids = append(ids, p.ID)
	}
	if err := c.conn.AcceptHandshake(w.opts.Name, ids); err != nil {
		c.conn.Close()
		return
	}
	w.mu.Lock()
	if w.closed {
		w.mu.Unlock()
		c.conn.Close()
		return
	}
	w.conns[c] = struct{}{}
	draining := w.draining
	w.mu.Unlock()
	if draining {
		c.send(&wire.Goaway{Reason: "worker draining"})
	}

	err := c.readLoop()
	_ = err
	c.conn.Close()
	c.closeAllSessions()
	w.mu.Lock()
	delete(w.conns, c)
	w.mu.Unlock()
}

// workerConn is the worker-side state of one frontend connection.
type workerConn struct {
	w    *Worker
	conn *wire.Conn

	mu       sync.Mutex
	sessions map[uint64]*workerSession
}

func (c *workerConn) send(ms ...wire.Msg) {
	// A write failure means the connection is gone; the read loop will
	// observe it and tear the sessions down, so errors stop here.
	if err := c.conn.Write(ms...); err != nil {
		c.conn.Close()
	}
}

func (c *workerConn) sessionCount() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.sessions)
}

func (c *workerConn) session(sid uint64) *workerSession {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.sessions[sid]
}

func (c *workerConn) removeSession(sid uint64) {
	c.mu.Lock()
	delete(c.sessions, sid)
	c.mu.Unlock()
}

func (c *workerConn) closeAllSessions() {
	c.mu.Lock()
	ss := make([]*workerSession, 0, len(c.sessions))
	for _, s := range c.sessions {
		ss = append(ss, s)
	}
	c.mu.Unlock()
	for _, s := range ss {
		s.beginAbort(errors.New("frontend connection lost"), false)
	}
}

func (c *workerConn) readLoop() error {
	for {
		m, err := c.conn.Read()
		if err != nil {
			return err
		}
		switch m := m.(type) {
		case *wire.Ping:
			c.send(&wire.Pong{Nonce: m.Nonce})
		case *wire.EnsurePipeline:
			// Compiles can take a while; answer asynchronously so pings
			// (and other sessions' frames) keep flowing. The frontend
			// orders open-after-ensure itself.
			go func(m *wire.EnsurePipeline) { c.send(c.ensure(m)) }(m)
		case *wire.OpenPartition:
			c.openPartition(m)
		case *wire.Feed:
			c.feed(m)
		case *wire.EdgeFrame:
			if s := c.session(m.SID); s != nil {
				s.edgeFrame(m)
			} else {
				m.Release()
			}
		case *wire.EdgeCredit:
			if s := c.session(m.SID); s != nil {
				s.edgeCredit(m)
			}
		case *wire.CloseSession:
			if s := c.session(m.SID); s != nil {
				s.beginClose()
			}
		case *wire.Error:
			if m.SID == 0 {
				return fmt.Errorf("frontend error: %s", m.Msg)
			}
			if s := c.session(m.SID); s != nil {
				s.beginAbort(fmt.Errorf("frontend error: %s", m.Msg), false)
			}
		default:
			c.send(&wire.Error{Msg: fmt.Sprintf("unexpected %s frame", m.Type())})
			return fmt.Errorf("protocol violation: %s", m.Type())
		}
	}
}

// ensure makes a pipeline available: already registered, compiled from
// the attached JSON descriptor, or compiled as a suite benchmark.
func (c *workerConn) ensure(m *wire.EnsurePipeline) *wire.PipelineReady {
	if _, ok := c.w.reg.Get(m.ID); ok {
		return &wire.PipelineReady{ID: m.ID}
	}
	var err error
	switch {
	case len(m.Desc) > 0:
		var p *serve.Pipeline
		if p, err = c.w.reg.AddJSON(m.Desc); err == nil && p.ID != m.ID {
			err = fmt.Errorf("descriptor compiles to pipeline %q, not %q", p.ID, m.ID)
		}
	case m.Source == "suite":
		err = c.w.reg.AddSuite(m.ID)
	default:
		err = fmt.Errorf("unknown pipeline %q and no descriptor attached", m.ID)
	}
	if err != nil {
		// A concurrent ensure may have won the registration race.
		if _, ok := c.w.reg.Get(m.ID); ok {
			return &wire.PipelineReady{ID: m.ID}
		}
		return &wire.PipelineReady{ID: m.ID, Err: err.Error()}
	}
	return &wire.PipelineReady{ID: m.ID}
}

func (c *workerConn) feed(m *wire.Feed) {
	s := c.session(m.SID)
	if s == nil {
		releaseFeed(m)
		return
	}
	s.qmu.Lock()
	if s.closing {
		s.qmu.Unlock()
		releaseFeed(m)
		return
	}
	select {
	case s.feedq <- m:
		s.qmu.Unlock()
	default:
		// The credit protocol bounds feeds to the queue size; overflow
		// means the frontend broke it.
		s.qmu.Unlock()
		releaseFeed(m)
		s.beginAbort(errors.New("feed credit overrun"), true)
	}
}

func releaseFeed(m *wire.Feed) {
	for _, in := range m.Inputs {
		in.Win.Release()
	}
}

// workerSession is one partition of a remote session executing locally:
// a resident runtime session over the partition's member subset of the
// pipeline graph, a feeder draining the bounded feed queue into it, and
// a collector flushing completed frames (plus their credits) back to
// the frontend. Its cut edges live in inEdges/outEdges (both empty when
// the partition is the whole graph); see partition_worker.go.
type workerSession struct {
	conn *workerConn
	sid  uint64
	rt   *runtime.Session

	inEdges  map[uint32]*inEdge
	outEdges map[uint32]*outEdge
	outNames []string // the partition's output nodes, sorted
	// resumeResults is the resume watermark: results below it were
	// already delivered by the dead instance, so the collector grants
	// their feed credits without re-sending the result.
	resumeResults int64
	// creditFeeds makes the feeder grant a credit per accepted frame:
	// set for partitions whose sub-graph has no output nodes, which
	// otherwise never run the collector's result-driven credit return.
	creditFeeds bool

	qmu     sync.Mutex
	closing bool
	feedq   chan *wire.Feed

	abortOnce sync.Once
	abortc    chan struct{}
	endOnce   sync.Once

	fed           atomic.Int64
	collected     atomic.Int64
	failErr       atomic.Pointer[string]
	feederDone    chan struct{}
	collectorDone chan struct{}
	ttl           *time.Timer // session deadline, nil when unbounded
}

func (s *workerSession) fail(err error) {
	msg := err.Error()
	s.failErr.CompareAndSwap(nil, &msg)
}

func (s *workerSession) failed() (string, bool) {
	if p := s.failErr.Load(); p != nil {
		return *p, true
	}
	return "", false
}

// feeder moves frames from the wire queue into the runtime session,
// preserving order. Feed blocks when the pipeline is momentarily full;
// the collector keeps draining, so the block is bounded.
func (s *workerSession) feeder() {
	defer close(s.feederDone)
	for {
		select {
		case <-s.abortc:
			s.drainQueue()
			return
		case m, ok := <-s.feedq:
			if !ok {
				return
			}
			if m.Seq != s.fed.Load() {
				releaseFeed(m)
				s.fail(fmt.Errorf("feed sequence %d, want %d", m.Seq, s.fed.Load()))
				s.beginAbort(errors.New("feed sequence broken"), true)
				s.drainQueue()
				return
			}
			var inputs map[string]frame.Window
			if len(m.Inputs) > 0 {
				inputs = make(map[string]frame.Window, len(m.Inputs))
				for _, in := range m.Inputs {
					inputs[in.Name] = in.Win
				}
			}
			if _, err := s.rt.Feed(inputs); err != nil {
				// Feed validated and rejected the frame without taking
				// ownership of its windows.
				releaseFeed(m)
				s.fail(err)
				s.beginAbort(err, true)
				s.drainQueue()
				return
			}
			s.fed.Add(1)
			if s.creditFeeds {
				s.conn.send(&wire.Credit{SID: s.sid, N: 1})
			}
		}
	}
}

func (s *workerSession) drainQueue() {
	for {
		select {
		case m, ok := <-s.feedq:
			if !ok {
				return
			}
			releaseFeed(m)
		default:
			return
		}
	}
}

// collector flushes completed frames to the frontend. Each result is
// followed by a credit, so the frontend's balance tracks the session's
// real fed-minus-delivered bound. The partition's outputs are fixed at
// open, so the wire forms of both messages are built once — output
// names sorted for a deterministic byte stream — and refilled per
// frame; the connection encodes before send returns.
func (s *workerSession) collector() {
	defer close(s.collectorDone)
	result := wire.Result{SID: s.sid, Outputs: make([]wire.NamedWindows, len(s.outNames))}
	for i, name := range s.outNames {
		result.Outputs[i].Name = name
	}
	credit := wire.Credit{SID: s.sid, N: 1}
	for {
		res, err := s.rt.Collect(collectPoll)
		if err != nil {
			if errors.Is(err, runtime.ErrSessionClosed) {
				return
			}
			if errors.Is(err, runtime.ErrCollectTimeout) {
				continue
			}
			s.fail(err)
			s.beginAbort(err, true)
			return
		}
		s.collected.Add(1)
		if res.Seq >= s.resumeResults {
			result.Seq = res.Seq
			for i := range result.Outputs {
				result.Outputs[i].Wins = res.Outputs[result.Outputs[i].Name]
			}
			s.conn.send(&result, &credit)
		} else {
			s.conn.send(&credit)
		}
		// Encoded or suppressed, the frame is done with: its lists go
		// back to the executor's next frames.
		for _, ws := range res.Outputs {
			frame.ReleaseList(ws)
		}
	}
}

// beginClose starts the graceful teardown: no further feeds, every fed
// frame runs to completion and flushes, then SessionClosed reports the
// outcome.
func (s *workerSession) beginClose() {
	s.endOnce.Do(func() { go s.drainAndClose(true) })
}

// beginAbort starts the failure teardown: queued feeds are dropped and
// the session closes as soon as the runtime lets go. The cut edges are
// released immediately — a blocked boundary push must unwedge before
// the feeder and pipeline can drain.
func (s *workerSession) beginAbort(err error, report bool) {
	s.fail(err)
	s.abortOnce.Do(func() { close(s.abortc) })
	s.abortEdges()
	s.endOnce.Do(func() { go s.drainAndClose(report) })
}
