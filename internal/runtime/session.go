package runtime

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"blockpar/internal/frame"
	"blockpar/internal/graph"
	"blockpar/internal/token"
)

// Session errors. ErrQueueFull is the backpressure signal: the caller
// fed more frames than MaxInFlight without collecting their results.
var (
	ErrSessionClosed = errors.New("runtime: session closed")
	ErrQueueFull     = errors.New("runtime: session frame queue full")
	// ErrBadFrame wraps caller mistakes (unknown input, wrong frame
	// dimensions) so transports can distinguish them from execution
	// failures.
	ErrBadFrame = errors.New("runtime: bad frame")
	// ErrCollectTimeout marks a Collect that reached its deadline with no
	// completed frame — a condition to retry or report as 504, unlike an
	// execution failure. Local and cluster sessions both wrap it, its
	// text completing theirs ("… session collect timed out after 50ms").
	ErrCollectTimeout = errors.New("collect timed out")
)

// SessionOptions configures a streaming session.
type SessionOptions struct {
	// MaxInFlight bounds the frames fed but not yet collected; TryFeed
	// fails with ErrQueueFull at the bound (default 4).
	MaxInFlight int
	// Sources provides frames for inputs the caller does not supply to
	// Feed (coefficient and bin inputs, typically). Inputs without an
	// entry fall back to frame.Gradient, like the batch runtime.
	Sources map[string]frame.Generator
}

// StreamResult is the output of one completed frame: for every
// application output, the data windows it produced for that frame, in
// stream order.
type StreamResult struct {
	// Seq is the frame index, counted from zero per session.
	Seq int64
	// Outputs are the caller's: a consumer that is done with a frame
	// may end each list with frame.ReleaseList, which lets a later
	// frame reuse it; one that keeps them need do nothing.
	Outputs map[string][]frame.Window
}

// Session is a long-lived streaming execution instance of a graph: the
// kernel goroutines stay resident between frames, frames are fed one at
// a time, and each frame's outputs are flushed deterministically on its
// end-of-frame tokens. A session over a compiled graph produces
// byte-identical per-frame outputs to the batch Run with the same
// sources, because inputs chunk frames with the same scan order and
// token numbering.
//
// Feed and Collect may run on different goroutines (feed-ahead up to
// MaxInFlight frames); Feed itself must not be called concurrently
// with another Feed. Kernel panics are recovered and surface as the
// session error instead of crashing the process.
type Session struct {
	g    *graph.Graph
	ex   *executor
	opts SessionOptions
	done chan struct{}

	mu        sync.Mutex // guards closed, fed, and the feed sends
	closed    bool
	fed       int64
	collected atomic.Int64
}

// NewSession validates the graph, spins up its kernel goroutines, and
// returns a handle ready to accept frames.
func NewSession(g *graph.Graph, opts SessionOptions) (*Session, error) {
	if opts.MaxInFlight <= 0 {
		opts.MaxInFlight = 4
	}
	for _, n := range g.Inputs() {
		chunk := n.Output("out").Size
		if n.FrameSize.W%chunk.W != 0 || n.FrameSize.H%chunk.H != 0 {
			return nil, fmt.Errorf("runtime: input %q frame %v not divisible by chunk %v",
				n.Name(), n.FrameSize, chunk)
		}
	}
	ex, err := newExecutor(g, Options{}, opts.MaxInFlight)
	if err != nil {
		return nil, err
	}
	s := &Session{g: g, ex: ex, opts: opts}
	s.done = ex.start()
	return s, nil
}

// Feed enqueues one frame: the supplied window per input node, falling
// back to the session Sources (then frame.Gradient) for absent inputs.
// It returns the frame's index. Feed blocks while the pipeline is full;
// use TryFeed for the non-blocking backpressure variant.
//
// Feed takes ownership of pooled input windows (the cluster transport
// feeds arena-decoded frames): the pipeline releases their storage
// once every chunk has been consumed. Fed windows must stay immutable
// while their frame is in flight.
func (s *Session) Feed(inputs map[string]frame.Window) (int64, error) {
	return s.feed(inputs, true)
}

// TryFeed is Feed without blocking: when MaxInFlight frames are already
// fed but uncollected it fails fast with ErrQueueFull.
func (s *Session) TryFeed(inputs map[string]frame.Window) (int64, error) {
	return s.feed(inputs, false)
}

func (s *Session) feed(inputs map[string]frame.Window, block bool) (int64, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return 0, ErrSessionClosed
	}
	if err := s.ex.runErr(); err != nil {
		return 0, err
	}
	if !block && s.fed-s.collected.Load() >= int64(s.opts.MaxInFlight) {
		return 0, ErrQueueFull
	}
	for name := range inputs {
		if n := s.g.Node(name); n == nil || n.Kind != graph.KindInput {
			return 0, fmt.Errorf("%w: unknown input %q", ErrBadFrame, name)
		}
	}
	// Resolve and validate every window before sending anything, so a
	// bad frame never leaves the pipeline partially fed.
	f := s.fed
	ins := s.ex.plan.inputs
	wins := make([]frame.Window, len(ins))
	for i, id := range ins {
		n := s.ex.plan.nodes[id].node
		w, ok := inputs[n.Name()]
		if !ok {
			gen := s.opts.Sources[n.Name()]
			if gen == nil {
				gen = frame.Gradient
			}
			w = gen(f, n.FrameSize.W, n.FrameSize.H)
		}
		if w.W != n.FrameSize.W || w.H != n.FrameSize.H {
			return 0, fmt.Errorf("%w: input %q is %dx%d, want %dx%d",
				ErrBadFrame, n.Name(), w.W, w.H, n.FrameSize.W, n.FrameSize.H)
		}
		if want := n.Output("out").Elem; w.Kind != want {
			return 0, fmt.Errorf("%w: input %q carries %s samples, declared %s",
				ErrBadFrame, n.Name(), w.Kind, want)
		}
		wins[i] = w
	}
	for i := range ins {
		select {
		case s.ex.feeds[i] <- wins[i]:
		case <-s.ex.stop:
			return 0, s.failErr()
		}
	}
	s.fed++
	return f, nil
}

// Collect blocks until the next frame's outputs are complete and
// returns them in frame order. A timeout of zero waits indefinitely.
// After Close, Collect drains any remaining completed frames and then
// fails with ErrSessionClosed.
func (s *Session) Collect(timeout time.Duration) (*StreamResult, error) {
	var tc <-chan time.Time
	fired := false // the select below took the timer's value
	if timeout > 0 {
		t := AcquireTimer(timeout)
		defer func() { ReleaseTimer(t, fired) }()
		tc = t.C
	}
	select {
	case res := <-s.ex.ready:
		s.collected.Add(1)
		return &res, nil
	case <-tc:
		fired = true
		return nil, fmt.Errorf("runtime: session %w after %v", ErrCollectTimeout, timeout)
	case <-s.ex.stop:
		// A completed frame may have raced with the failure; prefer it.
		select {
		case res := <-s.ex.ready:
			s.collected.Add(1)
			return &res, nil
		default:
		}
		return nil, s.failErr()
	case <-s.done:
		select {
		case res := <-s.ex.ready:
			s.collected.Add(1)
			return &res, nil
		default:
		}
		if err := s.ex.runErr(); err != nil {
			return nil, err
		}
		return nil, ErrSessionClosed
	}
}

// timers recycles the deadline timers of Collect calls, which would
// otherwise allocate one per collected frame.
var timers sync.Pool

// AcquireTimer returns a timer that fires once, d from now: a released
// one when there is one, a new one otherwise. Hand it back with
// ReleaseTimer.
func AcquireTimer(d time.Duration) *time.Timer {
	if t, _ := timers.Get().(*time.Timer); t != nil {
		t.Reset(d)
		return t
	}
	return time.NewTimer(d)
}

// ReleaseTimer stops t and makes it reusable; received reports that the
// caller took t's value from t.C. Under this module's go line (1.22)
// timer channels are asynchronous: a timer that expired unread holds
// its value in C, and reused it would deliver that value at once. So
// when Stop finds the timer expired and the caller did not receive, C
// is drained first; the expiry's send has happened or is under way, so
// the receive returns promptly. (With go 1.23's synchronous channels Stop
// discards an unread value itself and reports true, so the drain never
// runs.)
func ReleaseTimer(t *time.Timer, received bool) {
	if !t.Stop() && !received {
		<-t.C
	}
	timers.Put(t)
}

// Fed returns the number of frames accepted so far.
func (s *Session) Fed() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.fed
}

// Completed returns the number of frames whose outputs finished
// (collected or still waiting in the result queue).
func (s *Session) Completed() int64 {
	s.ex.outMu.Lock()
	defer s.ex.outMu.Unlock()
	return s.ex.assembled
}

// InFlight returns the frames fed but not yet collected.
func (s *Session) InFlight() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.fed - s.collected.Load()
}

// Err returns the session's failure, or nil while it is healthy.
func (s *Session) Err() error { return s.ex.runErr() }

// Close stops the inputs and drains the pipeline: every fed frame is
// still processed to completion (uncollected results are discarded),
// then all kernel goroutines exit. It returns the first execution
// error, if any. Close is idempotent.
func (s *Session) Close() error {
	s.Finish()
	for {
		select {
		case <-s.done:
			// The feed channels are closed and the input goroutines are
			// gone; windows still buffered there (a hard stop can leave
			// them behind) go back to the arena.
			for _, ch := range s.ex.feeds {
				for w := range ch {
					w.Release()
				}
			}
			for {
				select {
				case <-s.ex.ready:
					s.collected.Add(1)
				default:
					return s.ex.runErr()
				}
			}
		case <-s.ex.ready:
			s.collected.Add(1)
		}
	}
}

// Finish stops accepting frames but does not wait or drain: the
// inputs see end-of-stream and the pipeline winds down on its own,
// with completed results still collectable. A partition transport uses
// it so a collector goroutine can keep draining results while the
// partition's boundary edges flush; plain Close would race it for the
// ready queue and discard frames. Close after Finish is still required
// to reap the session.
func (s *Session) Finish() {
	s.mu.Lock()
	if !s.closed {
		s.closed = true
		for _, ch := range s.ex.feeds {
			close(ch)
		}
	}
	s.mu.Unlock()
}

// Abort kills the session immediately with err: every kernel stops at
// its next channel operation, in-flight frames are dropped, and Close
// returns promptly. Used when a partitioned session loses a peer and
// waiting for a natural end-of-stream could block forever.
func (s *Session) Abort(err error) {
	if err == nil {
		err = ErrSessionClosed
	}
	s.ex.fail(err)
}

func (s *Session) failErr() error {
	if err := s.ex.runErr(); err != nil {
		return err
	}
	return errors.New("runtime: session stopped")
}

// runInputStream is the streaming replacement for runInput: frames
// arrive from the session feed instead of a generator, but chunking and
// EOL/EOF numbering are identical so results match the batch runtime.
func (ex *executor) runInputStream(pn *planNode) error {
	chunk := pn.node.Output("out").Size
	fs := pn.node.FrameSize
	for f := int64(0); ; f++ {
		var img frame.Window
		select {
		case w, ok := <-ex.feeds[pn.io]:
			if !ok {
				return nil
			}
			img = w
		case <-ex.stop:
			return nil
		}
		ex.emitFrame(pn, fs.W, fs.H, chunk.W, chunk.H, img, f)
	}
}

// runOutputStream assembles per-frame output groups: data windows
// accumulate until the end-of-frame token, and once every application
// output has completed a frame the combined result is flushed to the
// session's ready queue.
func (ex *executor) runOutputStream(pn *planNode) error {
	ib := &ex.boxes[pn.id]
	o := &ex.outs[pn.io]
	for {
		it, ok := ib.take()
		if !ok {
			return nil
		}
		if !it.IsToken {
			ex.outMu.Lock()
			if it.B.IsBatch() {
				o.cur = ex.collectBatch(o.cur, it)
			} else {
				o.cur = append(o.cur, ex.collectOutput(it.Win))
			}
			ex.outMu.Unlock()
			continue
		}
		if it.Tok.Kind != token.EndOfFrame {
			continue
		}
		ex.outMu.Lock()
		o.done.Push(&o.cur)
		// The result owns the finished list. An output's window count
		// is the same every frame (runOutput relies on it too), so the
		// next frame's list is sized once instead of grown from nil —
		// and is the one a consumer ended with frame.ReleaseList a few
		// frames ago, when there is one.
		o.cur = frame.AllocList(len(o.cur))
		all := true
		for i := range ex.outs {
			if ex.outs[i].done.Len() == 0 {
				all = false
				break
			}
		}
		var res StreamResult
		if all {
			res = StreamResult{Seq: ex.assembled, Outputs: make(map[string][]frame.Window, len(ex.outs))}
			for i := range ex.outs {
				q := &ex.outs[i]
				res.Outputs[q.name] = q.done.Pop()
			}
			ex.assembled++
		}
		ex.outMu.Unlock()
		if all {
			select {
			case ex.ready <- res:
			case <-ex.stop:
				return nil
			}
		}
	}
}
