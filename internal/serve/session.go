package serve

import (
	"fmt"
	"sync"
	"time"

	"blockpar/internal/frame"
	"blockpar/internal/runtime"
)

// session is one client's streaming connection to a pipeline: a
// resident execution instance (in-process or on a cluster worker)
// plus the bookkeeping the server needs for metrics and draining.
type session struct {
	id          string
	pipeline    *Pipeline
	rt          SessionHandle
	maxInFlight int
	created     time.Time

	// procMu serializes /process calls so each gets the result of the
	// frame it fed.
	procMu sync.Mutex

	// mu guards feedTimes, the frame-latency bookkeeping: a fixed ring
	// of maxInFlight stamps indexed by frame sequence number.
	mu        sync.Mutex
	feedTimes []feedStamp
}

// feedStamp records when frame seq was accepted.
type feedStamp struct {
	seq int64
	at  time.Time
}

// full reports whether the frame queue is at its bound, so a feed would
// be refused. It is the cheap early check that spares reading a body;
// TryFeed stays the authority.
func (s *session) full() bool { return s.rt.InFlight() >= int64(s.maxInFlight) }

// feed enqueues one frame without blocking; runtime.ErrQueueFull is the
// backpressure signal the handler maps to HTTP 429.
func (s *session) feed(inputs map[string]frame.Window) (int64, error) {
	idx, err := s.rt.TryFeed(inputs)
	if err != nil {
		return 0, err
	}
	s.mu.Lock()
	s.feedTimes[idx%int64(len(s.feedTimes))] = feedStamp{seq: idx, at: time.Now()}
	s.mu.Unlock()
	return idx, nil
}

// collect returns the next completed frame and the latency since its
// feed (zero when the frame's stamp is not in the ring: the collect
// overtook the feeder's bookkeeping, or the slot was already reused).
func (s *session) collect(timeout time.Duration) (*runtime.StreamResult, time.Duration, error) {
	res, err := s.rt.Collect(timeout)
	if err != nil {
		return nil, 0, err
	}
	var lat time.Duration
	s.mu.Lock()
	if st := s.feedTimes[res.Seq%int64(len(s.feedTimes))]; st.seq == res.Seq && !st.at.IsZero() {
		lat = time.Since(st.at)
	}
	s.mu.Unlock()
	return res, lat, nil
}

// WindowJSON is the wire form of a frame.Window for Go clients.
// Samples always travel as JSON numbers held in float64 — exact for
// every kind (u8 and f32 values are exactly representable as doubles) —
// with the element kind as a tag, so streamed outputs stay
// byte-identical to the in-process runtime results and a typed window
// round-trips its kind. Its JSON methods are the edge codec's: a client
// marshals and unmarshals through the same routines the server runs.
type WindowJSON struct {
	W int `json:"w"`
	H int `json:"h"`
	// Kind is the element kind ("u8", "f32"); empty means f64, keeping
	// pre-typed clients and recorded fixtures valid.
	Kind string    `json:"kind,omitempty"`
	Pix  []float64 `json:"pix"`
}

// ToWindow validates the wire window and converts it.
func (j WindowJSON) ToWindow() (frame.Window, error) {
	k, err := frame.ParseKind(j.Kind)
	if err != nil {
		return frame.Window{}, err
	}
	if total, ok := windowSamples(j.W, j.H); !ok || len(j.Pix) != total {
		return frame.Window{}, shapeError(j.W, j.H, len(j.Pix))
	}
	w := frame.NewWindowKind(k, j.W, j.H)
	if k == frame.F64 {
		copy(w.Pix, j.Pix)
	} else {
		for y := 0; y < j.H; y++ {
			for x := 0; x < j.W; x++ {
				w.Set(x, y, j.Pix[y*j.W+x])
			}
		}
	}
	return w, nil
}

// FromWindow converts a window to its wire form: dense row-major
// samples widened to float64. A dense f64 window shares its storage
// with the result; anything else (typed, or a strided view) is copied
// row by row.
func FromWindow(w frame.Window) WindowJSON {
	if w.Kind == frame.F64 && w.IsDense() {
		return WindowJSON{W: w.W, H: w.H, Pix: w.Pix[:w.W*w.H]}
	}
	j := WindowJSON{W: w.W, H: w.H, Pix: make([]float64, 0, w.W*w.H)}
	if w.Kind != frame.F64 {
		j.Kind = w.Kind.String()
	}
	for y := 0; y < w.H; y++ {
		switch w.Kind {
		case frame.U8:
			for _, v := range w.RowU8(y) {
				j.Pix = append(j.Pix, float64(v))
			}
		case frame.F32:
			for _, v := range w.RowF32(y) {
				j.Pix = append(j.Pix, float64(v))
			}
		default:
			j.Pix = append(j.Pix, w.Row(y)...)
		}
	}
	return j
}

// MarshalJSON writes the window as the server would. Like the struct
// encoding it replaces it does not check Pix against W×H (ToWindow, and
// the server, do); a non-finite sample is an error.
func (j WindowJSON) MarshalJSON() ([]byte, error) {
	b := openWindow(make([]byte, 0, 48+4*len(j.Pix)), j.W, j.H, j.Kind)
	pix := len(b)
	b, bad := appendFloats(b, j.Pix)
	if bad >= 0 {
		return nil, fmt.Errorf("sample %d is %v, which JSON cannot carry", bad, j.Pix[bad])
	}
	return closeWindow(b, pix), nil
}

// UnmarshalJSON reads a window object as the server would, so the kind
// tag and the sample count are validated here and Kind comes back in
// canonical form.
func (j *WindowJSON) UnmarshalJSON(data []byte) error {
	p := parser{b: data}
	p.ws()
	if p.peek() == 'n' { // null leaves the value alone, as for any JSON type
		return p.lit("null")
	}
	if p.peek() != '{' {
		return p.want("a window object")
	}
	win, invalid, err := p.window()
	if err == nil {
		err = p.end()
	}
	if err == nil {
		err = invalid
	}
	if err != nil {
		return err
	}
	*j = FromWindow(win)
	return nil
}
